"""The package as a user meets it: the README quick start runs as printed,
and every public name has one import path, its module."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import segalign

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


def test_readme_quick_start_runs():
    (block,) = _readme_python_blocks()
    out = subprocess.run([sys.executable, "-c", block], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "(16,)\n"


def test_the_package_exports_only_its_version():
    """Its submodules become attributes once imported; nothing else is."""
    names = [n for n, v in vars(segalign).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert names == []
    assert segalign.__version__


def test_nothing_imports_a_name_from_the_top_level_package():
    """``from segalign import x`` may name a module, never a function or
    class: those are imported from the module that defines them."""
    modules = {p.stem for p in (SRC / "segalign").glob("*.py")} - {"__init__"}
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))}
    sources.update((f"README.md block {i}", block) for i, block in enumerate(_readme_python_blocks()))
    found = []
    for where, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            top_level = isinstance(node, ast.ImportFrom) and (
                node.module == "segalign" or (node.level == 1 and node.module is None))
            if top_level:
                found += [f"{where}: {a.name}" for a in node.names if a.name not in modules]
    assert found == []
