"""Golden manifest: every seeded artifact of a small end-to-end run is pinned.

``run_pipeline`` is the one definition of the seeded pipeline.  One
in-process run through ``cli.main`` takes six synthetic corpora (``SPECS``:
short, long, equal-length, even, mixed and sweep) each through synth,
decompose against a warm text cache with a malformed and a duplicate line,
quantize at the default size and at 64 codes in 4 layers, and four
segmentations (uniform, kernel CPD at the median and at a fixed bandwidth,
cluster with a fitted library); then train-align with each loss, ground at
two indices and two strides, retrieve and eval on each model, and three
decodes.  ``tests/golden.json`` records each file it writes:

- integer artifacts (tokens, boundaries, decode traces, grounding starts,
  retrieval rows, and the synth manifest, which holds the SHA-256 of every
  synth file) by the SHA-256 of their bytes;
- float artifacts by their parsed values, compared within 1e-12 relative
  (absolute below magnitude 1), so another BLAS kernel cannot fail them.
  The rows of ``align_data.json``, ``stack.json``, ``library.json`` and
  ``model.json`` are decoded from their float64 hex first.

Every JSON file the run writes, and every line of a JSON-lines file, is in
the one layout of ``jsonio.write_json``: keys sorted, on one line.  Every
CSV file is in the one layout of ``cli._write_csv``: one header line, then
one line per row with the header's cell count, each float cell the text
``str`` and ``json.dumps`` give it, so the file holds the value exactly.

CI runs ``run_pipeline`` twice, the second time under
``MALLOC_TRIM_THRESHOLD_`` (so ``cli._keep_freed_memory`` leaves glibc's
thresholds alone), and compares the two trees with ``diff -r``: no byte of
any artifact, float ones included, may depend on the run or the allocator.

A change that alters an output on purpose regenerates the manifest with
``python tests/test_golden.py --regenerate``, which prints the entries it
changed, added and removed, and names each changed entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from segalign import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
SEED = "5"

SPECS = {
    "short": {"n_samples": 12, "dim": 8, "segments_min": 2, "segments_max": 4},
    # 450-token records, whose kernel CPD sweeps several blocks of start rows
    "long": {"n_samples": 2, "dim": 8, "segments_min": 5, "segments_max": 5,
             "tokens_per_segment_min": 90, "tokens_per_segment_max": 90},
    # records of one length and segment count, which segment as stacks
    "equal": {"n_samples": 30, "dim": 8, "segments_min": 3, "segments_max": 3,
              "tokens_per_segment_min": 8, "tokens_per_segment_max": 8},
    # 448-token records: an even count of pairs, so the median bandwidth takes two middles
    "even": {"n_samples": 2, "dim": 8, "segments_min": 4, "segments_max": 4,
             "tokens_per_segment_min": 112, "tokens_per_segment_max": 112},
    # 16- and 24-token records in 2 and 3 segments: two groups interleave, each in several stacks
    "mixed": {"n_samples": 60, "dim": 8, "segments_min": 2, "segments_max": 3,
              "tokens_per_segment_min": 8, "tokens_per_segment_max": 8},
    # 2,000-token records, whose kernel CPD sweeps many blocks of start rows
    "sweep": {"n_samples": 2, "dim": 8, "segments_min": 5, "segments_max": 5,
              "tokens_per_segment_min": 400, "tokens_per_segment_max": 400},
}
LOSSES = ("sample", "batch", "global")
DECODE_SEEDS = ("5", "11", "811")

# files whose values are floats a BLAS kernel may round differently; every
# other file is compared by its bytes
FLOAT_FILES = {"align_data.json", "curve.csv", "eval.csv", "eval.json", "library.json", "model.json",
               "rvq_report.csv", "similarity_map.csv", "stack.json", "train_report.json"}
RTOL = 1e-12


def _run(*argv: str) -> None:
    code = cli.main([*argv, "--quiet"])
    assert code == 0, f"segalign {' '.join(argv)} exited {code}"


def _warm_cache(dataset: Path, cache: Path) -> None:
    """A text cache that answers every record, with a malformed line and a
    later duplicate of the first entry, whose first answer wins."""
    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    lines = [json.dumps({"model": "golden", "input": r["text"], "output": "#".join(r["segments"])}, sort_keys=True)
             for r in records]
    lines[1:1] = ["{not json", json.dumps({"model": "golden", "input": records[0]["text"], "output": "x"})]
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_pipeline(root: Path) -> None:
    """Write every golden artifact under ``root``."""
    for name, spec in SPECS.items():
        out = root / name
        out.mkdir(parents=True)
        (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        _run("synth", "--spec", str(out / "spec.json"), "--seed", SEED, "--out", str(out / "data"))
        (out / "spec.json").unlink()
        # every lookup hits the warm cache, so the port-9 endpoint is never contacted
        cache = root / "cache.jsonl"
        _warm_cache(out / "data" / "dataset.jsonl", cache)
        with warnings.catch_warnings():  # the malformed cache line
            warnings.simplefilter("ignore", RuntimeWarning)
            _run("decompose", "--data", str(out / "data" / "dataset.jsonl"), "--cache", str(cache),
                 "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--model-name", "golden",
                 "--out", str(out / "decompose" / "decomposed.jsonl"))
        cache.unlink()
        _run("quantize", "--data", str(out / "data"), "--seed", SEED, "--out", str(out / "quantize"))
        # the benchmark's k, where k-means++ seeding skips most rows
        _run("quantize", "--data", str(out / "data"), "--codes", "64", "--layers", "4", "--seed", SEED,
             "--out", str(out / "quantize-64"))
        _run("segment", "--data", str(out / "data"), "--method", "uniform", "--out", str(out / "segment"))
        _run("segment", "--data", str(out / "data"), "--method", "cpd", "--seed", SEED, "--out", str(out / "segment"))
        _run("segment", "--data", str(out / "data"), "--method", "cpd", "--bandwidth", "0.7", "--seed", SEED,
             "--out", str(out / "segment-bw"))
        _run("segment", "--data", str(out / "data"), "--method", "cluster", "--fit-library",
             "--library", str(out / "segment" / "library.json"), "--primitives", "16", "--seed", SEED,
             "--out", str(out / "segment"))
    for loss in LOSSES:
        out = root / "align" / loss
        # a holdout of 16 samples holds at least 32 segments, one R-Precision pool
        _run("train-align", "--seed", SEED, "--samples", "40", "--holdout", "16", "--steps", "40",
             "--loss", loss, "--out", str(out / "align"))
        query = ["--model", str(out / "align" / "model.json"), "--data", str(out / "align" / "align_data.json")]
        for index in ("0", "1"):
            for stride in ("1", "2"):
                _run("ground", *query, "--index", index, "--stride", stride,
                     "--out", str(out / f"ground-{index}-{stride}"))
        _run("retrieve", *query, "--out", str(out / "retrieve"))
        _run("eval", *query, "--seed", SEED, "--out", str(out / "eval"))
    for seed in DECODE_SEEDS:
        _run("decode", "--length", "49", "--iters", "10", "--codes", "512", "--seed", seed,
             "--out", str(root / "decode" / seed))


# --- what is recorded -------------------------------------------------------

def _numbers(text: str):
    """A CSV line's cells, numeric ones as floats."""
    cells = []
    for cell in text.split(","):
        try:
            cells.append(float(cell))
        except ValueError:
            cells.append(cell)
    return cells


def _unhex(rows):
    return [np.frombuffer(bytes.fromhex(row), "<f8").tolist() for row in rows]


def _values(path: Path):
    """The parsed content of a float artifact."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [_numbers(line) for line in text.splitlines()]
    obj = json.loads(text)
    if path.name == "align_data.json":
        obj["holdout"] = [{"text": _unhex(s["text"]), "spans": [_unhex(sp) for sp in s["spans"]]}
                          for s in obj["holdout"]]
    elif path.name == "stack.json":
        obj["books"] = [_unhex(book) for book in obj["books"]]
    elif path.name == "library.json":
        obj["centers"] = _unhex(obj["centers"])
    elif path.name == "model.json":
        obj.update({name: _unhex(obj[name]) for name in ("w1", "w2")},
                   **{name: _unhex([obj[name]])[0] for name in ("b1", "b2")})
    return obj


def record(path: Path):
    if path.name in FLOAT_FILES:
        return {"values": _values(path)}
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def manifest(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): record(p) for p in sorted(root.rglob("*")) if p.is_file()}


def mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: numbers beyond RTOL, anything
    else at all."""
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, (int, float)) and not isinstance(got, bool) and type(got) is type(want):
            if math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL):
                return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


# --- the test ---------------------------------------------------------------

@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run_pipeline(root)
    return root


@pytest.fixture(scope="module")
def produced(run_root):
    return manifest(run_root)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_same_files_are_written(produced, golden):
    assert sorted(produced) == sorted(golden)


def test_json_artifacts_have_one_layout(run_root):
    """A JSON file, and each line of a JSON-lines file, is one line of
    sorted keys."""
    texts = [(p, p.read_text(encoding="utf-8")) for p in sorted(run_root.rglob("*.json"))]
    lines = [(p, line) for p in sorted(run_root.rglob("*.jsonl"))
             for line in p.read_text(encoding="utf-8").splitlines(keepends=True)]
    assert texts and lines
    bad = [p.relative_to(run_root).as_posix() for p, text in texts + lines
           if text != json.dumps(json.loads(text), sort_keys=True) + "\n"]
    assert bad == []


def _is_float(cell: str) -> bool:
    """Whether a CSV cell is a float: it parses as one and is no integer."""
    return not cell.removeprefix("-").isdigit() and isinstance(_numbers(cell)[0], float)


def test_csv_artifacts_have_one_layout(run_root):
    """A CSV file is one header line of names (and integer start tokens),
    then rows of its cell count, each float cell exact:
    ``str(float(cell)) == cell``."""
    paths = sorted(run_root.rglob("*.csv"))
    assert {p.name for p in paths} >= {"curve.csv", "eval.csv", "retrieval.csv", "rvq_report.csv",
                                        "seg_report_cpd.csv", "similarity_map.csv"}
    bad = []
    for p in paths:
        text = p.read_text(encoding="utf-8")
        header, *rows = [line.split(",") for line in text.splitlines()]
        if not (text.endswith("\n") and rows and not any(map(_is_float, header))
                and all(len(row) == len(header) and row[0] != header[0] for row in rows)
                and all(str(float(cell)) == cell for row in rows for cell in row if _is_float(cell))):
            bad.append(p.relative_to(run_root).as_posix())
    assert bad == []


@pytest.mark.parametrize("group", [*SPECS, "align/sample", "align/batch", "align/global", "decode"])
def test_artifacts_match_the_manifest(produced, golden, group):
    names = [name for name in golden if name.startswith(group + "/")]
    assert names
    bad = [f"{name}{m}" for name in names if name in produced
           for m in mismatches(produced[name], golden[name])]
    assert bad == [], f"{len(bad)} differences, first: {bad[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        entries = manifest(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    # one entry per line keeps a regenerated manifest's diff readable
    lines = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}" for name, entry in entries.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    for verb, names in (("changed", [n for n in entries if n in old and entries[n] != old[n]]),
                        ("added", [n for n in entries if n not in old]),
                        ("removed", [n for n in old if n not in entries])):
        print(f"{verb} {len(names)}" + "".join(f"\n  {name}" for name in names))
    print(f"wrote {len(entries)} entries to {GOLDEN}")
