"""Seeded mutation sweep over every input format the CLI reads.

Each format starts from one valid file, written by the command that makes
it where there is one.  About 50 mutations per format are drawn, with the
standard library's ``random`` from a fixed seed, from these kinds:

  * a truncation just before or after a piece of JSON punctuation;
  * a byte flip: punctuation outside strings swapped for a character JSON
    does not allow there, or a byte replaced by 0xFF, which is never UTF-8;
  * a required key deleted or renamed;
  * a value replaced by one of another JSON type;
  * NaN, Infinity or -Infinity in place of a value;
  * an empty array in place of a value;
  * for a dataset line, the id of the line before it;
  * for a dataset line, a primitive library or a model, its float64 hex
    rows written as the decimal float lists of the older encoding.

Every mutation makes the file invalid.  A key whose absence is valid (a spec
or config field, which has a default, or a truth entry, which only scores
its record) is not deleted; a renamed config key is ignored by design, so it
is not renamed either.  Each mutated file goes through the command that
consumes it, in process, which must exit 1 with exactly one JSON line on
stderr that names the file, record no warning, and leave nothing under
``--out``.

SGMO motion files are mutated as bytes: a truncation at any offset, trailing
bytes, a bad magic byte, a zero or oversized N or D in the header, and a
NaN or infinite float32 in the payload.

Two formats fail a record rather than the file, and ``decompose`` then
exits 1 with one JSON line naming the data file and the endpoint's URL,
and writes only its report.  A text-cache line that is not an entry is
skipped with a warning naming the cache file and line; its record then
misses, and the endpoint, refusing here, fails it with a TransportError.
An endpoint reply that is not a chat completion keeping the prompt's
contract (the mutations above, and content strings the prompt forbids)
rejects its record with a MalformedResponseError, in the report, after one
request and without caching the reply.  No request leaves the process:
``urllib.request.urlopen`` is replaced.
"""

import copy
import io
import json
import random
import shutil
import struct
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from segalign import jsonio, textseg
from segalign.cli import main

SEED = 15
PER_FORMAT = 50
ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"   # never contacted: urlopen is replaced
DECOMPOSE_DATA = "records.jsonl"   # the dataset decompose reads, beside the cache file

# replacement values of another JSON type, by the kind a field holds
WRONG_TYPES = {
    "int": ["2", 2.5, None, True, {}],
    "float": ["0.5", None, False, {}],
    "str": [3, None, True, {}],
    "bool": ["true", 1, None, {}],
    "list": ["x", 3, None, True, {}],
    "object": ["x", 3, None, True, []],
}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# punctuation outside strings, and a character that cannot stand in for it
SWAPS = {"{": "(", "}": ")", "[": "(", "]": ")", ":": "=", ",": ";", '"': "'"}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _edited(obj, path, edit):
    """A deep copy of ``obj`` with ``edit(parent, key)`` applied at ``path``."""
    obj = copy.deepcopy(obj)
    edit(_at(obj, path[:-1]), path[-1])
    return obj


def _replace(value):
    def edit(parent, key):
        parent[key] = value
    return edit


def _delete(parent, key):
    del parent[key]


def _rename(parent, key):
    parent[key + "_renamed"] = parent.pop(key)


def _punctuation(text):
    """Offsets of JSON punctuation in ``text``, string quotes included,
    but not characters inside strings."""
    marks, in_string, escaped = [], False, False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
                marks.append(i)
        elif ch in SWAPS:
            in_string = ch == '"'
            marks.append(i)
    return marks


def json_mutations(obj, sites, dumps):
    """Candidate mutations of the JSON value ``obj``, grouped by kind, each
    a (label, bytes) pair.  ``sites`` lists (path, kind, key_edits) for the
    fields to mutate; ``key_edits`` names which of delete and rename make
    the file invalid."""
    text = dumps(obj)
    body = len(text.rstrip())
    marks = _punctuation(text)
    cuts = sorted({c for i in marks for c in (i, i + 1) if 0 < c < body})
    raw = text.encode()
    groups = {
        "truncate": [(f"truncate {c}", raw[:c]) for c in cuts],
        "flip": [(f"swap {i}", (text[:i] + SWAPS[text[i]] + text[i + 1:]).encode()) for i in marks]
        + [(f"0xff {i}", raw[:i] + b"\xff" + raw[i + 1:]) for i in range(0, len(raw), 7)],
        "key": [],
        "type": [(f"document {v!r}", dumps(v).encode()) for v in ([], "x", 1, None)],
        "non-finite": [],
        "empty": [],
    }
    for path, kind, key_edits in sites:
        for name, edit in (("delete", _delete), ("rename", _rename)):
            if name in key_edits:
                groups["key"].append((f"{name} {path}", dumps(_edited(obj, path, edit)).encode()))
        for value in WRONG_TYPES[kind]:
            groups["type"].append((f"{path} = {value!r}", dumps(_edited(obj, path, _replace(value))).encode()))
        for value in NON_FINITE:
            groups["non-finite"].append((f"{path} = {value}", dumps(_edited(obj, path, _replace(value))).encode()))
        groups["empty"].append((f"{path} = []", dumps(_edited(obj, path, _replace([]))).encode()))
    return text.encode(), groups


def draw(groups, name):
    """About PER_FORMAT mutations, taken from every kind in turn."""
    rng = random.Random(f"{SEED}/{name}")
    pools = {kind: rng.sample(items, len(items)) for kind, items in groups.items()}
    picked = []
    while len(picked) < PER_FORMAT and any(pools.values()):
        for pool in pools.values():
            if pool and len(picked) < PER_FORMAT:
                picked.append(pool.pop())
    return picked


def _compact(obj):
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small valid corpus, primitive library and trained model."""
    root = tmp_path_factory.mktemp("sweep")
    spec = {"n_samples": 3, "dim": 2, "segments_min": 2, "segments_max": 3, "tokens_per_segment_min": 3,
            "tokens_per_segment_max": 4, "mean_scale": 2.5, "noise_std": 0.2}
    (root / "spec.json").write_text(json.dumps(spec))
    for argv in (
        ["synth", "--spec", str(root / "spec.json"), "--seed", "3", "--out", str(root / "data")],
        ["segment", "--data", str(root / "data"), "--method", "cluster", "--fit-library", "--library",
         str(root / "lib.json"), "--window", "2", "--primitives", "3", "--out", str(root / "seg")],
        ["train-align", "--samples", "8", "--holdout", "3", "--steps", "2", "--d-token", "2", "--d-embed", "3",
         "--out", str(root / "align")],
    ):
        assert main(argv + ["--quiet"]) == 0
    return root


def _corpus_copy(base, work):
    data = work / "data"
    if not data.exists():
        shutil.copytree(base / "data", data)
    return data


def _spec(base, work):
    spec = json.loads((base / "spec.json").read_text())
    spec.update(ratio=2)
    sites = [((key,), "float" if isinstance(value, float) else "int", {"rename"}) for key, value in spec.items()]
    return (*json_mutations(spec, sites, _compact), work / "spec.json", ["synth", "--spec", str(work / "spec.json")])


def _manifest(base, work):
    data = _corpus_copy(base, work)
    manifest = json.loads((base / "data" / "manifest.json").read_text())
    sites = [(("ratio",), "int", {"delete", "rename"})]
    return (*json_mutations(manifest, sites, _compact), data / "manifest.json", ["quantize", "--data", str(data)])


def _truth(base, work):
    data = _corpus_copy(base, work)
    truth = json.loads((base / "data" / "truth.json").read_text())
    sites = []
    for sid, spans in truth.items():
        sites.append(((sid,), "list", set()))
        for i, span in enumerate(spans):
            sites.append(((sid, i), "list", {"delete"}))
            sites += [((sid, i, j), "int", {"delete"}) for j in range(len(span))]
    argv = ["segment", "--data", str(data), "--method", "uniform"]
    return (*json_mutations(truth, sites, _compact), data / "truth.json", argv)


def _float_lists(rows):
    """Hex rows as the decimal float lists of the older encoding."""
    return [np.frombuffer(bytes.fromhex(row), "<f8").tolist() for row in rows]


def _library(base, work):
    lib = json.loads((base / "lib.json").read_text())
    sites = [(("centers",), "list", {"delete", "rename"}), (("centers", 1), "str", set()),
             (("window_size",), "int", {"delete", "rename"}), (("stride",), "int", {"delete", "rename"})]
    argv = ["segment", "--data", str(base / "data"), "--method", "cluster", "--library", str(work / "lib.json")]
    valid, groups = json_mutations(lib, sites, _compact)
    groups["older"] = [("centers as float lists", _compact({**lib, "centers": _float_lists(lib["centers"])}).encode())]
    return valid, groups, work / "lib.json", argv


def _model(base, work):
    model = json.loads((base / "align" / "model.json").read_text())
    sites = [((name,), "list", {"delete", "rename"}) for name in ("w1", "w2")]
    sites += [((name,), "str", {"delete", "rename"}) for name in ("b1", "b2")]
    sites += [(("w1", 1), "str", set()), (("w2", 0), "str", set())]
    argv = ["ground", "--model", str(work / "model.json"), "--data", str(base / "align" / "align_data.json")]
    valid, groups = json_mutations(model, sites, _compact)
    older = {"w1": _float_lists(model["w1"]), "w2": _float_lists(model["w2"]),
             "b1": _float_lists([model["b1"]])[0], "b2": _float_lists([model["b2"]])[0]}
    groups["older"] = [(f"{name} as float lists", _compact({**model, name: rows}).encode())
                       for name, rows in older.items()]
    return valid, groups, work / "model.json", argv


def _align_data(base, work):
    data = json.loads((base / "align" / "align_data.json").read_text())
    sites = [(("holdout",), "list", {"delete", "rename"}), (("holdout", 1), "object", set()),
              (("holdout", 1, "text"), "list", {"delete", "rename"}), (("holdout", 0, "text", 1), "str", set()),
              (("holdout", 2, "spans"), "list", {"delete", "rename"}), (("holdout", 2, "spans", 0), "list", set()),
              (("holdout", 0, "spans", 1, 0), "str", set())]
    argv = ["retrieve", "--model", str(base / "align" / "model.json"), "--data", str(work / "align_data.json")]
    return (*json_mutations(data, sites, _compact), work / "align_data.json", argv)


def _config(base, work):
    config = {"steps": 2, "samples": 6, "holdout": 3, "lr": 0.5, "temperature": 0.1, "loss": "batch",
              "d_token": 2, "seed": 4, "quiet": True}
    kinds = {"lr": "float", "temperature": "float", "loss": "str", "quiet": "bool"}
    sites = [((key,), kinds.get(key, "int"), set()) for key in config]
    argv = ["--config", str(work / "cfg.json"), "train-align"]
    return (*json_mutations(config, sites, _compact), work / "cfg.json", argv)


def _dataset_line(base, work):
    first, second = (base / "data" / "dataset.jsonl").read_text().splitlines()[:2]
    record = json.loads(second)
    # synth writes no embeddings: the rows, one per segment, are written by hand
    record["embeddings"] = jsonio.hex_rows([[0.5 * i, -1.0] for i in range(len(record["segments"]))])
    sites = [((key,), "str", {"delete", "rename"}) for key in ("id", "text", "motion")]
    sites += [(("segments",), "list", {"delete", "rename"}), (("segments", 0), "str", set()),
              (("embeddings", 1), "str", set())]
    valid, groups = json_mutations(record, sites, _compact)
    # the mutated record is the second line of a two-line file
    groups["duplicate"] = [("id = the first record's id", _compact({**record, "id": json.loads(first)["id"]}).encode())]
    groups["older"] = [("embeddings as float lists",
                        _compact({**record, "embeddings": _float_lists(record["embeddings"])}).encode())]
    lines = {kind: [(label, first.encode() + b"\n" + line + b"\n") for label, line in items]
             for kind, items in groups.items()}
    argv = ["decompose", "--fallback", "--data", str(work / "dataset.jsonl")]
    return first.encode() + b"\n" + valid + b"\n", lines, work / "dataset.jsonl", argv


def _features(base, work):
    rows = np.random.default_rng(SEED).normal(size=(6, 3))
    lines = [",".join(f"{v:.6f}" for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    commas = [i for i, ch in enumerate(text) if ch == ","]
    groups = {
        "truncate": [(f"truncate {c}", text[:c].encode()) for c in [0, 1, len(lines[0]) + 1] + [i + 1 for i in commas]],
        "flip": [(f"0xff {i}", text[:i].encode() + b"\xff" + text[i + 1:].encode()) for i in range(0, len(text), 5)]
        + [(f"x at {i}", (text[:i] + "x" + text[i + 1:]).encode()) for i in range(0, len(text), 3) if text[i] != "\n"],
        "key": [(f"drop row {r} column {c}", "\n".join(
            lines[:r] + [",".join(v for k, v in enumerate(lines[r].split(",")) if k != c)] + lines[r + 1:]).encode())
            for r in range(1, 6) for c in range(3)],
        "type": [(f"cell {value}", text.replace(lines[2].split(",")[1], value, 1).encode())
                 for value in ("true", "null", "[]", "{}", '"0.5"', "abc")],
        "non-finite": [(f"cell {value}", text.replace(lines[r].split(",")[c], value, 1).encode())
                       for value in ("nan", "inf", "-inf", "NaN") for r, c in ((0, 0), (3, 2), (5, 1))],
        "empty": [("empty", b""), ("blank lines", b"\n\n\n"), ("empty cell", text.replace(",", ",,", 1).encode()),
                  ("one row", (lines[4] + "\n").encode())],
    }
    return text.encode(), groups, work / "features.csv", ["eval", "--features-a", str(work / "features.csv")]


def _sgmo(base, work):
    """A motion file of the corpus, as bytes: its header is the magic
    "SGMO", uint32 N and uint32 D, and its payload N * D float32 values."""
    data = _corpus_copy(base, work)
    rel = json.loads((base / "data" / "dataset.jsonl").read_text().splitlines()[1])["motion"]
    valid = (base / "data" / rel).read_bytes()
    n, d = struct.unpack_from("<II", valid, 4)

    def header(rows, dims):
        return valid[:4] + struct.pack("<II", rows, dims) + valid[12:]

    def at(offset, new):
        return valid[:offset] + new + valid[offset + len(new):]

    groups = {
        "truncate": [(f"truncate {c}", valid[:c]) for c in range(len(valid))],
        "trailing": [(f"{len(extra)} trailing bytes", valid + extra)
                     for extra in (b"\0", b"\0" * 3, b"\0" * 4, valid[12:12 + 4 * d], valid)],
        "magic": [(f"magic[{i}] = {b:#04x}", at(i, bytes([b]))) for i in range(4) for b in (0, 0xFF, valid[i] ^ 0x20)],
        "header": [(f"N = {v}", header(v, d)) for v in (0, n + 1, 2 * n, 2**32 - 1)]
        + [(f"D = {v}", header(n, v)) for v in (0, d + 1, 2 * d, 2**32 - 1)],
        "non-finite": [(f"float {(i - 12) // 4} = {v}", at(i, struct.pack("<f", v)))
                       for i in range(12, len(valid), 4) for v in NON_FINITE],
    }
    return valid, groups, data / rel, ["quantize", "--data", str(data)]


def _cache_line(base, work):
    """A warm text cache for the corpus, one entry per record, whose second
    line is mutated."""
    records = [json.loads(line) for line in (base / "data" / "dataset.jsonl").read_text().splitlines()]
    lines = [_compact({"model": "ci", "input": r["text"], "output": "#".join(r["segments"])}).encode()
             for r in records]
    sites = [((key,), "str", {"delete", "rename"}) for key in ("model", "input", "output")]
    valid, groups = json_mutations(json.loads(lines[1]), sites, _compact)

    def around(line):
        return b"\n".join([lines[0], line, *lines[2:]]) + b"\n"

    groups = {kind: [(label, around(line)) for label, line in items] for kind, items in groups.items()}
    shutil.copy(base / "data" / "dataset.jsonl", work / DECOMPOSE_DATA)
    argv = ["decompose", "--data", str(work / DECOMPOSE_DATA), "--cache", str(work / "cache.jsonl"),
            "--endpoint", ENDPOINT, "--model-name", "ci"]
    return around(valid), groups, work / "cache.jsonl", argv


def _reply(base, work):
    """The body of the endpoint's reply for a one-record dataset, with no
    cache entry."""
    (work / DECOMPOSE_DATA).write_text((base / "data" / "dataset.jsonl").read_text().splitlines()[0] + "\n")
    reply = {"choices": [{"message": {"role": "assistant", "content": "a person walks#a person runs"}}]}
    sites = [(("choices",), "list", {"delete", "rename"}), (("choices", 0), "object", set()),
             (("choices", 0, "message"), "object", {"delete", "rename"}),
             (("choices", 0, "message", "content"), "str", {"delete", "rename"})]
    valid, groups = json_mutations(reply, sites, _compact)
    groups["contract"] = [
        (f"content {text!r}", _compact(_edited(reply, ("choices", 0, "message", "content"), _replace(text))).encode())
        for text in ("Output: a person walks", '"a person walks"', "`a person walks`", "", "  ",
                     "a person walks##a person runs", "#".join(["a person walks"] * 6))]
    argv = ["decompose", "--data", str(work / DECOMPOSE_DATA), "--cache", str(work / "cache.jsonl"),
            "--endpoint", ENDPOINT, "--model-name", "ci"]
    return valid, groups, work / "reply.json", argv


FORMATS = {
    "spec": _spec,
    "manifest": _manifest,
    "truth": _truth,
    "library": _library,
    "model": _model,
    "align_data": _align_data,
    "config": _config,
    "dataset_line": _dataset_line,
    "features": _features,
    "sgmo": _sgmo,
    "cache_line": _cache_line,
    "reply": _reply,
}
DECOMPOSED = {"dataset_line", "cache_line", "reply"}   # formats decompose reads: its --out is a file


def _is_json_error(line):
    try:
        return set(json.loads(line)) == {"error"}
    except (ValueError, TypeError):
        return False


def _run(capsys, argv):
    """Run ``argv`` in process: (exit code, or None if an exception
    escaped, stderr lines, warning messages, problems)."""
    problems = []
    textseg._cache_tables.clear()   # a rewritten cache is read again, whatever its timestamps
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback or an argparse exit breaks the contract
            problems.append(f"{type(exc).__name__} escaped: {exc}")
            code = None
    return code, capsys.readouterr().err.splitlines(), [str(w.message) for w in caught], problems


def _one_error_naming(code, err, *names):
    problems = [] if code == 1 else [f"exit {code}"]
    if len(err) != 1 or not _is_json_error(err[0]):
        problems.append(f"stderr {err!r}")
    else:
        problems += [f"{name} not named: {err!r}" for name in names if name not in json.loads(err[0])["error"]]
    return problems


def _written(out):
    return sorted(p.name for p in out.rglob("*")) if out.exists() else []


def _clean_failure(run, target, out, requests):
    """Exit 1 with one JSON error line naming the file, no warning, and
    nothing under --out."""
    code, err, caught, problems = run
    problems += _one_error_naming(code, err, str(target)) + [f"warning {w}" for w in caught]
    return problems + ([f"wrote {_written(out)}"] if out.exists() else [])


def _failed_decompose(run, target, out):
    """Exit 1 with one JSON error line naming the data file and the URL,
    and only the report written."""
    code, err, _, problems = run
    problems += _one_error_naming(code, err, str(target.parent / DECOMPOSE_DATA), ENDPOINT)
    return problems + ([f"wrote {_written(out)}"] if _written(out) != ["decomposed_report.json"] else [])


def _skipped_cache_line(run, target, out, requests):
    """The second line skipped with a warning naming the cache file and
    line, then the refusing endpoint fails its record."""
    problems = _failed_decompose(run, target, out)
    if run[2] != [f"{target}:2: skipping malformed cache line"]:
        problems.append(f"warnings {run[2]!r}")
    return problems


def _rejected_reply(run, target, out, requests):
    """The record rejected with a MalformedResponseError naming the URL,
    after one request; nothing cached, no warning."""
    problems = _failed_decompose(run, target, out) + [f"warning {w}" for w in run[2]]
    report = out / "decomposed_report.json"
    statuses = list(json.loads(report.read_text()).values()) if report.exists() else []
    if not (len(statuses) == 1 and statuses[0].startswith("rejected: ") and ENDPOINT in statuses[0]):
        problems.append(f"report {statuses!r}")
    if len(requests) != 1:
        problems.append(f"{len(requests)} requests")
    if (target.parent / "cache.jsonl").exists():
        problems.append("reply cached")
    return problems


CHECKS = {"cache_line": _skipped_cache_line, "reply": _rejected_reply}


@pytest.fixture
def endpoint(tmp_path, monkeypatch):
    """The URLs requested of the endpoint, which answers with the bytes of
    ``reply.json`` in the test's directory or, without one, refuses."""
    requests = []

    def urlopen(request, timeout):
        requests.append(request.full_url)
        reply = tmp_path / "reply.json"
        if not reply.exists():
            raise urllib.error.URLError("connection refused")
        return io.BytesIO(reply.read_bytes())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(textseg.time, "sleep", lambda s: None)
    return requests


def _out_arg(name, out):
    return out / "decomposed.jsonl" if name in DECOMPOSED else out


@pytest.mark.parametrize("name", FORMATS)
def test_the_unmutated_file_is_valid(base, tmp_path, endpoint, name):
    """The sweep's starting point passes, so each failure below is the
    mutation's doing."""
    valid, _, target, argv = FORMATS[name](base, tmp_path)
    target.write_bytes(valid)
    textseg._cache_tables.clear()
    assert main(argv + ["--out", str(_out_arg(name, tmp_path / "out")), "--quiet"]) == 0


@pytest.mark.parametrize("name", FORMATS)
def test_every_mutation_fails_cleanly(base, tmp_path, capsys, endpoint, name):
    _, groups, target, argv = FORMATS[name](base, tmp_path)
    mutations = draw(groups, name)
    assert len(mutations) == min(PER_FORMAT, sum(map(len, groups.values())))
    assert len(mutations) >= 40
    failures = []
    for label, content in mutations:
        target.write_bytes(content)
        out = tmp_path / "out"
        endpoint.clear()
        run = _run(capsys, argv + ["--out", str(_out_arg(name, out)), "--quiet"])
        failures += [f"{label}: {p}" for p in CHECKS.get(name, _clean_failure)(run, target, out, endpoint)]
        shutil.rmtree(out, ignore_errors=True)
        (tmp_path / "cache.jsonl").unlink(missing_ok=True)
    assert failures == []
