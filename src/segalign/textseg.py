"""Text segment extraction.

Raw motion descriptions are decomposed into temporally ordered text segments,
one per atomic action, joined by the '#' delimiter.  Decomposition can go
through an external LLM endpoint (with an on-disk cache so the step is
offline-repeatable) or through a deterministic rule-based fallback that keeps
the test suite hermetic.  The fallback rules are intentionally crude.  An
endpoint that cannot be reached (refused or timed-out connection, non-2xx
status, truncated reply) within ``TIMEOUT`` seconds per attempt is retried
``MAX_RETRIES`` times, then raises ``TransportError``; one that answers
wrongly raises ``MalformedResponseError`` at once and is not cached.
"""

from __future__ import annotations

import json
import os
import time
import urllib.parse
import warnings
from dataclasses import dataclass

A_MAX = 5
TIMEOUT = 30.0     # seconds each request to the endpoint may take
MAX_RETRIES = 2    # requests after the first, while the endpoint is unreachable

DECOMPOSE_PROMPT = """\
You are a helpful assistant. Your task is to extract and temporally order human actions from a sentence describing a person performing one or more actions.

Guidelines:
- If the sentence describes **only one action**, return it as a full sentence without using the "#" symbol.
- If the sentence describes **multiple actions**, return each as a full sentence, in the correct temporal order, separated by the "#" symbol.
- Preserve descriptive modifiers such as "quickly", "slowly", "two times", "as if", "like", etc.
- Normalize expressions such as "appears to" or "seems to" into direct action statements.
- Do **not** include any extra text (e.g., "Output:", quotes, or explanations). Return only the result string in the specified format.

Examples:
(1) Input: a person runs quickly after walking in a circle.
    Output: a person walks in a circle#a person runs quickly.

(2) Input: a person jumps two times, then walks while waving the hands.
    Output: a person jumps two times#a person walks while waving the hands.

(3) Input: a person takes a box off the table and puts it on the floor.
    Output: a person takes a box off the table#a person puts a box on the floor.

(4) Input: a person is standing and waving the hands.
    Output: a person is standing and waving the hands.

(5) Input: a person is bowing left and right.
    Output: a person is bowing left and right.

(6) Input: a person is jumping around like he is in an accident.
    Output: a person is jumping around like he is in an accident.

(7) Input: a person appears to wave the hands.
    Output: a person waves the hands.

Now process the following input:
"""


class SegmentValidationError(ValueError):
    pass


class TransportError(RuntimeError):
    """Endpoint unreachable after ``MAX_RETRIES`` retries."""


class MalformedResponseError(ValueError):
    """The endpoint answered, but the answer violates the prompt contract.
    The message names the endpoint's URL."""

    def __init__(self, message: str, response_text: str, url: str):
        super().__init__(f"{message} from {url}: {response_text!r}")
        self.response_text = response_text


@dataclass(frozen=True)
class TextSegmentSet:
    segments: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.segments) <= A_MAX):
            raise SegmentValidationError(
                f"segment count {len(self.segments)} outside [1, {A_MAX}]"
            )
        for s in self.segments:
            if not s:
                raise SegmentValidationError("empty text segment")
            if "#" in s:
                raise SegmentValidationError(f"segment contains '#': {s!r}")


@dataclass(frozen=True)
class LlmEndpointConfig:
    """Where ``llm_decompose`` sends: an http:// or https:// URL and a model
    name.  Nothing else, the environment included, changes the URL."""

    base_url: str
    model_name: str

    def __post_init__(self):
        if urllib.parse.urlsplit(self.base_url).scheme not in ("http", "https"):
            raise ValueError(f"endpoint {self.base_url!r} is not an http:// or https:// URL")


def parse_segment_string(s: str) -> TextSegmentSet:
    """Split a '#'-joined segment string into a validated segment set.

    Each piece is whitespace-trimmed and loses a single trailing period; the
    text is otherwise preserved verbatim.
    """
    if not s:
        raise SegmentValidationError("empty segment string")
    pieces = []
    for part in s.split("#"):
        part = part.strip()
        if part.endswith("."):
            part = part[:-1].rstrip()
        if not part:
            raise SegmentValidationError(f"empty segment in {s!r}")
        pieces.append(part)
    if len(pieces) > A_MAX:
        raise SegmentValidationError(f"{len(pieces)} segments exceed the maximum of {A_MAX}")
    return TextSegmentSet(segments=tuple(pieces))


_SUBJECT_PREFIXES = ("a person", "the person", "a man", "a woman", "someone", "he ", "she ")


def _with_subject(phrase: str) -> str:
    phrase = phrase.strip()
    if phrase.endswith("."):
        phrase = phrase[:-1]
    if phrase.lower().startswith(_SUBJECT_PREFIXES):
        return phrase
    return "a person " + phrase


def fallback_decompose(raw: str) -> TextSegmentSet:
    """Rule-based decomposition: no network, deterministic, deliberately crude.

    Splits on ", and then " / ", then " / " then " connectives; "X after Y"
    swaps to [Y, X]; anything else stays a single segment.
    """
    if not raw:
        raise SegmentValidationError("empty input text")
    text = raw.strip()
    if text.endswith("."):
        text = text[:-1]

    if " after " in text:
        first, _, second = text.partition(" after ")
        parts = [second, first]
    else:
        parts = [text]
        for connective in (", and then ", ", then ", " then "):
            parts = [p for chunk in parts for p in chunk.split(connective)]

    segments = tuple(_with_subject(p) for p in parts if p.strip())
    return TextSegmentSet(segments=segments)


# --- LLM endpoint with on-disk cache ---------------------------------------

# cache path -> (file state, {(model, input): output}).  llm_decompose is
# called once per record, so the table outlives a call: the file is parsed
# once per state rather than once per lookup, and a path keeps one table.
_cache_tables: dict[str, tuple[tuple[int, int, int], dict[tuple[str, str], str]]] = {}


def _file_state(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_mtime_ns, st.st_size


def _cache_lookup(cache_path, model: str, raw: str) -> str | None:
    """Cached output for (model, raw), or None.

    The file is parsed once per state (inode, mtime, size), so an appended
    entry or an outside edit is seen by the next lookup; an edit that keeps
    all three, within the file system's timestamp granularity, is not.
    """
    if cache_path is None:
        return None
    path = os.path.abspath(cache_path)
    try:
        state = _file_state(os.stat(path))
    except FileNotFoundError:
        return None
    cached = _cache_tables.get(path)
    if cached is None or cached[0] != state:
        with open(path, "rb") as fh:
            cached = _cache_tables[path] = (_file_state(os.fstat(fh.fileno())), _parse_cache(fh, cache_path))
    return cached[1].get((model, raw))


def _parse_cache(lines, cache_path) -> dict[tuple[str, str], str]:
    """{(model, input): output} of a cache file's lines, given as bytes; the
    first line for a key wins.  A line that is not UTF-8 text of a JSON
    object with string model, input and output is skipped with a warning
    naming the file and line."""
    table = {}
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError:   # JSONDecodeError and UnicodeDecodeError
            obj = None
        if not (isinstance(obj, dict) and all(isinstance(obj.get(k), str) for k in ("model", "input", "output"))):
            warnings.warn(f"{cache_path}:{line_no}: skipping malformed cache line", RuntimeWarning)
            continue
        table.setdefault((obj["model"], obj["input"]), obj["output"])
    return table


def _cache_append(cache_path, model: str, raw: str, output: str) -> None:
    """Append one entry line with one write on an O_APPEND descriptor, so
    concurrent appenders do not interleave; a file that does not end in a
    newline gets one first, so its last line is not glued to the entry.  If
    the path's table was current and the file grew by just this write, the
    entry joins the table and the file's new state is recorded."""
    if cache_path is None:
        return
    line = json.dumps({"model": model, "input": raw, "output": output}, sort_keys=True) + "\n"
    fd = os.open(cache_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        before = os.fstat(fd)
        if before.st_size and os.pread(fd, 1, before.st_size - 1) != b"\n":
            line = "\n" + line
        data = line.encode("utf-8")
        if os.write(fd, data) != len(data):
            raise OSError(f"{cache_path}: short write appending a cache entry")
        after = os.fstat(fd)
    finally:
        os.close(fd)
    path = os.path.abspath(cache_path)
    state, table = _cache_tables.get(path, (None, None))
    if state == _file_state(before) and after.st_size == before.st_size + len(data):
        table.setdefault((model, raw), output)
        _cache_tables[path] = (_file_state(after), table)


def _default_transport(url: str, payload: dict, timeout: float) -> str:
    import http.client
    import urllib.request  # here, so only a call to the endpoint pays for the import
    request = urllib.request.Request(url, json.dumps(payload).encode(), {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            body = resp.read()
    except http.client.HTTPException as exc:
        raise ConnectionError(f"bad HTTP reply: {exc!r}") from exc
    try:
        return json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise MalformedResponseError("reply is not a chat completion", body.decode("utf-8", "replace"), url) from exc


def llm_decompose(
    raw: str,
    cfg: LlmEndpointConfig,
    cache_path=None,
    transport=None,
) -> TextSegmentSet:
    """Decompose via an OpenAI-style chat-completions endpoint.

    Results are cached on disk keyed by (model, input), so a warm cache makes
    the call deterministic and network-free; the cache file is parsed once
    per file state, and the first line for a key wins.  ``transport`` may be
    injected for testing; it receives (url, payload, ``TIMEOUT``) and returns
    the text of the first choice.  An ``OSError`` from it is retried
    ``MAX_RETRIES`` times, then raises ``TransportError``; a non-string or
    off-contract reply raises ``MalformedResponseError`` unretried.
    """
    if not raw:
        raise SegmentValidationError("empty input text")

    cached = _cache_lookup(cache_path, cfg.model_name, raw)
    if cached is not None:
        return parse_segment_string(cached)

    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": DECOMPOSE_PROMPT + raw}],
    }
    send = transport if transport is not None else _default_transport

    last_exc = None
    for attempt in range(MAX_RETRIES + 1):
        try:
            text = send(cfg.base_url, payload, TIMEOUT)
            break
        except OSError as exc:
            last_exc = exc
            if attempt < MAX_RETRIES:
                time.sleep(min(0.2 * (attempt + 1), 1.0))
    else:
        raise TransportError(f"endpoint {cfg.base_url} unreachable after {MAX_RETRIES + 1} attempts: {last_exc}")

    if not isinstance(text, str):
        raise MalformedResponseError("reply content is not a string", repr(text), cfg.base_url)
    stripped = text.strip()
    if stripped.lower().startswith("output:") or stripped.startswith(('"', "'", "`")):
        raise MalformedResponseError("response carries extra text forbidden by the prompt", text, cfg.base_url)
    try:
        result = parse_segment_string(stripped)
    except SegmentValidationError as exc:
        raise MalformedResponseError(f"response failed segment parsing ({exc})", text, cfg.base_url) from exc

    _cache_append(cache_path, cfg.model_name, raw, stripped)
    return result
