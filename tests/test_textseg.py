import dataclasses
import http.client
import io
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
import warnings

import pytest

from segalign import textseg
from segalign.textseg import (
    A_MAX,
    DECOMPOSE_PROMPT,
    LlmEndpointConfig,
    MalformedResponseError,
    SegmentValidationError,
    TransportError,
    fallback_decompose,
    llm_decompose,
    parse_segment_string,
)


class TestParseSegmentString:
    def test_two_actions(self):
        out = parse_segment_string("a person walks in a circle#a person runs quickly.")
        assert out.segments == ("a person walks in a circle", "a person runs quickly")

    def test_single_action_no_delimiter(self):
        out = parse_segment_string("a person is standing and waving the hands.")
        assert out.segments == ("a person is standing and waving the hands",)

    def test_too_many_segments(self):
        with pytest.raises(SegmentValidationError):
            parse_segment_string("#".join(f"a person acts {i}" for i in range(A_MAX + 1)))

    def test_max_segments_accepted(self):
        out = parse_segment_string("#".join(f"a person acts {i}" for i in range(A_MAX)))
        assert len(out.segments) == A_MAX

    def test_empty_piece_rejected(self):
        with pytest.raises(SegmentValidationError):
            parse_segment_string("a person walks##a person runs")

    def test_empty_string_rejected(self):
        with pytest.raises(SegmentValidationError):
            parse_segment_string("")

    def test_whitespace_trim_and_period(self):
        out = parse_segment_string("  a person walks . # a person sits  ")
        assert out.segments == ("a person walks", "a person sits")


class TestFallbackDecompose:
    def test_then_connective(self):
        out = fallback_decompose("a person walks forward, then turns around.")
        assert out.segments == ("a person walks forward", "a person turns around")

    def test_after_swaps_order(self):
        out = fallback_decompose("a person runs quickly after walking in a circle.")
        assert out.segments == ("a person walking in a circle", "a person runs quickly")

    def test_single_action_passthrough(self):
        out = fallback_decompose("a person is bowing left and right.")
        assert out.segments == ("a person is bowing left and right",)

    def test_deterministic(self):
        raw = "a person jumps, and then walks, then sits down."
        assert fallback_decompose(raw) == fallback_decompose(raw)

    def test_empty_rejected(self):
        with pytest.raises(SegmentValidationError):
            fallback_decompose("")


@pytest.fixture
def one_retry(monkeypatch):
    """Two attempts per request, with no wait between them."""
    monkeypatch.setattr(textseg, "MAX_RETRIES", 1)
    monkeypatch.setattr(textseg.time, "sleep", lambda s: None)


def _ok_transport(answer):
    calls = []

    def transport(url, payload, timeout):
        calls.append((url, payload, timeout))
        return answer

    transport.calls = calls
    return transport


class TestLlmDecompose:
    CFG = LlmEndpointConfig(base_url="http://llm.example/v1/chat/completions", model_name="test-model")

    def test_prompt_and_payload(self):
        t = _ok_transport("a person walks#a person runs.")
        out = llm_decompose("a person walks then runs.", self.CFG, transport=t)
        assert out.segments == ("a person walks", "a person runs")
        url, payload, timeout = t.calls[0]
        assert url == self.CFG.base_url
        assert payload["model"] == "test-model"
        assert payload["messages"][0]["role"] == "user"
        assert payload["messages"][0]["content"] == DECOMPOSE_PROMPT + "a person walks then runs."
        assert timeout == textseg.TIMEOUT

    @pytest.mark.parametrize("value", ["", "http://other.example/chat"])
    def test_sends_to_the_config_url_whatever_the_environment(self, monkeypatch, value):
        """Nothing reads the variable the CLI once took its URL from: the
        config is the only source of the URL."""
        monkeypatch.setenv("SEGALIGN_LLM_URL", value)
        t = _ok_transport("a person waves.")
        llm_decompose("a person waves.", self.CFG, transport=t)
        assert t.calls[0][0] == self.CFG.base_url

    def test_config_holds_only_the_url_and_model(self):
        """The timeout and retry count are module constants, not settings."""
        assert [f.name for f in dataclasses.fields(LlmEndpointConfig)] == ["base_url", "model_name"]
        with pytest.raises(TypeError):
            LlmEndpointConfig(base_url=self.CFG.base_url, model_name="m", timeout=1.0)

    def test_warm_cache_skips_network(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({
            "model": "test-model",
            "input": "a person spins.",
            "output": "a person spins.",
        }) + "\n")

        def exploding(url, payload, timeout):
            raise AssertionError("network hit despite warm cache")

        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache),
                            transport=exploding)
        assert out.segments == ("a person spins",)

    def test_cache_written_on_success(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        t = _ok_transport("a person kicks#a person punches.")
        llm_decompose("a person kicks then punches.", self.CFG,
                      cache_path=str(cache), transport=t)
        entry = json.loads(cache.read_text().strip())
        assert entry == {
            "input": "a person kicks then punches.",
            "model": "test-model",
            "output": "a person kicks#a person punches.",
        }
        # second call replays from cache
        llm_decompose("a person kicks then punches.", self.CFG,
                      cache_path=str(cache), transport=t)
        assert len(t.calls) == 1

    def test_output_prefix_rejected(self):
        t = _ok_transport("Output: a person walks.")
        with pytest.raises(MalformedResponseError) as exc_info:
            llm_decompose("a person walks.", self.CFG, transport=t)
        assert exc_info.value.response_text == "Output: a person walks."

    def test_quoted_response_rejected(self):
        t = _ok_transport('"a person walks."')
        with pytest.raises(MalformedResponseError):
            llm_decompose("a person walks.", self.CFG, transport=t)

    def test_six_segments_rejected(self):
        t = _ok_transport("#".join(f"a person acts {i}" for i in range(6)))
        with pytest.raises(MalformedResponseError):
            llm_decompose("a person does many things.", self.CFG, transport=t)

    def test_retry_then_success(self, one_retry):
        state = {"n": 0}

        def flaky(url, payload, timeout):
            state["n"] += 1
            if state["n"] == 1:
                raise ConnectionError("boom")
            return "a person walks."

        out = llm_decompose("a person walks.", self.CFG, transport=flaky)
        assert out.segments == ("a person walks",)
        assert state["n"] == 2

    def test_unreachable_raises_transport_error(self, one_retry):
        calls = []

        def dead(url, payload, timeout):
            calls.append(url)
            raise ConnectionError("refused")

        with pytest.raises(TransportError) as err:
            llm_decompose("a person walks.", self.CFG, transport=dead)
        assert len(calls) == 2
        assert str(err.value).startswith(f"endpoint {self.CFG.base_url} unreachable after 2 attempts")

    @pytest.mark.parametrize("url", ["", "llm.example/v1", "ftp://llm.example/v1", "file:///reply.json"])
    def test_non_http_url_is_refused(self, url):
        """Refused when built, so no caller can make llm_decompose read a
        local file or hand urllib an empty URL."""
        with pytest.raises(ValueError) as err:
            LlmEndpointConfig(base_url=url, model_name="m")
        assert str(err.value) == f"endpoint {url!r} is not an http:// or https:// URL"

    def test_malformed_not_cached(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        t = _ok_transport("Output: nope")
        with pytest.raises(MalformedResponseError):
            llm_decompose("a person walks.", self.CFG, cache_path=str(cache), transport=t)
        assert not cache.exists() or cache.read_text() == ""


def _entry(raw, output, model="test-model"):
    return json.dumps({"model": model, "input": raw, "output": output}, sort_keys=True)


def _exploding(url, payload, timeout):
    raise AssertionError("network hit despite warm cache")


class TestCacheFile:
    """The cache file is parsed once per file state and read as a table."""

    CFG = TestLlmDecompose.CFG

    def test_lookups_parse_the_file_once(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        raws = [f"a person does action {i}." for i in range(60)]
        cache.write_text("".join(_entry(raw, raw) + "\n" for raw in raws))
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        for raw in raws:
            out = llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_exploding)
            assert out.segments == (raw[:-1],)
        assert len(parsed) == 60

    def test_first_line_for_a_key_wins(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join([
            _entry("a person spins.", "a person spins"),
            _entry("a person spins.", "a person falls"),
            _entry("a person spins.", "a person jumps", model="other-model"),
        ]) + "\n")
        for _ in range(2):
            out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
            assert out.segments == ("a person spins",)
        other = LlmEndpointConfig(base_url=self.CFG.base_url, model_name="other-model")
        out = llm_decompose("a person spins.", other, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person jumps",)

    def test_malformed_line_warns_once_per_parse(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        lines = [_entry("a person spins.", "a person spins"), "{not json", '{"model": 1}',
                 _entry("a person kicks.", "a person kicks")]
        cache.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning) as record:
            for raw in ("a person kicks.", "a person kicks.", "a person spins."):
                llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_exploding)
        assert [str(w.message) for w in record] == [
            f"{cache}:2: skipping malformed cache line", f"{cache}:3: skipping malformed cache line"]
        cache.write_text("\n".join(lines[1:]) + "\n")     # a new state is parsed again
        with pytest.warns(RuntimeWarning) as record:
            llm_decompose("a person kicks.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert [str(w.message) for w in record] == [
            f"{cache}:1: skipping malformed cache line", f"{cache}:2: skipping malformed cache line"]

    def test_fetched_miss_is_served_by_the_next_lookup(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(_entry("a person spins.", "a person spins") + "\n")
        llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
        t = _ok_transport("a person kicks#a person punches.")
        for _ in range(3):
            out = llm_decompose("a person kicks then punches.", self.CFG, cache_path=str(cache), transport=t)
            assert out.segments == ("a person kicks", "a person punches")
        assert len(t.calls) == 1

    def test_rewritten_file_is_read_again(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(_entry("a person spins.", "a person spins") + "\n")
        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person spins",)
        # replaced by a file of the same size, as a temp-file-and-rename writer does
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_text(_entry("a person spins.", "a person waves") + "\n")
        os.replace(fresh, cache)
        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person waves",)
        # edited in place
        cache.write_text(_entry("a person spins.", "a person sits down") + "\n")
        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person sits down",)
        cache.unlink()
        t = _ok_transport("a person hops.")
        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=t)
        assert out.segments == ("a person hops",) and len(t.calls) == 1

    def test_cold_misses_parse_each_line_at_most_once(self, tmp_path, monkeypatch):
        """A fetched miss joins the table when the file grew by just its
        entry, so 60 misses into a fresh file parse at most 60 lines (the
        whole file again after every append parsed 1,770)."""
        cache = tmp_path / "cache.jsonl"
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        raws = [f"a person does action {i}." for i in range(60)]
        for raw in raws:
            t = _ok_transport(raw)
            assert llm_decompose(raw, self.CFG, cache_path=str(cache), transport=t).segments == (raw[:-1],)
            assert len(t.calls) == 1
        for raw in raws:
            assert llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_exploding).segments == (raw[:-1],)
        assert len(parsed) <= 60
        assert cache.read_text() == "".join(_entry(raw, raw) + "\n" for raw in raws)

    def test_outside_writes_around_appends_are_seen(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for raw in ("a person spins.", "a person kicks."):
            llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_ok_transport(raw))
        with cache.open("a") as fh:     # another writer appends after ours
            fh.write(_entry("a person hops.", "a person hops") + "\n")
        out = llm_decompose("a person hops.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person hops",)

        def racing(url, payload, timeout):   # another writer appends during our fetch
            with cache.open("a") as fh:
                fh.write(_entry("a person sits.", "a person sits") + "\n")
            return "a person waves"

        llm_decompose("a person waves.", self.CFG, cache_path=str(cache), transport=racing)
        for raw in ("a person sits.", "a person waves."):
            out = llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_exploding)
            assert out.segments == (raw[:-1],)
        cache.write_text(_entry("a person spins.", "a person falls") + "\n")   # rewritten in place
        out = llm_decompose("a person spins.", self.CFG, cache_path=str(cache), transport=_exploding)
        assert out.segments == ("a person falls",)

    def test_append_after_a_last_line_without_newline(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = _entry("a person spins.", "a person spins")
        cache.write_text(first)
        t = _ok_transport("a person kicks.")
        llm_decompose("a person kicks.", self.CFG, cache_path=str(cache), transport=t)
        assert cache.read_text() == first + "\n" + _entry("a person kicks.", "a person kicks.") + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for raw in ("a person spins.", "a person kicks."):
                out = llm_decompose(raw, self.CFG, cache_path=str(cache), transport=_exploding)
                assert out.segments == (raw[:-1],)
        assert len(t.calls) == 1

    def test_append_is_one_write_on_an_append_descriptor(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(_entry("a person spins.", "a person spins") + "\n")
        opened, written = [], []
        real_open, real_write = os.open, os.write

        def recording_open(path, flags, *args, **kwargs):
            opened.append(flags)
            return real_open(path, flags, *args, **kwargs)

        def recording_write(fd, data):
            written.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", recording_write)
        llm_decompose("a person kicks.", self.CFG, cache_path=str(cache), transport=_ok_transport("a person kicks."))
        assert len(opened) == 1 and opened[0] & os.O_APPEND
        assert written == [(_entry("a person kicks.", "a person kicks.") + "\n").encode()]


class TestDefaultTransport:
    """The real urllib transport, with ``urlopen`` replaced: no network."""

    CFG = TestLlmDecompose.CFG

    @pytest.fixture
    def urlopen(self, monkeypatch):
        calls = []

        def install(reply):
            def fake(request, timeout):
                calls.append((request, timeout))
                if isinstance(reply, Exception):
                    raise reply
                return io.BytesIO(reply)

            monkeypatch.setattr(urllib.request, "urlopen", fake)
            monkeypatch.setattr(textseg.time, "sleep", lambda s: None)
            return calls

        return install

    def test_posts_json_chat_request(self, urlopen):
        reply = {"choices": [{"message": {"content": "a person walks#a person runs."}}]}
        calls = urlopen(json.dumps(reply).encode())
        out = llm_decompose("a person walks then runs.", self.CFG)
        assert out.segments == ("a person walks", "a person runs")
        (request, timeout), = calls
        assert request.full_url == self.CFG.base_url
        assert request.get_method() == "POST"
        assert request.get_header("Content-type") == "application/json"
        assert json.loads(request.data) == {
            "model": "test-model",
            "messages": [{"role": "user", "content": DECOMPOSE_PROMPT + "a person walks then runs."}],
        }
        assert timeout == textseg.TIMEOUT

    @pytest.mark.parametrize("body", [
        b'{"error": "x"}',
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": 7}}]}',
        b"not json",
    ])
    def test_wrong_answer_is_malformed_not_retried_not_cached(self, urlopen, tmp_path, body):
        calls = urlopen(body)
        cache = tmp_path / "cache.jsonl"
        with pytest.raises(MalformedResponseError):
            llm_decompose("a person walks.", self.CFG, cache_path=str(cache))
        assert len(calls) == 1
        assert not cache.exists()

    @pytest.mark.parametrize("failure", [
        urllib.error.URLError("connection refused"),
        urllib.error.HTTPError("http://llm.example", 503, "Service Unavailable", {}, None),
        http.client.IncompleteRead(b"{\"cho"),
    ], ids=["URLError", "HTTPError-503", "IncompleteRead"])
    def test_unreachable_is_retried_then_transport_error(self, urlopen, one_retry, tmp_path, failure):
        calls = urlopen(failure)
        cache = tmp_path / "cache.jsonl"
        with pytest.raises(TransportError):
            llm_decompose("a person walks.", self.CFG, cache_path=str(cache))
        assert len(calls) == 2
        assert not cache.exists()


def test_no_network_module_imported_at_startup():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = ("import segalign.cli, sys; "
             "print(sorted({'requests', 'urllib.request', 'http.client'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
