from __future__ import annotations

import http.server
import json
import socket
import sys
import threading
import time
import tracemalloc

import pytest

from bashsynth import bash_ast
from bashsynth import llm_bridge as L

from conftest import COMMANDS, REPLAY_TRANSLATIONS, SlowTransport, make_replay_entries


class FailingTransport:
    def __init__(self, error):
        self.error = error
        self.calls = 0

    def send(self, payload, index=None):
        self.calls += 1
        raise self.error


class ScriptedTransport:
    def __init__(self, responses):
        self.responses = list(responses)

    def send(self, payload, index=None):
        reply = self.responses.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _session(entries, log_path=None):
    return L.LlmSession(L.LlmConfig(), L.ReplayTransport(entries), log_path=log_path)


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestConfig:
    def test_temperature_defaults(self):
        assert L.GEN_TEMPERATURE == 1.0
        assert L.TRANSLATE_TEMPERATURE == 0.0

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            L.LlmConfig(max_retries=-1)

    @pytest.mark.parametrize("rpm", [0, -5])
    def test_bad_requests_per_minute(self, rpm):
        with pytest.raises(ValueError, match="requests_per_minute"):
            L.LlmConfig(requests_per_minute=rpm)

    @pytest.mark.parametrize("rpm", [None, 1])
    def test_requests_per_minute_accepted(self, rpm):
        assert L.LlmConfig(requests_per_minute=rpm).requests_per_minute == rpm


class TestGenCommands:
    def test_three_commands_from_stub(self, replay_entries):
        session = _session(replay_entries[:3])
        assert session.gen_commands(3) == [
            "ls -la", "find . -name '*.txt'", "ls -la",
        ]

    def test_markdown_fencing_stripped(self):
        session = L.LlmSession(
            L.LlmConfig(),
            ScriptedTransport(["```bash\ndu -sh /var\n```"]),
        )
        assert session.gen_commands(1) == ["du -sh /var"]

    def test_auth_error_propagates(self):
        session = L.LlmSession(L.LlmConfig(), FailingTransport(L.AuthError("401")))
        with pytest.raises(L.AuthError):
            session.gen_commands(1)

    def test_transport_failures_skipped_after_retries(self, tmp_path):
        log = tmp_path / "log.jsonl"
        transport = FailingTransport(L.TransportError("boom"))
        session = L.LlmSession(
            L.LlmConfig(max_retries=1, backoff=0.0, concurrency=1), transport, log_path=log
        )
        assert session.gen_commands(2) == []
        assert transport.calls == 4  # 2 prompts x (1 try + 1 retry)
        assert all(e["error"] for e in _lines(log))


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next ``(status, headers, body)``
    and keeps ``(headers, body)`` of the request in ``server.seen``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, body))
        status, headers, reply = self.server.replies.pop(0)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


def _completion(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


@pytest.fixture
def endpoint(monkeypatch):
    """A loopback chat endpoint; tests queue replies in ``replies``."""
    for var in ("NO_PROXY", "no_proxy"):
        monkeypatch.setenv(var, "127.0.0.1,localhost")
    monkeypatch.delenv(L.AUTH_ENV, raising=False)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    server.replies, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _live(url, log, **config):
    return L.LlmSession(L.LlmConfig(endpoint=url, backoff=0.0, **config), log_path=log)


class TestHttpTransport:
    def test_non_json_200_is_retried(self, endpoint, tmp_path):
        endpoint.replies = [(200, {}, b"<html>busy</html>"),
                            (200, {}, _completion("list files"))]
        log = tmp_path / "log.jsonl"
        assert _live(endpoint.url, log).backtranslate("ls") == "list files"
        lines = _lines(log)
        assert [e["attempt"] for e in lines] == [1, 2]
        assert "non-JSON" in lines[0]["error"]
        assert lines[1]["error"] is None
        assert len(endpoint.seen) == 2

    @pytest.mark.parametrize(
        "status, header, expected",
        [(429, "7", 7.0), (503, "1.5", 1.5), (503, None, None),
         (503, "Wed, 21 Oct 2015 07:28:00 GMT", None), (404, "7", None)],
    )
    def test_retry_after_on_error(self, endpoint, status, header, expected):
        headers = {} if header is None else {"Retry-After": header}
        endpoint.replies = [(status, headers, b"busy")]
        transport = L.HttpTransport(L.LlmConfig(endpoint=endpoint.url))
        with pytest.raises(L.TransportError, match=f"endpoint returned {status}") as info:
            transport.send({})
        assert info.value.retry_after == expected
        assert len(endpoint.seen) == 1

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_error_after_one_request(self, endpoint, status):
        endpoint.replies = [(status, {}, b"denied")] * 3
        with pytest.raises(L.AuthError, match=str(status)):
            _live(endpoint.url, None, max_retries=2).backtranslate("ls")
        assert len(endpoint.seen) == 1

    @pytest.mark.parametrize("token", [None, "s3cret"])
    def test_bearer_sent_only_with_key(self, endpoint, monkeypatch, token):
        if token is not None:
            monkeypatch.setenv(L.AUTH_ENV, token)
        endpoint.replies = [(200, {}, _completion("list files"))]
        _live(endpoint.url, None).backtranslate("ls")
        (headers, _), = endpoint.seen
        expected = None if token is None else f"Bearer {token}"
        assert headers.get("Authorization") == expected

    def test_body_is_payload_json(self, endpoint):
        endpoint.replies = [(200, {}, _completion("list files"))]
        payload = {"model": "m", "messages": [{"role": "user", "content": "ls é"}],
                   "temperature": 0.0}
        assert L.HttpTransport(L.LlmConfig(endpoint=endpoint.url)).send(payload) == (
            "list files")
        (headers, body), = endpoint.seen
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == payload

    @pytest.mark.parametrize("content", [None, 7, ["ls"]], ids=["null", "number", "list"])
    def test_content_not_text_is_retried(self, endpoint, tmp_path, content):
        endpoint.replies = [(200, {}, _completion(content))] * 3
        log = tmp_path / "log.jsonl"
        session = _live(endpoint.url, log, max_retries=2)
        with pytest.raises(L.TransportError, match="retries exhausted"):
            session.backtranslate("ls")
        assert len(endpoint.seen) == 3
        assert all("malformed completion response" in e["error"] for e in _lines(log))

    def test_refused_connection_raises_transport_error(self, monkeypatch, tmp_path):
        with socket.socket() as sock:  # a port nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        for var in ("NO_PROXY", "no_proxy"):
            monkeypatch.setenv(var, "127.0.0.1,localhost")
        log = tmp_path / "log.jsonl"
        session = _live(f"http://127.0.0.1:{port}/v1", log, max_retries=1)
        with pytest.raises(L.TransportError, match="retries exhausted"):
            session.backtranslate("ls")
        assert [e["attempt"] for e in _lines(log)] == [1, 2]
        assert all(e["error"] for e in _lines(log))

    @pytest.mark.parametrize("url", ["", "ftp2://host/v1", "http://127.0.0.1:port/v1"])
    def test_bad_url_raises_transport_error(self, url):
        with pytest.raises(L.TransportError):
            L.HttpTransport(L.LlmConfig(endpoint=url)).send({})


class _BusyOnce:
    def __init__(self, retry_after):
        self.errors = [L.TransportError("endpoint returned 429", retry_after)]

    def send(self, payload, index=None):
        if self.errors:
            raise self.errors.pop()
        return "list files"


class TestRetryAfter:
    @pytest.mark.parametrize(
        "retry_after, expected",
        [(3.0, 3.0), (0.1, 0.5), (None, 0.5), (100.0, 10.0)],
    )
    def test_sleep_honours_header(self, monkeypatch, retry_after, expected):
        sleeps: list[float] = []
        monkeypatch.setattr(L.time, "sleep", sleeps.append)
        config = L.LlmConfig(backoff=0.5, request_timeout=10.0)
        session = L.LlmSession(config, _BusyOnce(retry_after))
        assert session.backtranslate("ls") == "list files"
        assert sleeps == [expected]


class TestBacktranslate:
    def test_stub_mapping(self, replay_entries):
        session = _session(replay_entries)
        assert (
            session.backtranslate("ls -la")
            == "list all files including hidden ones in long format"
        )

    def test_empty_command_rejected(self, replay_entries):
        with pytest.raises(ValueError):
            _session(replay_entries).backtranslate("  ")

    def test_blank_translation_names_its_command(self, tmp_path):
        log, out = tmp_path / "log.jsonl", tmp_path / "records.jsonl"
        transport = ScriptedTransport(["list files", " \n\t\n"])
        session = L.LlmSession(L.LlmConfig(concurrency=1), transport, log_path=log)
        with pytest.raises(L.TransportError, match="^empty translation for 'du -sh x'$"):
            session.backtranslate_records(["ls", "du -sh x"], out)
        assert [json.loads(line)["nl"] for line in out.read_text().splitlines()] == [
            "list files"]
        assert [e["response"] for e in _lines(log)] == ["list files", " \n\t\n"]

    def test_uses_translation_temperature(self, replay_entries, tmp_path):
        log = tmp_path / "log.jsonl"
        _session(replay_entries, log_path=log).backtranslate("ls -la")
        assert _lines(log)[-1]["request"]["temperature"] == 0.0


class TestPipeline:
    def test_stub_run_emits_five_records(self, replay_entries):
        session = _session(replay_entries)
        records = session.pipeline(10)
        assert len(records) == 5
        assert all(r.source == "llm" for r in records)
        for record in records:
            bash_ast.parse(record.cmd)  # every survivor parses
            assert record.nl == REPLAY_TRANSLATIONS[record.cmd]

    def test_dedup_precedes_backtranslation(self, replay_entries, tmp_path):
        log = tmp_path / "log.jsonl"
        _session(replay_entries, log_path=log).pipeline(10)
        translated = [e for e in _lines(log) if e["task"] == "backtranslate"]
        assert len(translated) == 5  # never pays for duplicates

    def test_n_zero(self, replay_entries):
        assert _session(replay_entries).pipeline(0) == []

    def test_audit_log_complete(self, replay_entries, tmp_path):
        audit_path = tmp_path / "audit.jsonl"
        audit_path.write_text("left from an earlier run\n")
        _session(replay_entries, log_path=audit_path).pipeline(10)
        lines = _lines(audit_path)
        assert len(lines) == 15  # 10 generations + 5 translations
        # the prompt number for a generation, the input position for a translation
        assert [(e["task"], e["index"]) for e in lines] == (
            [("generate", i) for i in range(10)]
            + [("backtranslate", i) for i in range(5)]
        )

    def test_replay_reproduces_byte_for_byte(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        L.LlmSession(L.LlmConfig(), L.ReplayTransport(make_replay_entries())).pipeline(
            10, out_path=out_a
        )
        L.LlmSession(L.LlmConfig(), L.ReplayTransport(make_replay_entries())).pipeline(
            10, out_path=out_b
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_incremental_persistence(self, replay_entries, tmp_path):
        out = tmp_path / "partial.jsonl"
        records = _session(replay_entries).pipeline(10, out_path=out)
        lines = out.read_text().splitlines()
        assert len(lines) == len(records)
        assert json.loads(lines[0])["cmd"] == records[0].cmd


class SlowReplay(L.ReplayTransport):
    """A replay that sleeps in each send and counts the sends in flight."""

    def __init__(self, exchanges, delay):
        super().__init__(exchanges)
        self.delay = delay
        self.count_lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def send(self, payload, index=None):
        with self.count_lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            return super().send(payload, index)
        finally:
            with self.count_lock:
                self.in_flight -= 1


class TestConcurrentTranslation:
    def test_pipeline_records_in_survivor_order(self):
        # duplicates and an unparseable reply drop out before translation
        replies = COMMANDS[:6] + ["| sort", COMMANDS[2]] + COMMANDS[6:]
        transport = SlowTransport(replies)
        session = L.LlmSession(L.LlmConfig(concurrency=3), transport)
        generated: list[str] = []
        gen = session.gen_commands
        session.gen_commands = lambda n: generated.extend(gen(n)) or generated
        records = session.pipeline(len(replies))
        # generation replies are handed out in the order threads ask for them
        survivors = [c for c in dict.fromkeys(generated) if c != "| sort"]
        assert sorted(survivors) == sorted(COMMANDS)
        assert [r.cmd for r in records] == survivors
        assert [r.nl for r in records] == [f"nl: {c}" for c in survivors]
        assert transport.peak == 3

    @pytest.mark.parametrize("live, concurrency", [(False, 4), (True, 1)])
    def test_serial_when_pool_is_off(self, tmp_path, live, concurrency):
        # A live transport at concurrency 1, or a replay at any concurrency.
        transport = SlowTransport(delay=0.005)
        if not live:
            recorded = tmp_path / "recorded.jsonl"
            recorder = L.LlmSession(L.LlmConfig(concurrency=3), transport,
                                    log_path=recorded)
            recorder.backtranslate_records(COMMANDS)
            transport = SlowReplay(recorded, delay=0.005)
        log = tmp_path / "log.jsonl"
        config = L.LlmConfig(concurrency=concurrency)
        session = L.LlmSession(config, transport, log_path=log)
        records = session.backtranslate_records(COMMANDS)
        assert [(r.cmd, r.nl) for r in records] == [(c, f"nl: {c}") for c in COMMANDS]
        assert [e["index"] for e in _lines(log)] == list(range(len(COMMANDS)))
        assert transport.peak == 1

    @pytest.mark.parametrize("k, backoff", [
        pytest.param(0, False, id="0"),
        pytest.param(2, False, id="2"),
        pytest.param(7, False, id="7"),
        pytest.param(11, False, id="11"),
        pytest.param(2, True, id="2-backoff"),
    ])
    def test_failure_keeps_earlier_records(self, tmp_path, k, backoff):
        # With backoff, the item after k gets a plain 503 as k is sent for
        # the last time, so it is backing off, with no slot, when k's
        # failure is recorded: the slot it takes next must send nothing.
        concurrency = 3
        retries = 1 if backoff else 0
        busy = [COMMANDS[k + 1]] if backoff else []
        transport = SlowTransport(fail=[COMMANDS[k]], busy=busy, hold=retries + 1)
        config = L.LlmConfig(concurrency=concurrency, max_retries=retries, backoff=0.1)
        log = tmp_path / "log.jsonl"
        session = L.LlmSession(config, transport, log_path=log)
        out = tmp_path / "records.jsonl"
        with pytest.raises(L.TransportError, match="retries exhausted"):
            session.backtranslate_records(COMMANDS, out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["cmd"], r["nl"]) for r in lines] == [
            (c, f"nl: {c}") for c in COMMANDS[:k]
        ]
        last = len(transport.started) - transport.started[::-1].index(COMMANDS[k])
        after = transport.started[last:]  # started after k's last attempt
        assert len(after) <= concurrency - 1
        assert transport.in_flight == 0  # calls in flight finished first
        assert len(_lines(log)) == len(transport.started)
        if backoff:
            assert transport.started.count(COMMANDS[k + 1]) <= 1

    def test_plain_backoff_frees_its_slot(self):
        # Items 0 and 1 get a plain 503 first; while they back off, their
        # slots carry later items' requests.
        transport = SlowTransport(busy=COMMANDS[:2])
        session = L.LlmSession(L.LlmConfig(concurrency=2, backoff=0.2), transport)
        records = session.backtranslate_records(COMMANDS)
        assert [(r.cmd, r.nl) for r in records] == [(c, f"nl: {c}") for c in COMMANDS]
        assert {cmd for cmd, _ in transport.during_wait} - set(COMMANDS[:2])
        assert transport.peak <= 2

    def test_retry_after_wait_keeps_its_slot(self):
        # While item 0 waits as its Retry-After asks, one slot is left.
        transport = SlowTransport(busy=COMMANDS[:1], retry_after=0.2)
        session = L.LlmSession(L.LlmConfig(concurrency=2, backoff=0.0), transport)
        records = session.backtranslate_records(COMMANDS)
        assert [(r.cmd, r.nl) for r in records] == [(c, f"nl: {c}") for c in COMMANDS]
        assert transport.during_wait
        assert max(n for _, n in transport.during_wait) == 1

    def test_first_failure_in_input_order_under_stress(self, tmp_path):
        commands = [f"echo {i}" for i in range(60)]
        fail = [commands[i] for i in (17, 23, 41)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(10):
                transport = SlowTransport(fail=fail, delay=0.0005)
                config = L.LlmConfig(concurrency=8, max_retries=0)
                log = tmp_path / f"log{attempt}.jsonl"
                session = L.LlmSession(config, transport, log_path=log)
                out = tmp_path / f"records{attempt}.jsonl"
                with pytest.raises(L.TransportError, match="echo 17$"):
                    session.backtranslate_records(commands, out)
                written = [json.loads(line)["cmd"] for line in out.read_text().splitlines()]
                assert written == commands[:17]
                assert len(_lines(log)) == len(transport.started)
        finally:
            sys.setswitchinterval(interval)


class FailsCalls2To4:
    """Fails generation calls 2-4, every attempt of prompt 1 at the default
    two retries; describes any other prompt. Serial: a session using it
    sets ``concurrency=1``."""

    def __init__(self):
        self.calls = 0

    def send(self, payload, index=None):
        prompt = payload["messages"][0]["content"]
        if prompt != L.GENERATION_PROMPT:
            return f"describe {prompt}"
        self.calls += 1
        if 2 <= self.calls <= 4:
            raise L.TransportError(f"call {self.calls} failed")
        return f"echo {self.calls}"


class AnswersCalls3And4Late:
    """Call n answers ``echo n``; calls 3 and 4 answer only after call 5."""

    def __init__(self):
        self.calls = 0
        self.lock = threading.Lock()
        self.fifth = threading.Event()

    def send(self, payload, index=None):
        with self.lock:
            self.calls += 1
            call = self.calls
        if call == 5:
            self.fifth.set()
        elif call in (3, 4):
            self.fifth.wait(timeout=5)
            time.sleep(0.02)
        return f"echo {call}"


class EchoTransport:
    def send(self, payload, index=None):
        return payload["messages"][0]["content"]


def _errors(log):
    return [(e["index"], e["error"]) for e in _lines(log) if e["error"] is not None]


class TestReplayTransport:
    def test_round_trip_through_file(self, replay_entries, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(
            "\n".join(json.dumps(e, ensure_ascii=False) for e in replay_entries) + "\n"
        )
        session = L.LlmSession(L.LlmConfig(), L.ReplayTransport(log))
        assert len(session.pipeline(10)) == 5

    def test_unknown_request_raises(self):
        transport = L.ReplayTransport([])
        with pytest.raises(L.TransportError, match="replay"):
            transport.send({"model": "m", "messages": [], "temperature": 0})


class TestExchangeLog:
    def test_records_exchanges(self, tmp_path):
        log = tmp_path / "log.jsonl"
        session = L.LlmSession(
            L.LlmConfig(concurrency=1), ScriptedTransport(["echo hi", "response one"]),
            log_path=log,
        )
        assert session.gen_commands(1) == ["echo hi"]
        assert session.backtranslate("ls") == "response one"
        generated, line = _lines(log)
        assert (generated["task"], generated["index"]) == ("generate", 0)
        assert line["request"] == {
            "model": "default",
            "messages": [{"role": "user", "content": f"{L.TRANSLATION_PROMPT}: ls"}],
            "temperature": 0.0,
        }
        assert line["response"] == "response one"
        assert line["index"] is None  # not called through _map_ordered
        assert (line["task"], line["attempt"], line["error"]) == ("backtranslate", 1, None)

    def test_recorded_log_replays(self, tmp_path):
        # Generation replies complete out of order at concurrency 3, so the
        # log holds them in completion order; replay serves them by index.
        log = tmp_path / "log.jsonl"
        commands = [f"echo {i}" for i in range(6)]
        session = L.LlmSession(
            L.LlmConfig(concurrency=3), SlowTransport(commands), log_path=log
        )
        live = session.pipeline(6)
        assert sorted(r.cmd for r in live) == commands
        logged = [e["index"] for e in _lines(log) if e["task"] == "generate"]
        assert sorted(logged) == list(range(6)) and logged != list(range(6))
        replay = L.LlmSession(L.LlmConfig(concurrency=3), L.ReplayTransport(log))
        assert replay.pipeline(6) == live

    def test_replay_fails_logged_errors_and_orders_by_index(self):
        request = {"model": "m", "messages": [], "temperature": 1.0}
        transport = L.ReplayTransport([
            {"request": request, "response": "b", "index": 1, "attempt": 1, "error": None},
            {"request": request, "response": "", "index": 0, "attempt": 1, "error": "503"},
            {"request": request, "response": "x"},  # no index: served to an unindexed call
            {"request": request, "response": "a", "index": 0, "attempt": 2, "error": None},
        ])
        with pytest.raises(L.TransportError, match="^503$"):
            transport.send(request, 0)
        assert [transport.send(request, i) for i in (0, None, 1)] == ["a", "x", "b"]
        with pytest.raises(L.TransportError, match="replay"):
            transport.send(request, 0)

    def test_each_index_serves_its_lines_then_unindexed_ones(self):
        request = {"model": "m", "messages": [], "temperature": 1.0}
        transport = L.ReplayTransport([
            {"request": request, "response": "p", "index": 1},
            {"request": request, "response": "s"},
            {"request": request, "response": "q", "index": 1, "attempt": 1},
            {"request": request, "response": "r", "index": 0},
        ])
        # two batches' index 1, then an index with no line of its own left
        assert [transport.send(request, i) for i in (1, 0, 1, 0)] == ["p", "r", "q", "s"]
        with pytest.raises(L.TransportError, match="replay"):
            transport.send(request, 1)

    def test_failed_prompt_replays_at_its_index(self, tmp_path):
        # Generation calls 2-4 (every attempt of prompt 1) fail live; the
        # replay must fail prompt 1 too, not hand it prompt 2's reply.
        log = tmp_path / "log.jsonl"
        config = L.LlmConfig(backoff=0.0, concurrency=1)
        live = L.LlmSession(config, FailsCalls2To4(), log_path=log)
        records = live.pipeline(4)
        assert [r.cmd for r in records] == ["echo 1", "echo 5", "echo 6"]
        replayed = tmp_path / "replayed.jsonl"
        replay = L.LlmSession(config, L.ReplayTransport(log), log_path=replayed)
        assert replay.pipeline(4) == records
        assert _errors(log) == [(1, f"call {n} failed") for n in (2, 3, 4)]
        assert _errors(replayed) == _errors(log)

    @pytest.mark.parametrize("rpm", [None, 60])
    def test_replay_never_sleeps(self, tmp_path, monkeypatch, rpm):
        # A live run backs off between failed attempts and paces to --rpm;
        # replaying its log contacts no endpoint, so it waits for neither.
        sleeps: list[float] = []
        monkeypatch.setattr(L.time, "sleep", sleeps.append)
        log = tmp_path / "log.jsonl"
        config = L.LlmConfig(requests_per_minute=rpm, concurrency=1)
        live = L.LlmSession(config, FailsCalls2To4(), log_path=log)
        records = live.pipeline(4)
        assert {0.5, 1.0} <= set(sleeps)  # the backoff after each failure
        sleeps.clear()
        replayed = tmp_path / "replayed.jsonl"
        replay = L.LlmSession(config, L.ReplayTransport(log), log_path=replayed)
        assert replay.pipeline(4) == records
        assert sleeps == []
        assert _errors(replayed) == _errors(log) != []

    def test_failure_with_empty_error_replays_as_failure(self, tmp_path):
        log = tmp_path / "log.jsonl"
        config = L.LlmConfig(concurrency=1, backoff=0.0)
        transport = ScriptedTransport([L.TransportError(""), "echo 2", "echo 3", "echo 4"])
        live = L.LlmSession(config, transport, log_path=log).gen_commands(3)
        assert live == ["echo 2", "echo 3", "echo 4"]
        assert [e["error"] for e in _lines(log)] == ["", None, None, None]
        assert L.LlmSession(config, L.ReplayTransport(log)).gen_commands(3) == live

    def test_later_batch_with_new_index_logged_first_replays_in_order(self, tmp_path):
        # Calls 3 and 4, made by the second batch's first two items, answer
        # after call 5, so the log reads indices (0, 1, 2, 0, 1): the batch's
        # new index 2 is logged before the indices it repeats.
        log = tmp_path / "log.jsonl"
        config = L.LlmConfig(concurrency=3)
        live = L.LlmSession(config, AnswersCalls3And4Late(), log_path=log)
        batches = [live.gen_commands(2), live.gen_commands(3)]
        assert sorted(batches[0] + batches[1]) == [f"echo {n}" for n in range(1, 6)]
        replay = L.LlmSession(config, L.ReplayTransport(log))
        assert [replay.gen_commands(2), replay.gen_commands(3)] == batches

    def test_session_without_log_keeps_no_exchanges(self):
        commands = [f"echo {i}" for i in range(5000)]
        session = L.LlmSession(L.LlmConfig(), EchoTransport())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(session.backtranslate_records(commands)) == 5000
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(commands) < 400

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_batches_of_one_session_replay_in_order(self, tmp_path, concurrency):
        log = tmp_path / "log.jsonl"
        commands = [f"echo {i}" for i in range(10)]
        config = L.LlmConfig(concurrency=concurrency)
        live = L.LlmSession(config, SlowTransport(commands, delay=0.005), log_path=log)
        batches = [live.gen_commands(6), live.gen_commands(4)]
        assert sorted(batches[0] + batches[1], key=commands.index) == commands
        replay = L.LlmSession(config, L.ReplayTransport(log))
        assert [replay.gen_commands(6), replay.gen_commands(4)] == batches

    def test_auth_error_leaves_logged_lines_on_disk(self, tmp_path):
        log = tmp_path / "log.jsonl"
        transport = ScriptedTransport(
            ["ls -la", "du -sh x", "sort b.txt", "list files", L.AuthError("401"),
             "sort lines"]
        )
        session = L.LlmSession(L.LlmConfig(concurrency=3), transport, log_path=log)
        with pytest.raises(L.AuthError):
            session.pipeline(3)
        assert len(_lines(log)) >= 4  # 3 generations, 1 or 2 translations
