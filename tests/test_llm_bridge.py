from __future__ import annotations

import json

import pytest
import requests

from bashsynth import bash_ast
from bashsynth import llm_bridge as L

from conftest import REPLAY_TRANSLATIONS, make_replay_entries


class FailingTransport:
    supports_concurrency = True

    def __init__(self, error):
        self.error = error
        self.calls = 0

    def send(self, payload):
        self.calls += 1
        raise self.error


class ScriptedTransport:
    supports_concurrency = True

    def __init__(self, responses):
        self.responses = list(responses)

    def send(self, payload):
        return self.responses.pop(0)


def _session(entries):
    return L.LlmSession(L.LlmConfig(), L.ReplayTransport(entries))


class TestConfig:
    def test_temperature_defaults(self):
        config = L.LlmConfig()
        assert config.gen_temperature == 1.0
        assert config.translate_temperature == 0.0

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            L.LlmConfig(gen_temperature=3.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            L.LlmConfig(max_retries=-1)


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

    def test_transport_failures_skipped_after_retries(self):
        transport = FailingTransport(L.TransportError("boom"))
        session = L.LlmSession(
            L.LlmConfig(max_retries=1, backoff=0.0, concurrency=1), transport
        )
        assert session.gen_commands(2) == []
        assert transport.calls == 4  # 2 prompts x (1 try + 1 retry)
        assert all(e.error for e in session.audit)


class TestHttpTransport:
    def test_non_json_200_is_retried(self, monkeypatch):
        def reply(body: bytes):
            resp = requests.Response()
            resp.status_code = 200
            resp._content = body
            return resp

        good = {"choices": [{"message": {"content": "list files"}}]}
        replies = [reply(b"<html>busy</html>"), reply(json.dumps(good).encode())]
        monkeypatch.setattr(requests, "post", lambda *a, **kw: replies.pop(0))
        session = L.LlmSession(
            L.LlmConfig(endpoint="http://localhost:9/v1", backoff=0.0)
        )
        assert session.backtranslate("ls") == "list files"
        assert [e.attempt for e in session.audit] == [1, 2]
        assert "non-JSON" in session.audit[0].error
        assert session.audit[1].error is None


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

    def test_uses_translation_temperature(self, replay_entries):
        session = _session(replay_entries)
        session.backtranslate("ls -la")
        assert session.audit[-1].temperature == 0.0


class TestPipeline:
    def test_stub_run_emits_five_records(self, replay_entries):
        session = _session(replay_entries)
        records = session.pipeline(10)
        assert len(records) == 5
        assert all(r.source == "llm" for r in records)
        for record in records:
            bash_ast.parse(record.cmd)  # every survivor parses
            assert record.nl == REPLAY_TRANSLATIONS[record.cmd]

    def test_dedup_precedes_backtranslation(self, replay_entries):
        session = _session(replay_entries)
        session.pipeline(10)
        translated = [e for e in session.audit if e.task == "backtranslate"]
        assert len(translated) == 5  # never pays for duplicates

    def test_n_zero(self, replay_entries):
        assert _session(replay_entries).pipeline(0) == []

    def test_audit_log_complete(self, replay_entries, tmp_path):
        session = _session(replay_entries)
        session.pipeline(10)
        assert len(session.audit) == 15  # 10 generations + 5 translations
        audit_path = tmp_path / "audit.jsonl"
        session.write_audit(audit_path)
        lines = audit_path.read_text().splitlines()
        assert len(lines) == 15
        for line in lines:
            entry = json.loads(line)
            assert {"task", "prompt", "response", "latency", "attempt"} <= entry.keys()

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


class TestRecordingTransport:
    def test_records_exchanges(self, tmp_path):
        inner = ScriptedTransport(["response one"])
        log = tmp_path / "rec.jsonl"
        transport = L.RecordingTransport(inner, log)
        payload = {"model": "m", "messages": [], "temperature": 1.0}
        assert transport.send(payload) == "response one"
        entry = json.loads(log.read_text().splitlines()[0])
        assert entry["request"] == payload
        assert entry["response"] == "response one"

    def test_recorded_log_replays(self, tmp_path):
        inner = ScriptedTransport(["echo hi"])
        log = tmp_path / "rec.jsonl"
        recording = L.RecordingTransport(inner, log)
        payload = {
            "model": "default",
            "messages": [{"role": "user", "content": L.GENERATION_PROMPT}],
            "temperature": 1.0,
        }
        live = recording.send(payload)
        replayed = L.ReplayTransport(log).send(payload)
        assert replayed == live
