"""Client for a chat-completion HTTP endpoint, with offline replay.

Drives the streamlined generation pipeline: prompt-driven command
generation at temperature 1, dedup, parse filtering, then back-translation
to English at temperature 0. Every network exchange lands in an audit log;
a recorded log replays byte-for-byte without network access, which is how
the test suite runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import requests

from . import bash_ast
from .dataset_io import DatasetRecord, record_to_json
from .generator import dedup

__all__ = [
    "AuthError",
    "TransportError",
    "LlmConfig",
    "LlmExchange",
    "HttpTransport",
    "ReplayTransport",
    "RecordingTransport",
    "LlmSession",
    "GENERATION_PROMPT",
    "TRANSLATION_PROMPT",
]

GENERATION_PROMPT = "Generate bash command and do not include example"
TRANSLATION_PROMPT = "Translate to English"


class AuthError(RuntimeError):
    """Endpoint rejected the credentials."""


class TransportError(RuntimeError):
    """Request failed after exhausting retries, or replay had no answer."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str = ""
    model: str = "default"
    auth_env: str = "LLM_API_KEY"
    gen_temperature: float = 1.0
    translate_temperature: float = 0.0
    request_timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 0.5
    requests_per_minute: int | None = None
    concurrency: int = 4

    def __post_init__(self) -> None:
        for temp in (self.gen_temperature, self.translate_temperature):
            if not 0.0 <= temp <= 2.0:
                raise ValueError(f"temperature {temp} outside [0, 2]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


@dataclass(frozen=True)
class LlmExchange:
    task: str
    prompt: str
    response: str
    latency: float
    attempt: int
    temperature: float
    error: str | None = None


def _request_key(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


class Transport(Protocol):
    supports_concurrency: bool

    def send(self, payload: dict) -> str: ...


class HttpTransport:
    """POST {model, messages, temperature}; bearer token from env."""

    supports_concurrency = True

    def __init__(self, config: LlmConfig):
        self._config = config

    def send(self, payload: dict) -> str:
        token = os.environ.get(self._config.auth_env, "")
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            resp = requests.post(
                self._config.endpoint,
                json=payload,
                headers=headers,
                timeout=self._config.request_timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint returned {resp.status_code}")
        if resp.status_code >= 400:
            raise TransportError(f"endpoint returned {resp.status_code}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise TransportError(f"endpoint returned a non-JSON body: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc


class ReplayTransport:
    """Serve canned responses keyed by request content, FIFO per key."""

    supports_concurrency = False

    def __init__(self, exchanges: Sequence[dict] | str | Path):
        if isinstance(exchanges, (str, Path)):
            exchanges = [
                json.loads(line)
                for line in Path(exchanges).read_text(encoding="utf-8").split("\n")
                if line.strip()
            ]
        self._queues: dict[str, deque[str]] = {}
        for entry in exchanges:
            key = _request_key(entry["request"])
            self._queues.setdefault(key, deque()).append(entry["response"])
        self._lock = threading.Lock()

    def send(self, payload: dict) -> str:
        key = _request_key(payload)
        with self._lock:
            queue = self._queues.get(key)
            if not queue:
                raise TransportError(
                    f"replay log has no response for request {key[:12]}"
                )
            return queue.popleft()


class RecordingTransport:
    """Wrap a live transport and append request/response pairs to a log."""

    def __init__(self, inner: Transport, path: str | Path):
        self._inner = inner
        self._path = Path(path)
        self._lock = threading.Lock()
        self.supports_concurrency = inner.supports_concurrency

    def send(self, payload: dict) -> str:
        response = self._inner.send(payload)
        line = json.dumps({"request": payload, "response": response}, ensure_ascii=False)
        with self._lock:
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return response


def _extract_command(text: str) -> str:
    """Normalize one completion into a single command line."""
    text = text.strip()
    if "```" in text:
        parts = text.split("```")
        if len(parts) >= 2:
            block = parts[1]
            lines = block.splitlines()
            if lines and lines[0].strip().lower() in ("bash", "sh", "shell", ""):
                lines = lines[1:]
            text = "\n".join(lines).strip()
    for line in text.splitlines():
        line = line.strip().strip("`")
        if line.startswith("$ "):
            line = line[2:]
        if line:
            return line
    return ""


class LlmSession:
    """One configured connection: retries, rate limiting, audit trail."""

    def __init__(self, config: LlmConfig, transport: Transport | None = None):
        self.config = config
        self.transport = transport if transport is not None else HttpTransport(config)
        self.audit: list[LlmExchange] = []
        self._audit_lock = threading.Lock()
        self._pace_lock = threading.Lock()
        self._last_call = 0.0

    def _pace(self) -> None:
        if not self.config.requests_per_minute:
            return
        interval = 60.0 / self.config.requests_per_minute
        with self._pace_lock:
            wait = self._last_call + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_call = time.monotonic()

    def _call(self, task: str, prompt: str, temperature: float) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(1, attempts + 1):
            self._pace()
            start = time.perf_counter()
            try:
                response = self.transport.send(payload)
            except AuthError:
                raise
            except TransportError as exc:
                last_error = exc
                self._log(task, prompt, "", start, attempt, temperature, str(exc))
                if attempt < attempts:
                    time.sleep(self.config.backoff * attempt)
                continue
            self._log(task, prompt, response, start, attempt, temperature, None)
            return response
        raise TransportError(f"{task}: retries exhausted: {last_error}")

    def _log(
        self,
        task: str,
        prompt: str,
        response: str,
        start: float,
        attempt: int,
        temperature: float,
        error: str | None,
    ) -> None:
        exchange = LlmExchange(
            task=task,
            prompt=prompt,
            response=response,
            latency=time.perf_counter() - start,
            attempt=attempt,
            temperature=temperature,
            error=error,
        )
        with self._audit_lock:
            self.audit.append(exchange)

    def write_audit(self, path: str | Path) -> None:
        lines = [
            json.dumps(
                {
                    "task": e.task,
                    "prompt": e.prompt,
                    "response": e.response,
                    "latency": round(e.latency, 6),
                    "attempt": e.attempt,
                    "temperature": e.temperature,
                    "error": e.error,
                },
                ensure_ascii=False,
            )
            for e in self.audit
        ]
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )

    # ------------------------------------------------------------------

    def gen_commands(self, n: int) -> list[str]:
        """Collect up to n generated commands; failed calls are skipped."""
        if n < 0:
            raise ValueError("n must be >= 0")

        def one(_: int) -> str | None:
            try:
                return _extract_command(
                    self._call("generate", GENERATION_PROMPT, self.config.gen_temperature)
                )
            except TransportError:
                return None

        if self.transport.supports_concurrency and self.config.concurrency > 1:
            with ThreadPoolExecutor(max_workers=self.config.concurrency) as pool:
                raw = list(pool.map(one, range(n)))
        else:
            raw = [one(i) for i in range(n)]
        return [cmd for cmd in raw if cmd]

    def backtranslate(self, cmd: str) -> str:
        """English description of one command, at the deterministic temperature."""
        if not cmd or not cmd.strip():
            raise ValueError("command must be non-empty")
        prompt = f"{TRANSLATION_PROMPT}: {cmd}"
        response = self._call(
            "backtranslate", prompt, self.config.translate_temperature
        )
        for line in response.strip().splitlines():
            if line.strip():
                return line.strip()
        return response.strip()

    def pipeline(self, n: int, out_path: str | Path | None = None) -> list[DatasetRecord]:
        """generate -> dedup -> parse filter -> backtranslate -> records."""
        commands = self.gen_commands(n)
        unique = dedup(commands).commands
        survivors = []
        for cmd in unique:
            try:
                bash_ast.parse(cmd)
            except bash_ast.ParseError:
                continue
            survivors.append(cmd)

        records: list[DatasetRecord] = []
        out_file = Path(out_path).open("w", encoding="utf-8") if out_path else None
        try:
            for cmd in survivors:
                record = DatasetRecord(
                    nl=self.backtranslate(cmd), cmd=cmd, source="llm"
                )
                records.append(record)
                if out_file is not None:
                    out_file.write(record_to_json(record) + "\n")
                    out_file.flush()
        finally:
            if out_file is not None:
                out_file.close()
        return records

