"""Client for a chat-completion HTTP endpoint, with offline replay.

Drives the streamlined generation pipeline: prompt-driven command
generation at temperature 1, dedup, parse filtering, then back-translation
to English at temperature 0. ``HttpTransport`` sends one JSON POST per
attempt through ``urllib.request``. A session appends every attempt to one
exchange log as it completes; that log replays byte-for-byte without network
access, which is how most of the test suite runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

from . import bash_ast
from .dataset_io import DatasetRecord, encode_line, read_exchanges
from .generator import dedup

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = [
    "AuthError",
    "TransportError",
    "LlmConfig",
    "HttpTransport",
    "ReplayTransport",
    "LlmSession",
    "GENERATION_PROMPT",
    "GEN_TEMPERATURE",
    "TRANSLATION_PROMPT",
    "TRANSLATE_TEMPERATURE",
    "AUTH_ENV",
]

GENERATION_PROMPT = "Generate bash command and do not include example"
GEN_TEMPERATURE = 1.0
TRANSLATION_PROMPT = "Translate to English"
TRANSLATE_TEMPERATURE = 0.0
AUTH_ENV = "LLM_API_KEY"  # the bearer token, when set


class AuthError(RuntimeError):
    """Endpoint rejected the credentials."""


class TransportError(RuntimeError):
    """Request failed after exhausting retries, or replay had no answer.

    ``retry_after`` holds the seconds a 429 or 5xx reply asked the client to
    wait in its ``Retry-After`` header, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str = ""
    model: str = "default"
    request_timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 0.5
    requests_per_minute: int | None = None
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.requests_per_minute is not None and self.requests_per_minute < 1:
            raise ValueError("requests_per_minute must be >= 1")


def _request_key(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


class Transport(Protocol):
    """``index`` is the batch item a call is for, or None; a replay reads it."""

    def send(self, payload: dict, index: int | None = None) -> str: ...


class HttpTransport:
    """POST {model, messages, temperature}; bearer token from ``AUTH_ENV``.
    A 401 or 403 raises AuthError; any other failure, a reply without a
    string ``choices[0].message.content`` included, raises TransportError."""

    def __init__(self, config: LlmConfig):
        self._config = config

    def send(self, payload: dict, index: int | None = None) -> str:
        # imported here, so a process that sends nothing never loads them
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_ENV, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        data = json.dumps(payload).encode("utf-8")
        try:
            request = urllib.request.Request(self._config.endpoint, data, headers)
            timeout = self._config.request_timeout
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code in (401, 403):
                raise AuthError(f"endpoint returned {exc.code}") from None
            retry_after = None
            if exc.code == 429 or exc.code >= 500:
                retry_after = _retry_after_seconds(exc.headers.get("Retry-After"))
            raise TransportError(f"endpoint returned {exc.code}", retry_after) from None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # URLError and timeouts are OSErrors; a malformed URL is a ValueError
            raise TransportError(str(exc)) from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, RecursionError) as exc:
            raise TransportError(f"endpoint returned a non-JSON body: {exc}") from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"malformed completion response: content {content!r:.60}")
        return content


def _retry_after_seconds(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header; None for a missing value or the
    HTTP-date form."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class ReplayTransport:
    """Serve canned responses keyed by request content and item index.

    Entries are exchange-log lines (a log file is read through
    ``dataset_io.read_exchanges``) or hand-written ``{request, response}``
    pairs. Each (request, index) pair is served in log order, so a
    concurrent run, logged in completion order, and several batches of one
    prompt replay as they ran. A call with no line left at its index takes
    the request's next unindexed line. A failed attempt (``error`` not
    null) replays as the same failure: ``send`` raises TransportError.
    """

    def __init__(self, exchanges: Sequence[dict] | str | Path):
        if isinstance(exchanges, (str, Path)):
            exchanges = read_exchanges(exchanges)
        self._queues: dict[tuple[str, int | None], deque[dict]] = {}
        for entry in exchanges:
            key = (_request_key(entry["request"]), entry.get("index"))
            self._queues.setdefault(key, deque()).append(entry)
        self._lock = threading.Lock()

    def send(self, payload: dict, index: int | None = None) -> str:
        key = _request_key(payload)
        with self._lock:
            queue = self._queues.get((key, index)) or self._queues.get((key, None))
            if not queue:
                raise TransportError(
                    f"replay log has no response for request {key[:12]}"
                )
            entry = queue.popleft()
        if entry.get("error") is not None:
            raise TransportError(entry["error"])
        return entry["response"]


def _extract_command(text: str) -> str:
    """Normalize one completion into a single command line."""
    text = text.strip()
    if "```" in text:
        lines = text.split("```")[1].splitlines()
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


class _Item(threading.local):
    """What ``_map_ordered`` tells ``_call`` about the calling thread."""

    index: int | None = None  # the batch item the thread is on
    cut: Callable[[], bool] | None = None  # true once an earlier item failed
    slot = False  # whether the thread holds one of the session's slots


class LlmSession:
    """One configured connection: retries, rate limiting, exchange log.

    ``config.concurrency`` bounds the session's requests in flight: a
    request holds one of that many slots while it paces and is sent.

    With ``log_path`` (truncated once), every attempt becomes one
    exchange-log line, appended the moment it completes, so a killed run
    keeps every finished exchange. The log is the session's only record of
    its exchanges. ReplayTransport reads it back; a session replaying it
    runs its items one at a time and sleeps for neither backoff nor pacing.
    """

    def __init__(
        self,
        config: LlmConfig,
        transport: Transport | None = None,
        log_path: str | Path | None = None,
    ):
        self.config = config
        self.transport = transport if transport is not None else HttpTransport(config)
        # A replay contacts no endpoint, so there is nothing to wait for, and
        # serves unindexed lines in the order calls arrive, so it runs serially.
        self._replay = isinstance(self.transport, ReplayTransport)
        self._log_path = Path(log_path) if log_path is not None else None
        if self._log_path is not None:
            self._log_path.write_text("", encoding="utf-8")
        self._log_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(config.concurrency)
        self._item = _Item()
        self._pace_lock = threading.Lock()
        self._last_call = 0.0

    def _pace(self) -> None:
        if self.config.requests_per_minute is None or self._replay:
            return
        interval = 60.0 / self.config.requests_per_minute
        with self._pace_lock:
            wait = self._last_call + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_call = time.monotonic()

    def _take_slot(self) -> None:
        """Hold a slot; on a batch item, raise TransportError instead once
        an earlier item has failed, so the item sends nothing."""
        item = self._item
        if not item.slot:
            self._slots.acquire()
            item.slot = True
        if item.cut is not None and item.cut():
            raise TransportError("not sent: an earlier item failed")

    def _free_slot(self) -> None:
        if self._item.slot:
            self._item.slot = False
            self._slots.release()

    def _call(self, task: str, prompt: str, temperature: float) -> str:
        """Send one prompt, retrying a TransportError up to ``max_retries``
        times; raise TransportError once every attempt has failed.

        Each attempt holds a slot while it paces and is sent. A plain
        ``backoff × attempt`` wait holds none, so another request can use it;
        a wait the endpoint asked for with ``Retry-After`` keeps its slot,
        so the endpoint sees no more load while this client waits. On a
        batch item the last slot is freed by ``_map_ordered`` once the
        item's outcome is recorded; otherwise when the call returns.
        """
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        index = self._item.index
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        try:
            for attempt in range(1, attempts + 1):
                self._take_slot()
                self._pace()
                start = time.perf_counter()
                try:
                    response = self.transport.send(payload, index)
                except TransportError as exc:
                    last_error = exc
                    self._log(task, index, payload, "", start, attempt, str(exc))
                    if attempt < attempts and not self._replay:
                        wait = self.config.backoff * attempt
                        if exc.retry_after is None:
                            self._free_slot()
                        else:
                            # The endpoint's ask, capped so a reply cannot
                            # stall the run for longer than one request may take.
                            wait = max(wait, min(exc.retry_after,
                                                 self.config.request_timeout))
                        time.sleep(wait)
                    continue
                self._log(task, index, payload, response, start, attempt, None)
                return response
            raise TransportError(f"{task}: retries exhausted: {last_error}")
        finally:
            if self._item.cut is None:
                self._free_slot()

    def _log(
        self,
        task: str,
        index: int | None,
        payload: dict,
        response: str,
        start: float,
        attempt: int,
        error: str | None,
    ) -> None:
        if self._log_path is None:
            return
        line = {
            "task": task,
            "index": index,
            "attempt": attempt,
            "request": payload,
            "response": response,
            "error": error,
            "latency": round(time.perf_counter() - start, 6),
        }
        with self._log_lock, self._log_path.open("a", encoding="utf-8") as fh:
            fh.write(encode_line(line))

    def _map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[_R]:
        """Yield ``fn(item)`` for each item, in input order.

        The calls run in a pool of ``2 * concurrency - 1`` workers, or of one
        on a replay, and share the session's ``concurrency`` request slots:
        while one item backs off without a slot, a spare worker sends the
        next item's request. At ``concurrency=1`` the one worker runs the
        items strictly one after another. The first exception in input
        order propagates. Once a call has raised, no later item sends
        anything more: only the requests already in flight, at most
        ``concurrency - 1``, still finish. Each exchange an item's call
        makes is logged with the item's index.
        """
        failed_at = len(items)
        lock = threading.Lock()

        def guarded(index: int) -> _R | None:
            nonlocal failed_at
            if index > failed_at:
                return None  # never read: the failure at failed_at raises first
            item = self._item
            item.index, item.cut = index, lambda: failed_at < index
            try:
                return fn(items[index])
            except BaseException:
                with lock:
                    failed_at = min(failed_at, index)
                raise
            finally:
                # Freed only now, so no later item takes this slot and sends
                # before a failure here is recorded in failed_at.
                self._free_slot()
                item.index = item.cut = None

        workers = 1 if self._replay else 2 * self.config.concurrency - 1
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            yield from pool.map(guarded, range(len(items)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------

    def gen_commands(self, n: int) -> list[str]:
        """Collect up to n generated commands; failed calls are skipped."""
        if n < 0:
            raise ValueError("n must be >= 0")

        def one(_: int) -> str | None:
            try:
                return _extract_command(
                    self._call("generate", GENERATION_PROMPT, GEN_TEMPERATURE)
                )
            except TransportError:
                return None

        return [cmd for cmd in self._map_ordered(one, range(n)) if cmd]

    def backtranslate(self, cmd: str) -> str:
        """The first non-blank line of the reply, at the deterministic
        temperature; a blank reply raises TransportError naming ``cmd``."""
        if not cmd or not cmd.strip():
            raise ValueError("command must be non-empty")
        prompt = f"{TRANSLATION_PROMPT}: {cmd}"
        response = self._call("backtranslate", prompt, TRANSLATE_TEMPERATURE)
        for line in response.splitlines():
            if line.strip():
                return line.strip()
        raise TransportError(f"empty translation for {cmd!r}")

    def backtranslate_records(
        self, commands: Sequence[str], out_path: str | Path | None = None
    ) -> list[DatasetRecord]:
        """One ``source="llm"`` record per command, in input order.

        With ``out_path``, each record is written and flushed as soon as it
        and every earlier record are ready, so a failed run keeps every
        record before the first failed translation.
        """
        records: list[DatasetRecord] = []
        out_file = Path(out_path).open("w", encoding="utf-8") if out_path else None
        try:
            for index, nl in enumerate(self._map_ordered(self.backtranslate, commands)):
                record = DatasetRecord(nl=nl, cmd=commands[index], source="llm")
                records.append(record)
                if out_file is not None:
                    out_file.write(encode_line(record.as_dict()))
                    out_file.flush()
        finally:
            if out_file is not None:
                out_file.close()
        return records

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
        return self.backtranslate_records(survivors, out_path)
