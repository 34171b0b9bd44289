from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from bashsynth.llm_bridge import GENERATION_PROMPT, TRANSLATION_PROMPT, TransportError
from bashsynth.syntax_kb import SyntaxKb

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def kb() -> SyntaxKb:
    return SyntaxKb.load()


@pytest.fixture(scope="session")
def hints(kb):
    return kb.parser_hints()


@pytest.fixture(scope="session")
def corpus_lines() -> list[str]:
    lines = [
        line
        for line in (DATA_DIR / "corpus.txt").read_text().splitlines()
        if line.strip()
    ]
    assert len(lines) >= 200
    return lines


def _request(prompt: str, temperature: float) -> dict:
    return {
        "model": "default",
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }


REPLAY_TRANSLATIONS = {
    "ls -la": "list all files including hidden ones in long format",
    "find . -name '*.txt'": "find all text files under the current directory",
    "grep -w foo a.txt": "search for the whole word foo in a.txt",
    "du -sh tree": "show the total size of the tree directory",
    "sort -r b.txt": "sort the lines of b.txt in reverse order",
}


def make_replay_entries() -> list[dict]:
    """Stub exchange log: 10 generation responses (2 duplicates, 3 that do
    not parse) plus back-translations for the 5 survivors."""
    gen_responses = [
        "```bash\nls -la\n```",
        "find . -name '*.txt'",
        "ls -la",
        "| sort",
        "$ grep -w foo a.txt",
        'echo "unclosed',
        "`du -sh tree`",
        "find . -name '*.txt'",
        "(cd abc && ls)",
        "sort -r b.txt",
    ]
    entries = [
        {"request": _request(GENERATION_PROMPT, 1.0), "response": r}
        for r in gen_responses
    ]
    for cmd, nl in REPLAY_TRANSLATIONS.items():
        entries.append(
            {"request": _request(f"{TRANSLATION_PROMPT}: {cmd}", 0.0), "response": nl}
        )
    return entries


@pytest.fixture
def replay_entries() -> list[dict]:
    return make_replay_entries()


class SlowTransport:
    """Answers after a short sleep and counts calls in flight.

    Generation prompts get ``generations`` in turn; a translation prompt
    gets ``nl: <command>``, or raises at once for a command in ``fail``.
    A command in ``busy`` gets a 503 on its first attempt, asking to wait
    ``retry_after`` seconds (None: no ``Retry-After``); that 503 comes only
    once ``fail`` commands have been sent ``hold`` times in all. For each
    translation started while a busy command waits to be retried,
    ``during_wait`` holds the command and the translations then in flight.
    Of every three generations, and of every three translations, started,
    the first sleeps longest, so replies come back out of order.
    """

    def __init__(self, generations=(), fail=(), delay=0.02, busy=(), retry_after=None,
                 hold=0):
        self.generations = list(generations)
        self.fail = set(fail)
        self.delay = delay
        self.busy = set(busy)
        self.retry_after = retry_after
        self.hold = hold
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.generated = 0
        self.started: list[str] = []  # translated commands, in start order
        self.failed = 0  # sends of fail commands
        self.held = threading.Event()  # set once failed reaches hold
        if hold == 0:
            self.held.set()
        self.waiting: set[str] = set()  # busy commands waiting to be retried
        self.during_wait: list[tuple[str, int]] = []

    def _sleep(self, position: int) -> None:
        time.sleep(self.delay * (3 - position % 3))

    def send(self, payload, index=None):
        prompt = payload["messages"][0]["content"]
        if prompt == GENERATION_PROMPT:
            with self.lock:
                position = self.generated
                self.generated += 1
                reply = self.generations.pop(0)
            self._sleep(position)
            return reply
        cmd = prompt.split(": ", 1)[1]
        with self.lock:
            position = len(self.started)
            self.started.append(cmd)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.waiting.discard(cmd)
            if self.waiting:
                self.during_wait.append((cmd, self.in_flight))
            busy = cmd in self.busy
            self.busy.discard(cmd)
            if cmd in self.fail:
                self.failed += 1
                if self.failed >= self.hold:
                    self.held.set()
        try:
            if cmd in self.fail:
                raise TransportError(f"no translation for {cmd}")
            if busy:
                self.held.wait(timeout=5)
                raise TransportError("endpoint returned 503", self.retry_after)
            self._sleep(position)
            return f"nl: {cmd}"
        finally:
            with self.lock:
                self.in_flight -= 1
                if busy:
                    self.waiting.add(cmd)


COMMANDS = [f"echo {i}" for i in range(12)]


_TEMPLATE = '{"id": "a", "cmd": "ls", "utilities": %s, "flags": []}'

# (reader, subcommand, a good line, a malformed line): each malformed line
# goes to the subcommand's input as line 2, after the good line.
MALFORMED_LINES = [
    pytest.param("read_predictions", "score", '{"cmd": "ls"}', "not json",
                 id="pred-not-json"),
    pytest.param("read_predictions", "score", '{"cmd": "ls"}', '["ls"]', id="pred-list"),
    pytest.param("read_predictions", "score", '{"cmd": "ls"}', '{"nl": "list"}',
                 id="pred-no-cmd"),
    pytest.param("read_predictions", "score", '{"cmd": "ls"}',
                 '{"candidates": [{"confidence": 1}]}', id="candidate-no-cmd"),
    pytest.param("read_predictions", "score", '{"cmd": "ls"}',
                 '{"candidates": [{"cmd": "ls", "confidence": "high"}]}',
                 id="candidate-text-confidence"),
    pytest.param("read_exchanges", "backtranslate",
                 '{"request": {"model": "default"}, "response": "x"}',
                 '{"response": "x"}', id="exchange-no-request"),
    pytest.param("read_exchanges", "backtranslate",
                 '{"request": {"model": "default"}, "response": "x"}',
                 '{"request": {}, "response": "", "error": 5}', id="exchange-error-number"),
    pytest.param("read_exchanges", "backtranslate",
                 '{"request": {"model": "default"}, "response": "x"}',
                 '{"request": {}, "response": "x", "attempt": "1"}', id="exchange-attempt-text"),
    pytest.param("read_templates", "scale", _TEMPLATE % '["ls"]', _TEMPLATE % "null",
                 id="utilities-null"),
    pytest.param("read_templates", "scale", _TEMPLATE % '["ls"]', _TEMPLATE % '"find"',
                 id="utilities-string"),
    pytest.param("read_records", "split", '{"nl": "list", "cmd": "ls"}',
                 '{"nl": "list", "cmd": ["ls"]}', id="record-cmd-list"),
    pytest.param("read_records", "split", '{"nl": "list", "cmd": "ls"}',
                 '{"nl": "list", "cmd": "ls", "valid": "yes"}', id="record-valid-text"),
]
