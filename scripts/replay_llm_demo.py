#!/usr/bin/env python3
"""Offline LLM pipeline demo against an in-memory stub transport.

Shows the generate -> dedup -> parse-filter -> backtranslate flow without
any network access. The session appends every exchange to a log in a
temporary directory, and the demo prints the audit trail read back from
that log. It then replays the log into a second log and exits 1 unless the
replay gives the same records and the same exchange lines, latency aside.

Run: PYTHONPATH=src python scripts/replay_llm_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from bashsynth.dataset_io import read_exchanges
from bashsynth.llm_bridge import (
    GEN_TEMPERATURE,
    GENERATION_PROMPT,
    TRANSLATE_TEMPERATURE,
    TRANSLATION_PROMPT,
    LlmConfig,
    LlmSession,
    ReplayTransport,
)


def _request(prompt: str, temperature: float) -> dict:
    return {
        "model": "default",
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }


def _without_latency(exchanges: list[dict]) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "latency"} for e in exchanges]


GENERATIONS = [
    "ls -la",
    "find /var/log -name '*.log'",
    "du -sh /tmp",
    "ls -la",             # duplicate, dropped before translation
    "| wc -l",            # no utility, dropped by the parse filter
    "sort -u names.txt",
]

TRANSLATIONS = {
    "ls -la": "list all files in long format including hidden ones",
    "find /var/log -name '*.log'": "find log files under /var/log",
    "du -sh /tmp": "print the total size of /tmp",
    "sort -u names.txt": "sort names.txt dropping duplicate lines",
}


def main() -> int:
    entries = [{"request": _request(GENERATION_PROMPT, GEN_TEMPERATURE), "response": g}
               for g in GENERATIONS]
    entries += [
        {"request": _request(f"{TRANSLATION_PROMPT}: {cmd}", TRANSLATE_TEMPERATURE),
         "response": nl}
        for cmd, nl in TRANSLATIONS.items()
    ]

    with tempfile.TemporaryDirectory() as tmp:
        log, replay_log = Path(tmp) / "exchanges.jsonl", Path(tmp) / "replayed.jsonl"
        session = LlmSession(LlmConfig(), ReplayTransport(entries), log_path=log)
        records = session.pipeline(len(GENERATIONS))
        replay = LlmSession(LlmConfig(), ReplayTransport(log), log_path=replay_log)
        replayed = replay.pipeline(len(GENERATIONS))
        trail, replayed_trail = read_exchanges(log), read_exchanges(replay_log)

    print(f"{len(GENERATIONS)} prompts -> {len(records)} records\n")
    for record in records:
        print(f"  {record.cmd:<35} {record.nl}")

    print(f"\naudit trail ({len(trail)} exchanges):")
    for exchange in trail:
        print(f"  [{exchange['task']} #{exchange['index']}] "
              f"t={exchange['request']['temperature']} "
              f"attempt={exchange['attempt']} -> {exchange['response'][:50]!r}")

    if replayed != records:
        print("\nreplaying the exchange log gave different records")
        return 1
    if _without_latency(replayed_trail) != _without_latency(trail):
        print("\nreplaying the exchange log gave different exchanges")
        return 1
    print(f"\nreplaying the exchange log gave the same {len(records)} records "
          f"and {len(trail)} exchanges")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
