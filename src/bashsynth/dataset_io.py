"""Line-delimited dataset files, corpus statistics, and seeded splits.

Record schema: one JSON object per line with fields ``nl``, ``cmd``,
``source`` (original | generated | llm) and optional ``valid``. Template
corpora (generator output) use ``id``, ``cmd``, ``utilities``, ``flags``,
``pipe_partner``; ``read_commands`` reads the ``cmd`` of either kind. A
converter accepts the classic two-file layout of one sentence file plus one
command file matched by line number.
"""

from __future__ import annotations

import json
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import bash_ast

__all__ = [
    "FormatError",
    "DatasetRecord",
    "TemplateEntry",
    "read_records",
    "write_records",
    "read_two_file",
    "read_commands",
    "read_templates",
    "write_templates",
    "CorpusStats",
    "stats",
    "split_records",
]

log = logging.getLogger(__name__)

SOURCES = ("original", "generated", "llm")


class FormatError(ValueError):
    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        where = f"{path}:{line}: " if path is not None and line is not None else ""
        super().__init__(f"{where}{message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class DatasetRecord:
    nl: str
    cmd: str
    source: str = "original"
    valid: bool | None = None

    def __post_init__(self) -> None:
        if not self.nl:
            raise ValueError("nl must be non-empty")
        if not self.cmd:
            raise ValueError("cmd must be non-empty")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")


@dataclass(frozen=True)
class TemplateEntry:
    id: str
    cmd: str
    utilities: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    pipe_partner: str | None = None

    def render(self) -> str:
        # The template text; callers written for rendering generator output
        # (the benchmark's exec population among them) call this.
        return self.cmd


def record_to_json(record: DatasetRecord) -> str:
    return json.dumps(
        {"nl": record.nl, "cmd": record.cmd, "source": record.source,
         "valid": record.valid},
        ensure_ascii=False,
    )


def read_records(path: str | Path, strict: bool = True) -> list[DatasetRecord]:
    """Read dataset records; malformed lines are fatal unless strict=False."""
    records: list[DatasetRecord] = []
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            if "nl" not in obj:
                raise ValueError("missing field 'nl'")
            if "cmd" not in obj:
                raise ValueError("missing field 'cmd'")
            records.append(
                DatasetRecord(
                    nl=str(obj["nl"]),
                    cmd=str(obj["cmd"]),
                    source=str(obj.get("source", "original")),
                    valid=obj.get("valid"),
                )
            )
        except ValueError as exc:
            if strict:
                raise FormatError(str(exc), path, lineno) from None
            log.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
    return records


def write_records(records: Iterable[DatasetRecord], path: str | Path) -> None:
    lines = [record_to_json(r) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_two_file(nl_path: str | Path, cmd_path: str | Path,
                  source: str = "original") -> list[DatasetRecord]:
    """Convert the two-file layout (sentences + commands by line number)."""
    nl_lines = Path(nl_path).read_text(encoding="utf-8").splitlines()
    cmd_lines = Path(cmd_path).read_text(encoding="utf-8").splitlines()
    if len(nl_lines) != len(cmd_lines):
        raise FormatError(
            f"line counts differ: {len(nl_lines)} sentences vs {len(cmd_lines)} commands",
            nl_path,
        )
    records = []
    for lineno, (nl, cmd) in enumerate(zip(nl_lines, cmd_lines), 1):
        if not nl.strip() or not cmd.strip():
            raise FormatError("empty sentence or command", nl_path, lineno)
        records.append(DatasetRecord(nl=nl.strip(), cmd=cmd.strip(), source=source))
    return records


# ---------------------------------------------------------------------------
# Template corpora


def write_templates(entries: Iterable[TemplateEntry], path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "id": entry.id,
                "cmd": entry.cmd,
                "utilities": list(entry.utilities),
                "flags": list(entry.flags),
                "pipe_partner": entry.pipe_partner,
            },
            ensure_ascii=False,
        )
        for entry in entries
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_templates(path: str | Path) -> list[TemplateEntry]:
    entries: list[TemplateEntry] = []
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            entries.append(
                TemplateEntry(
                    id=str(obj["id"]),
                    cmd=str(obj["cmd"]),
                    utilities=tuple(obj.get("utilities", ())),
                    flags=tuple(obj.get("flags", ())),
                    pipe_partner=obj.get("pipe_partner"),
                )
            )
        except (ValueError, KeyError) as exc:
            raise FormatError(f"bad template entry: {exc}", path, lineno) from None
    return entries


def read_commands(path: str | Path) -> list[str]:
    """The ``cmd`` of every line of a record or a template file."""
    commands: list[str] = []
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            commands.append(str(json.loads(line)["cmd"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"line has no command: {exc!r}", path, lineno) from None
    return commands


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class CorpusStats:
    total: int
    parseable: int
    unparseable: int
    piped: int
    distinct_utilities: int
    utility_counts: Mapping[str, int] = field(default_factory=dict)
    flag_count_hist: Mapping[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "parseable": self.parseable,
            "unparseable": self.unparseable,
            "piped": self.piped,
            "distinct_utilities": self.distinct_utilities,
            "utility_counts": dict(self.utility_counts),
            "flag_count_hist": {str(k): v for k, v in sorted(self.flag_count_hist.items())},
        }


def stats(
    records: Sequence[DatasetRecord | str],
    hints=None,
) -> CorpusStats:
    """Corpus totals, pipe counts, utility histogram, flag-count histogram.

    Utilities are counted across all pipeline stages (including nested
    commands); unparseable commands are counted separately.
    """
    utility_counts: Counter[str] = Counter()
    flag_hist: Counter[int] = Counter()
    piped = 0
    unparseable = 0
    for item in records:
        cmd = item.cmd if isinstance(item, DatasetRecord) else str(item)
        try:
            ast = bash_ast.parse(cmd, hints)
        except bash_ast.ParseError:
            unparseable += 1
            continue
        if len(ast.stages) > 1:
            piped += 1
        for node in ast.walk_utilities():
            utility_counts[node.name] += 1
            flag_hist[len(node.flags)] += 1
    return CorpusStats(
        total=len(records),
        parseable=len(records) - unparseable,
        unparseable=unparseable,
        piped=piped,
        distinct_utilities=len(utility_counts),
        utility_counts=dict(utility_counts.most_common()),
        flag_count_hist=dict(flag_hist),
    )


def split_records(
    records: Sequence, fraction: float = 0.8, seed: int = 0
) -> tuple[list, list]:
    """Disjoint, exhaustive, seeded-shuffle split; train gets floor(n*f)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    indices = list(range(len(records)))
    random.Random(seed).shuffle(indices)
    cut = int(len(records) * fraction)
    train = [records[i] for i in indices[:cut]]
    test = [records[i] for i in indices[cut:]]
    return train, test
