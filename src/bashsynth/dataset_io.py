"""Line-delimited dataset files, corpus statistics, and seeded splits.

A line file is UTF-8 with one JSON object per line; blank lines are
skipped. ``read_lines`` is the only code that parses a line, and
``encode_line`` formats every line but a template line, which
``write_templates`` formats itself with the same string encoder: its bytes
are ``encode_line(entry.as_dict())``'s. Each typed reader adds its own
field checks, and a malformed line raises FormatError naming ``path:line``.

Records have ``nl``, ``cmd``, ``source`` (original | generated | llm) and
optional ``valid``; template corpora (generator output) have ``id``,
``cmd``, ``utilities``, ``flags``, ``pipe_partner``; ``read_templates``
shares equal ``utilities`` tuples, utility names, flag tokens and
``pipe_partner`` values across the entries it returns. ``read_commands``
reads the ``cmd`` of either kind, ``read_predictions`` a ``score``
prediction file and ``read_exchanges`` an LLM exchange log. ``read_json``,
``check_fields`` and ``check_object`` serve the JSON documents other
modules load (fixtures, manifest, profile, specs, ``--config``): a key
repeated in one object, a value of the wrong type, or a key outside a
closed schema, raises FormatError naming the file and the key.
``shipped`` is the path of a data file shipped with the package, the
default of each such input.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import bash_ast

__all__ = [
    "FormatError",
    "REQUIRED",
    "STRINGS",
    "check_fields",
    "check_object",
    "read_json",
    "shipped",
    "DatasetRecord",
    "TemplateEntry",
    "encode_line",
    "write_lines",
    "read_lines",
    "read_records",
    "write_records",
    "read_commands",
    "read_templates",
    "write_templates",
    "read_predictions",
    "read_exchanges",
    "CorpusStats",
    "stats",
    "split_records",
]

SOURCES = ("original", "generated", "llm")


class FormatError(ValueError):
    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        if path is not None:
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        super().__init__(message)
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

    def as_dict(self) -> dict:
        return {"nl": self.nl, "cmd": self.cmd, "source": self.source,
                "valid": self.valid}


@dataclass(slots=True)
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

    def as_dict(self) -> dict:
        return {"id": self.id, "cmd": self.cmd, "utilities": self.utilities,
                "flags": self.flags, "pipe_partner": self.pipe_partner}


# ---------------------------------------------------------------------------
# The line format

_ENCODER = json.JSONEncoder(ensure_ascii=False)
_DECODER = json.JSONDecoder()


def encode_line(obj: Mapping) -> str:
    return _ENCODER.encode(obj) + "\n"


def _write(lines: Iterable[str], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_lines(objects: Iterable[Mapping], path: str | Path) -> None:
    """Write each object as one line as it arrives."""
    _write(map(encode_line, objects), path)


def read_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line, one line at a time."""
    path = Path(path)
    scan = _DECODER.raw_decode
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                try:
                    obj, end = scan(line)
                except ValueError:
                    end = None
                # raw_decode skips json.loads' per-call checks and whitespace
                # scans. A line as the writers leave it is one value, then
                # its "\n"; json.loads decides any other (padded, blank or
                # not JSON) and words its error.
                if end is None or line[end:] not in ("\n", ""):
                    if not line.strip():
                        continue
                    obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise FormatError(f"not a JSON line: {exc}", path, lineno) from None
            if not isinstance(obj, dict):
                raise FormatError("line is not a JSON object", path, lineno)
            yield lineno, obj


# A schema maps each field to (test, what the test wants, default); a field
# without a default (REQUIRED) must be present.
REQUIRED = object()
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string", REQUIRED)
STRINGS = (lambda v: isinstance(v, list) and all(map(str.__instancecheck__, v)),
           "a list of strings", ())
_RECORD = {
    "nl": _TEXT,
    "cmd": _TEXT,
    "source": (SOURCES.__contains__, f"one of {SOURCES}", "original"),
    "valid": (lambda v: v is None or isinstance(v, bool), "true, false or null", None),
}
_TEMPLATE = {
    "id": _TEXT,
    "cmd": _TEXT,
    "utilities": STRINGS,
    "flags": STRINGS,
    "pipe_partner": (lambda v: v is None or isinstance(v, str), "a string or null", None),
}
_CANDIDATES = {"candidates": (
    lambda v: isinstance(v, list) and v and all(isinstance(c, dict) for c in v),
    "a non-empty list of objects", REQUIRED)}
_CANDIDATE = {
    "cmd": (lambda v: isinstance(v, str), "a string", REQUIRED),
    "confidence": (lambda v: type(v) in (int, float) and 0 <= v <= 1,
                   "a number in [0, 1]", 1.0),
}
_EXCHANGE = {
    "request": (lambda v: isinstance(v, dict), "an object", REQUIRED),
    "response": (lambda v: isinstance(v, str), "a string", REQUIRED),
    "index": (lambda v: v is None or type(v) is int, "an integer or null", None),
    "error": (lambda v: v is None or isinstance(v, str), "a string or null", None),
    "attempt": (lambda v: v is None or type(v) is int, "an integer or null", None),
}


def check_fields(obj: Mapping, schema: Mapping, path: str | Path | None = None,
                 lineno: int | None = None) -> list:
    """The schema's fields of ``obj``, in schema order; a missing or
    mistyped field raises FormatError naming ``path``, ``lineno`` and key."""
    values = []
    for key, (ok, want, default) in schema.items():
        if key not in obj:
            if default is REQUIRED:
                raise FormatError(f"missing field {key!r}", path, lineno)
            values.append(default)
        elif ok(obj[key]):
            values.append(obj[key])
        else:
            raise FormatError(f"{key!r} must be {want}, not {obj[key]!r:.60}",
                              path, lineno)
    return values


def check_object(obj: Mapping, schema: Mapping, path: str | Path | None = None) -> list:
    """``check_fields`` for an object that may hold no key outside the
    schema, so a misspelled key is refused, naming ``path`` and every such
    key in sorted order, rather than read as its field's default. Line
    files are not closed: exchange-log lines carry keys no reader checks."""
    unknown = sorted(key for key in obj if key not in schema)
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise FormatError(f"unknown field{plural} {', '.join(map(repr, unknown))}", path)
    return check_fields(obj, schema, path)


class _DuplicateKey(ValueError):
    pass


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return obj


def read_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; an object at any depth that
    repeats a key is refused, rather than read as the key's last value."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=_unique_keys)
    except _DuplicateKey as exc:
        raise FormatError(f"duplicate key {exc.args[0]!r}", path) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise FormatError(f"not JSON: {exc}", path) from None
    if not isinstance(data, dict):
        raise FormatError(f"top level must be a JSON object, got {type(data).__name__}",
                          path)
    return data


def shipped(name: str) -> Path:
    """The path of ``data/<name>``, a file shipped with the package."""
    return Path(__file__).parent / "data" / name


def _checked(path: str | Path, schema: dict) -> Iterator[list]:
    path = Path(path)
    return (check_fields(obj, schema, path, lineno) for lineno, obj in read_lines(path))


# ---------------------------------------------------------------------------
# Dataset records, template corpora, predictions and exchange logs


def read_records(path: str | Path) -> list[DatasetRecord]:
    return [DatasetRecord(*values) for values in _checked(path, _RECORD)]


def write_records(records: Iterable[DatasetRecord], path: str | Path) -> None:
    write_lines((r.as_dict() for r in records), path)


def read_templates(path: str | Path) -> list[TemplateEntry]:
    """The entries of a template file. Equal utility names, flag tokens,
    ``utilities`` tuples and ``pipe_partner`` values are one object across
    the entries: a file holds a few hundred distinct values, repeated on
    every line."""
    # A memo local to the call, not sys.intern: it keeps nothing alive beyond
    # the entries. Each line's flags tuple stays its own, as almost every
    # line's is distinct.
    share = {}.setdefault
    entries = []
    for id_, cmd, utilities, flags, partner in _checked(path, _TEMPLATE):
        utilities = tuple(map(share, utilities, utilities))
        entries.append(TemplateEntry(
            id_, cmd, share(utilities, utilities), tuple(map(share, flags, flags)),
            share(partner, partner)))
    return entries


def _template_line(e: TemplateEntry) -> str:
    # encode_line(e.as_dict()), byte for byte: encode_basestring is the
    # string encoder of a JSONEncoder(ensure_ascii=False)
    partner = "null" if e.pipe_partner is None else encode_basestring(e.pipe_partner)
    return (f'{{"id": {encode_basestring(e.id)}, "cmd": {encode_basestring(e.cmd)}, '
            f'"utilities": [{", ".join(map(encode_basestring, e.utilities))}], '
            f'"flags": [{", ".join(map(encode_basestring, e.flags))}], '
            f'"pipe_partner": {partner}}}\n')


def write_templates(entries: Iterable[TemplateEntry], path: str | Path) -> None:
    _write(map(_template_line, entries), path)


def read_commands(path: str | Path) -> list[str]:
    """The ``cmd`` of every line of a record or a template file."""
    return [cmd for cmd, in _checked(path, {"cmd": _TEXT})]


def read_predictions(path: str | Path) -> list[list[tuple[str, float]]]:
    """The ``(cmd, confidence)`` candidates of each line of a ``score``
    prediction file: its ``candidates``, or its own ``cmd`` at confidence 1.
    An empty ``cmd`` is a prediction that does not parse."""
    path = Path(path)
    out = []
    for lineno, obj in read_lines(path):
        # a line without candidates is its own one candidate
        candidates = (check_fields(obj, _CANDIDATES, path, lineno)[0]
                      if "candidates" in obj else [obj])
        out.append([tuple(check_fields(c, _CANDIDATE, path, lineno)) for c in candidates])
    return out


def read_exchanges(path: str | Path) -> list[dict]:
    """The lines of an LLM exchange log, each checked for the fields a
    replay reads."""
    path = Path(path)
    out = []
    for lineno, obj in read_lines(path):
        check_fields(obj, _EXCHANGE, path, lineno)
        out.append(obj)
    return out


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
            **vars(self),
            "utility_counts": dict(self.utility_counts),
            "flag_count_hist": {str(k): v for k, v in sorted(self.flag_count_hist.items())},
        }


def stats(commands: Sequence[str], hints=None) -> CorpusStats:
    """Corpus totals, pipe counts, utility histogram, flag-count histogram.

    Utilities are counted across all pipeline stages (including nested
    commands); unparseable commands are counted separately.
    """
    utility_counts: Counter[str] = Counter()
    flag_hist: Counter[int] = Counter()
    piped = 0
    unparseable = 0
    for cmd in commands:
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
        total=len(commands),
        parseable=len(commands) - unparseable,
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
