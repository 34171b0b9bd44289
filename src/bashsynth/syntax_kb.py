"""Per-utility syntax templates and flag/argument metadata.

Specs are curated entries of a JSON spec file, ``{"specs": [...]}`` with
one utility per line, shipped with the package; the spec file, each spec
and each flag may hold only the keys the schema names.
:func:`import_manpage` is an authoring aid that drafts a spec from
manual-page text for later human review.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .bash_ast import PlaceholderKind, UtilityHints, is_flag_token
from .dataset_io import REQUIRED, STRINGS, FormatError, check_object, read_json, shipped

__all__ = [
    "SchemaError",
    "ManpageImportError",
    "GenArgKind",
    "FlagSpec",
    "UtilitySpec",
    "SyntaxKb",
    "PLACEHOLDER_RE",
    "load_specs",
    "save_specs",
    "import_manpage",
    "to_parser_template",
    "default_specs_path",
]


class SchemaError(FormatError):
    """Spec file violates the documented schema."""


class ManpageImportError(ValueError):
    """No flag definitions could be extracted from manual-page text."""


class GenArgKind(Enum):
    """Generator-side argument types; finer grained than parser kinds.

    Each member declares its bracket name (the value), the parser kind its
    placeholder becomes (``parser``) and the manual-page metavar words it
    is inferred from (``metavar``); inference tries members in order.
    """

    FILE = "File", PlaceholderKind.FILE, r"FILE|ARCHIVE"
    DIRECTORY = "Directory", PlaceholderKind.DIRECTORY, r"DIR|DIRECTORY|FOLDER"
    PATH = "Path", PlaceholderKind.PATH, r"PATH"
    QUANTITY = "Quantity", PlaceholderKind.NUMBER, r"NUM|COUNT|LINES|^N$|QUANTITY"
    PATTERN = "Pattern", PlaceholderKind.REGEX, r"PATTERN|REGEXP?"
    FORMATTED_STRING = "FormattedString", PlaceholderKind.REGEX, r"FORMAT"
    SEPARATOR = "Separator", PlaceholderKind.REGEX, r"SEP|DELIM"
    PERMISSION = "Permission", PlaceholderKind.PERMISSION, r"MODE|PERM"
    SIZE = "Size", PlaceholderKind.SIZE, r"SIZE|BYTES|BLOCK"
    TIMESPAN = "Timespan", PlaceholderKind.TIMESPAN, r"SECONDS|DURATION|DAYS|MINUTES"
    DATETIME = "Datetime", PlaceholderKind.DATETIME, r"DATE|TIMESTAMP|WHEN"
    USER = "User", PlaceholderKind.REGEX, r"USER|OWNER|UID"
    GROUP = "Group", PlaceholderKind.REGEX, r"GROUP|GID"
    EXTENSION = "Extension", PlaceholderKind.REGEX, r"SUFFIX|EXT"
    STRING = "String", PlaceholderKind.REGEX, r"STRING|WORD|NAME|TEXT|CMD|COMMAND"

    def __new__(cls, value: str, parser: PlaceholderKind, metavar: str):
        member = object.__new__(cls)
        member._value_ = value
        member.parser = parser
        member.metavar = re.compile(metavar)
        return member

    @property
    def bracket(self) -> str:
        """Placeholder token used in generated templates, e.g. ``[File]``."""
        return f"[{self.value}]"


_GEN_BY_VALUE = {kind.value: kind for kind in GenArgKind}

# ("[File]", "_FILE") per kind, for rewriting generator templates into parser form.
_BRACKET_TOKENS = tuple((kind.bracket, kind.parser.token) for kind in GenArgKind)

# A generator placeholder in template text; group 1 is "File" in "[File]".
# Parser tokens ("_FILE") are words only bash_ast reads as placeholders.
PLACEHOLDER_RE = re.compile(r"\[([A-Za-z]+)\]")


def to_parser_template(command: str) -> str:
    """Rewrite generator placeholders ("[File]") to parser tokens ("_FILE").

    Each known bracket is replaced as a plain string. That rewrites exactly
    the ``PLACEHOLDER_RE`` matches with a known name: matches cannot
    overlap, since a name holds no bracket, and no replacement can form a
    new match, since every token holds "_" and no name does. Unknown
    bracket names are kept, so the rewrite is idempotent.
    """
    for bracket, token in _BRACKET_TOKENS:
        command = command.replace(bracket, token)
    return command


@dataclass(frozen=True)
class FlagSpec:
    token: str
    arg: GenArgKind | None = None

    def __post_init__(self) -> None:
        if not is_flag_token(self.token):
            raise SchemaError(f"not a flag token as the parser reads it: {self.token!r}")


@dataclass(frozen=True)
class UtilitySpec:
    """Syntax template for one utility.

    ``template`` is an ordered slot list: the literal slots ``UTILITY`` and
    ``FLAGS`` plus positional argument slots named by GenArgKind value.
    """

    name: str
    template: tuple[str, ...] = ("UTILITY", "FLAGS")
    flags: tuple[FlagSpec, ...] = ()
    pipe_successors: tuple[str, ...] = ()
    needs_review: bool = False

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise SchemaError(f"bad utility name: {self.name!r}")
        tokens = [f.token for f in self.flags]
        if len(tokens) != len(set(tokens)):
            raise SchemaError(f"{self.name}: duplicate flag tokens")
        if not self.template or self.template[0] != "UTILITY":
            raise SchemaError(f"{self.name}: template must start with UTILITY")
        for slot in self.template[1:]:
            if slot != "FLAGS" and slot not in _GEN_BY_VALUE:
                raise SchemaError(f"{self.name}: unknown template slot {slot!r}")

    @property
    def positional_kinds(self) -> tuple[GenArgKind, ...]:
        return tuple(
            _GEN_BY_VALUE[slot] for slot in self.template if slot in _GEN_BY_VALUE
        )


# ---------------------------------------------------------------------------
# Spec file loading / saving


_SPEC_FILE = {"specs": (lambda v: isinstance(v, list), "a list", REQUIRED)}
_SPEC = {
    "name": (lambda v: isinstance(v, str), "a string", REQUIRED),
    "template": (*STRINGS[:2], ["UTILITY", "FLAGS"]),
    "flags": (lambda v: isinstance(v, list) and all(isinstance(f, dict) for f in v),
              "a list of objects", ()),
    "pipe_successors": STRINGS,
    "needs_review": (lambda v: isinstance(v, bool), "true or false", False),
}
_FLAG = {
    "token": (lambda v: isinstance(v, str), "a string", REQUIRED),
    "arg": (lambda v: v is None or isinstance(v, str) and v in _GEN_BY_VALUE,
            f"null or one of {sorted(_GEN_BY_VALUE)}", None),
}


def _spec_from_doc(doc: object, where: str) -> UtilitySpec:
    try:
        if not isinstance(doc, dict):
            raise SchemaError(f"expected an object, got {type(doc).__name__}")
        name, template, flags, successors, needs_review = check_object(doc, _SPEC)
        flag_specs = []
        for j, item in enumerate(flags):
            token, arg = check_object(item, _FLAG, f"flags[{j}]")
            flag_specs.append(FlagSpec(token, _GEN_BY_VALUE.get(arg)))
        return UtilitySpec(name, tuple(template), tuple(flag_specs), tuple(successors),
                           needs_review)
    except FormatError as exc:  # a SchemaError too
        raise SchemaError(f"{where}: {exc}") from None


def load_specs(path: str | Path) -> list[UtilitySpec]:
    """Load utility specs from a spec file or a directory of them (its
    ``*.json`` files); each utility name may appear once among them all.
    A refused file raises FormatError naming it, a SchemaError when an
    entry breaks the schema."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SchemaError("directory holds no *.json spec file", path)
    specs: dict[str, UtilitySpec] = {}
    for file in files:
        entries, = check_object(read_json(file), _SPEC_FILE, file)
        for index, entry in enumerate(entries):
            spec = _spec_from_doc(entry, f"{file}: specs[{index}]")
            if spec.name in specs:
                raise SchemaError(f"duplicate utility spec: {spec.name}", file)
            specs[spec.name] = spec
    return list(specs.values())


def save_specs(specs: Iterable[UtilitySpec], path: str | Path) -> None:
    """Write a spec file, one utility per line."""
    lines = []
    for spec in specs:
        doc: dict[str, object] = {
            "name": spec.name,
            "template": list(spec.template),
            "flags": [
                {"token": f.token, **({"arg": f.arg.value} if f.arg else {})}
                for f in spec.flags
            ],
            "pipe_successors": list(spec.pipe_successors),
        }
        if spec.needs_review:
            doc["needs_review"] = True
        lines.append(json.dumps(doc, ensure_ascii=False))
    Path(path).write_text('{"specs": [\n' + ",\n".join(lines) + "\n]}\n",
                          encoding="utf-8")


def default_specs_path() -> Path:
    return shipped("specs/core.json")


# ---------------------------------------------------------------------------
# Knowledge base


class SyntaxKb:
    """Immutable lookup over a set of utility specs with distinct names."""

    def __init__(self, specs: Iterable[UtilitySpec]):
        self._by_name: dict[str, UtilitySpec] = {s.name: s for s in specs}

    @classmethod
    def load(cls, path: str | Path = default_specs_path()) -> "SyntaxKb":
        return cls(load_specs(path))

    @property
    def utilities(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def get(self, name: str) -> UtilitySpec | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def specs(self) -> tuple[UtilitySpec, ...]:
        return tuple(self._by_name.values())

    def parser_hints(self) -> Mapping[str, UtilityHints]:
        """Hints consumed by ``bash_ast.parse`` for flag args and positionals.

        Read-only, since ``parse`` caches what it parsed with them."""
        hints: dict[str, UtilityHints] = {}
        for spec in self._by_name.values():
            hints[spec.name] = UtilityHints(
                known_flags=frozenset(f.token for f in spec.flags),
                flag_args=MappingProxyType(
                    {f.token: f.arg.parser for f in spec.flags if f.arg}
                ),
                positionals=tuple(k.parser for k in spec.positional_kinds),
            )
        return MappingProxyType(hints)


# ---------------------------------------------------------------------------
# Manual page import

_SECTION_RE = re.compile(r"^\s*(OPTIONS|DESCRIPTION)\b")
_FLAG_LINE_RE = re.compile(
    r"^\s{0,8}(-{1,2}[A-Za-z0-9][\w-]*)"  # first flag token
    r"((?:,\s*-{1,2}[\w-]+)*)"  # comma-separated aliases
    r"(?:[ =]+([A-Z][A-Z_]{1,15}|<[a-z]+>))?"  # optional metavar
)

def _infer_kind(metavar: str) -> GenArgKind | None:
    word = metavar.strip("<>").upper()
    return next((kind for kind in GenArgKind if kind.metavar.search(word)), None)


def import_manpage(text: str, utility: str) -> UtilitySpec:
    """Draft a UtilitySpec from manual-page plain text.

    Flags come from lines shaped like option definitions; argument kinds
    are inferred from the metavar keyword. The result is flagged for human
    review when inference looks weak. Raises :class:`ManpageImportError`
    when no flags can be extracted.
    """
    lines = text.splitlines()
    start = 0
    for idx, line in enumerate(lines):
        if _SECTION_RE.match(line):
            start = idx
            break

    flags: list[FlagSpec] = []
    seen: set[str] = set()
    unresolved = 0
    for line in lines[start:]:
        m = _FLAG_LINE_RE.match(line)
        if not m:
            continue
        tokens = [m.group(1)]
        if m.group(2):
            tokens.extend(t.strip() for t in m.group(2).split(",") if t.strip())
        metavar = m.group(3)
        kind: GenArgKind | None = None
        if metavar:
            kind = _infer_kind(metavar)
            if kind is None:
                unresolved += 1
        for token in tokens:
            if token in seen:
                continue
            seen.add(token)
            flags.append(FlagSpec(token, kind))

    if not flags:
        raise ManpageImportError(f"{utility}: no flag definitions found")

    needs_review = unresolved > 0 or len(flags) < 2
    return UtilitySpec(
        name=utility,
        template=("UTILITY", "FLAGS"),
        flags=tuple(flags),
        needs_review=needs_review,
    )
