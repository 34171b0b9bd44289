"""Per-utility syntax templates and flag/argument metadata.

Specs are curated YAML documents (one per utility) shipped with the
package; :func:`import_manpage` is an authoring aid that drafts a spec
from manual-page text for later human review.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import yaml

from .bash_ast import PlaceholderKind, UtilityHints

__all__ = [
    "SchemaError",
    "ManpageImportError",
    "GenArgKind",
    "FlagSpec",
    "UtilitySpec",
    "SyntaxKb",
    "PLACEHOLDER_RE",
    "rewrite_placeholders",
    "load_specs",
    "save_specs",
    "import_manpage",
    "to_parser_template",
    "default_specs_path",
]


class SchemaError(ValueError):
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

# "File" -> "_FILE", for rewriting generator templates into parser form.
_TOKEN_BY_BRACKET = {kind.value: kind.parser.token for kind in GenArgKind}

# A placeholder in template text: a bracket name (group 1 is "File" in
# "[File]") or a parser token ("_FILE") not glued to a preceding word
# character or bracket. Both branches start with a literal, which lets the
# regex engine skip ahead to "[" or "_" instead of trying every position.
PLACEHOLDER_RE = re.compile(r"\[([A-Za-z]+)\]|_(?<![\w\[]_)[A-Z]+\b")


def rewrite_placeholders(text: str, swap: Callable[[str], str | None]) -> str:
    """Rewrite every placeholder in ``text`` in one left-to-right pass.

    ``swap`` gets the bracket name ("File" for ``[File]``) or the parser
    token ("_FILE"); a string replaces the placeholder, None keeps it.
    """

    def sub(m: re.Match[str]) -> str:
        new = swap(m[1] or m[0])
        return m[0] if new is None else new

    return PLACEHOLDER_RE.sub(sub, text)


def to_parser_template(command: str) -> str:
    """Rewrite generator placeholders ("[File]") to parser tokens ("_FILE").

    Unknown bracket names and parser tokens are kept, so the rewrite is
    idempotent.
    """
    return rewrite_placeholders(command, _TOKEN_BY_BRACKET.get)


@dataclass(frozen=True)
class FlagSpec:
    token: str
    arg: GenArgKind | None = None

    def __post_init__(self) -> None:
        if not self.token.startswith("-"):
            raise SchemaError(f"flag token must begin with '-': {self.token!r}")


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


def _spec_from_doc(doc: object, ordinal: int) -> UtilitySpec:
    where = f"document {ordinal}"
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a mapping, got {type(doc).__name__}")
    unknown = set(doc) - {"name", "template", "flags", "pipe_successors", "needs_review"}
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    if "name" not in doc:
        raise SchemaError(f"{where}: missing field 'name'")
    name = doc["name"]
    where = f"document {ordinal} ({name})"

    template = tuple(doc.get("template", ("UTILITY", "FLAGS")))
    flags = []
    for j, item in enumerate(doc.get("flags") or ()):
        if not isinstance(item, dict) or "token" not in item:
            raise SchemaError(f"{where}: flags[{j}] must have a 'token' field")
        arg_name = item.get("arg")
        if arg_name is not None and arg_name not in _GEN_BY_VALUE:
            raise SchemaError(f"{where}: flags[{j}] unknown arg kind {arg_name!r}")
        flags.append(
            FlagSpec(str(item["token"]), _GEN_BY_VALUE[arg_name] if arg_name else None)
        )
    try:
        return UtilitySpec(
            name=str(name),
            template=tuple(str(s) for s in template),
            flags=tuple(flags),
            pipe_successors=tuple(str(s) for s in doc.get("pipe_successors") or ()),
            needs_review=bool(doc.get("needs_review", False)),
        )
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_specs(path: str | Path) -> list[UtilitySpec]:
    """Load utility specs from a YAML file or a directory of YAML files."""
    path = Path(path)
    if path.is_dir():
        specs: list[UtilitySpec] = []
        for child in sorted(path.glob("*.yaml")) + sorted(path.glob("*.yml")):
            specs.extend(load_specs(child))
        _check_duplicates(specs)
        return specs

    try:
        docs = list(yaml.safe_load_all(path.read_text(encoding="utf-8")))
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from None
    specs = [
        _spec_from_doc(doc, ordinal)
        for ordinal, doc in enumerate(docs)
        if doc is not None
    ]
    _check_duplicates(specs)
    return specs


def _check_duplicates(specs: Iterable[UtilitySpec]) -> None:
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            raise SchemaError(f"duplicate utility spec: {spec.name}")
        seen.add(spec.name)


def save_specs(specs: Iterable[UtilitySpec], path: str | Path) -> None:
    docs = []
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
        docs.append(doc)
    Path(path).write_text(
        yaml.safe_dump_all(docs, sort_keys=False), encoding="utf-8"
    )


def default_specs_path() -> Path:
    return Path(resources.files("bashsynth").joinpath("data/specs/core.yaml"))


# ---------------------------------------------------------------------------
# Knowledge base


class SyntaxKb:
    """Immutable lookup over a set of utility specs."""

    def __init__(self, specs: Iterable[UtilitySpec]):
        specs = list(specs)
        _check_duplicates(specs)
        self._by_name: dict[str, UtilitySpec] = {s.name: s for s in specs}

    @classmethod
    def load(cls, path: str | Path | None = None) -> "SyntaxKb":
        return cls(load_specs(path if path is not None else default_specs_path()))

    @property
    def utilities(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def get(self, name: str) -> UtilitySpec | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

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
