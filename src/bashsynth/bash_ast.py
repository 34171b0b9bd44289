"""Typed AST for single-line Bash commands.

A command is modeled as a pipeline of utility stages. Each stage keeps the
original token order of flags, parameters, command substitutions, and
``-exec`` style clauses, so a parsed command renders back to an equivalent
string and the rendered string re-parses to an equal tree.

Parameters are categorized into a closed set of placeholder kinds
(``_PATH``, ``_NUMBER``, ...) by an ordered rule list; templatization swaps
each parameter literal for its placeholder token, and :func:`fill` puts
typed values back into placeholder slots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "ParseError",
    "PlaceholderKind",
    "ParamContext",
    "UtilityHints",
    "ParamNode",
    "FlagNode",
    "ExecClause",
    "Substitution",
    "UtilityNode",
    "BashAst",
    "parse",
    "render",
    "categorize",
    "templatize",
    "fill",
    "vocabulary",
]


class ParseError(ValueError):
    """Command text that cannot be parsed into a pipeline of utilities."""


class PlaceholderKind(Enum):
    """Closed set of parameter categories; REGEX is the fallback."""

    NUMBER = "NUMBER"
    PATH = "PATH"
    FILE = "FILE"
    DIRECTORY = "DIRECTORY"
    DATETIME = "DATETIME"
    PERMISSION = "PERMISSION"
    TIMESPAN = "TIMESPAN"
    SIZE = "SIZE"
    REGEX = "REGEX"

    @property
    def token(self) -> str:
        """Placeholder token used in rendered templates, e.g. ``_PATH``."""
        return "_" + self.value


PLACEHOLDER_BY_TOKEN: dict[str, PlaceholderKind] = {
    kind.token: kind for kind in PlaceholderKind
}

# Literals that categorization/templatization must never rewrite: the -exec
# argument marker, the single supported redirect operator, and the stdin dash.
PRESERVED_LITERALS = frozenset({"{}", ">", "-"})

_EXEC_FLAGS = frozenset({"-exec", "-ok", "-execdir", "-okdir"})
_EXEC_CLOSERS = frozenset({"\\;", "+"})


@dataclass(frozen=True)
class ParamContext:
    """Where a parameter literal occurs: owning utility, nearest flag, and an
    argument kind declared by a syntax spec (if any)."""

    utility: str = ""
    flag: str = ""
    declared: PlaceholderKind | None = None


@dataclass(frozen=True)
class UtilityHints:
    """Per-utility parsing hints derived from a syntax knowledge base."""

    known_flags: frozenset[str] = frozenset()
    flag_args: Mapping[str, PlaceholderKind] = field(default_factory=dict)
    positionals: tuple[PlaceholderKind, ...] = ()


@dataclass(frozen=True)
class ParamNode:
    literal: str
    category: PlaceholderKind


@dataclass(frozen=True)
class FlagNode:
    token: str
    arg: ParamNode | None = None
    glued: bool = False  # True for the --flag=value form

    def __post_init__(self) -> None:
        if not self.token.startswith("-"):
            raise ValueError(f"flag token must begin with '-': {self.token!r}")


@dataclass(frozen=True)
class ExecClause:
    """A ``-exec CMD ... ;`` style clause with its nested command body."""

    flag: str
    body: "UtilityNode"
    closer: str = "\\;"


@dataclass(frozen=True)
class Substitution:
    """A ``$(...)`` command substitution, one level deep."""

    stages: tuple["UtilityNode", ...]


Item = Union[FlagNode, ParamNode, ExecClause, Substitution]


@dataclass(frozen=True)
class UtilityNode:
    name: str
    items: tuple[Item, ...] = ()

    @property
    def flags(self) -> tuple[FlagNode, ...]:
        """Flags in order; -exec style clauses count as argument-less flags."""
        out: list[FlagNode] = []
        for it in self.items:
            if isinstance(it, FlagNode):
                out.append(it)
            elif isinstance(it, ExecClause):
                out.append(FlagNode(it.flag))
        return tuple(out)

    @property
    def params(self) -> tuple[ParamNode, ...]:
        return tuple(it for it in self.items if isinstance(it, ParamNode))

    @property
    def nested(self) -> tuple["UtilityNode", ...]:
        out: list[UtilityNode] = []
        for it in self.items:
            if isinstance(it, ExecClause):
                out.append(it.body)
            elif isinstance(it, Substitution):
                out.extend(it.stages)
        return tuple(out)

    def flag_tokens(self) -> frozenset[str]:
        return frozenset(f.token for f in self.flags)


@dataclass(frozen=True)
class BashAst:
    stages: tuple[UtilityNode, ...]

    def render(self) -> str:
        return render(self)

    def walk_utilities(self) -> Iterator[UtilityNode]:
        """All utility nodes in document order, including nested ones."""
        for stage in self.stages:
            yield stage
            yield from _walk_nested(stage)


def _walk_nested(node: UtilityNode) -> Iterator[UtilityNode]:
    for inner in node.nested:
        yield inner
        yield from _walk_nested(inner)


# ---------------------------------------------------------------------------
# Tokenizer


# A word is a run of pieces: plain characters, '...', "...", a backslash
# pair (a trailing backslash stands alone), a "$" not followed by "(", and a
# one-level "$(...)" whose body holds no unquoted parenthesis and no "$(".
# An unquoted ";", "&" or "<" is no plain character: the grammar is one
# pipeline, so lists, background jobs and input redirects do not parse.
# Every piece is told apart by its first character and the loops are
# unrolled (plain* (piece plain*)*), so a failed match backtracks in linear
# time without possessive quantifiers, which Python 3.10 lacks.
_SPECIAL = r"""'[^']*'|"[^"]*"|\\(?:.|\Z)|\$(?!\()"""
_BODY = rf"""[^()'"\\$]*(?:(?:{_SPECIAL})[^()'"\\$]*)*"""
_PIECE = rf"""{_SPECIAL}|\$\({_BODY}\)"""
_PLAIN = r"""[^\s|()'"\\$;&<]"""
_TOKEN_RE = re.compile(
    rf"(\||(?:{_PLAIN}|{_PIECE}){_PLAIN}*(?:(?:{_PIECE}){_PLAIN}*)*)", re.DOTALL
)
_LEFTOVER_ERRORS = {
    "'": "unbalanced quote",
    '"': "unbalanced quote",
    "(": "subshell groups are not supported",
    ")": "subshell groups are not supported",
    "$": "unbalanced or nested command substitution",
    ";": "command lists are not supported",
    "&": "command lists and background jobs are not supported",
    "<": "input redirection is not supported",
}


def _scan_tokens(source: str) -> list[str]:
    """Split a command into tokens, keeping quotes and $(...) groups intact;
    a pipe is a token of its own."""
    parts = _TOKEN_RE.split(source)
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace():
        raise ParseError(_LEFTOVER_ERRORS[gaps.lstrip()[0]])
    return parts[1::2]


def _is_flag(token: str) -> bool:
    return token.startswith("-") and len(token) > 1


# ---------------------------------------------------------------------------
# Categorization

_DATE_PATTERNS = (
    re.compile(r"\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2})?)?"),
    re.compile(r"\d{1,2}/\d{1,2}/\d{2,4}"),
    re.compile(r"\d{1,2}:\d{2}(:\d{2})?"),
)
_SIZE_LITERAL = re.compile(r"[+-]?\d+[kKmMgGtT][bB]?")
_TIMESPAN_LITERAL = re.compile(r"[+-]?\d+[smhdw]")
_EXTENSION = re.compile(r"\.[A-Za-z0-9]{1,7}$")

_PERMISSION_UTILITIES = frozenset({"chmod", "umask"})
_PERMISSION_FLAGS = frozenset({"-m", "--mode", "-perm"})
_SIZE_FLAGS = frozenset({"-size", "--size", "--block-size"})
_TIME_FLAGS = frozenset({"-mtime", "-atime", "-ctime", "-mmin", "-amin", "-cmin"})
_DIRECTORY_FLAGS = frozenset({"-C", "--directory", "--target-directory"})


def _last_segment(literal: str) -> str:
    return literal.rsplit("/", 1)[-1]


def categorize(literal: str, context: ParamContext | None = None) -> PlaceholderKind:
    """Assign a placeholder kind to a parameter literal.

    Total and deterministic. Rules fire in a fixed order: placeholder
    tokens keep their own kind, a kind declared by the syntax spec wins,
    then literal shape rules (digits, size/time suffixes, dates, paths,
    file extensions), with REGEX as the fallback.
    """
    if not literal:
        return PlaceholderKind.REGEX
    if literal in PLACEHOLDER_BY_TOKEN:
        return PLACEHOLDER_BY_TOKEN[literal]
    ctx = context or ParamContext()
    if ctx.declared is not None:
        return ctx.declared

    if literal.isascii() and literal.isdigit():
        # Octal mode strings under chmod-like context take priority over the
        # plain number rule; otherwise 3-4 digit octals would be unreachable.
        if (
            (ctx.utility in _PERMISSION_UTILITIES or ctx.flag in _PERMISSION_FLAGS)
            and 3 <= len(literal) <= 4
            and all(c in "01234567" for c in literal)
        ):
            return PlaceholderKind.PERMISSION
        return PlaceholderKind.NUMBER

    size_context = ctx.flag in _SIZE_FLAGS or "size" in ctx.flag
    if size_context and _SIZE_LITERAL.fullmatch(literal):
        return PlaceholderKind.SIZE

    time_context = ctx.flag in _TIME_FLAGS or "time" in ctx.flag
    if time_context and _TIMESPAN_LITERAL.fullmatch(literal):
        return PlaceholderKind.TIMESPAN

    if any(p.fullmatch(literal) for p in _DATE_PATTERNS):
        return PlaceholderKind.DATETIME

    if literal in (".", "..", "~") or (
        "/" in literal and not _EXTENSION.search(_last_segment(literal))
    ):
        if ctx.flag in _DIRECTORY_FLAGS or literal.endswith("/"):
            return PlaceholderKind.DIRECTORY
        return PlaceholderKind.PATH

    if _EXTENSION.search(_last_segment(literal)):
        return PlaceholderKind.FILE

    return PlaceholderKind.REGEX


# ---------------------------------------------------------------------------
# Parser


# Parsed top-level stages keyed by (id(hints), stage tokens). Each value
# holds its hints object, so no other object can take that id while the
# entry lives: a hit is always a node parsed with these very hints. dict
# get, set and clear are each atomic under the GIL, so threads parsing at
# once may lose an entry to a clear or insert one twice, but never read a
# node parsed with other hints. The bound can be overshot by one entry per
# thread inserting at the same moment.
_STAGE_CACHE_SIZE = 4096
_stage_cache: dict[tuple[int, tuple[str, ...]], tuple[object, UtilityNode]] = {}


def parse(source: str, hints: Mapping[str, UtilityHints] | None = None) -> BashAst:
    """Parse a single-line command into a :class:`BashAst`.

    ``hints`` (typically from ``SyntaxKb.parser_hints()``) lets the parser
    attach arguments to flags that declare them, expand single-character
    flag clusters, and categorize positional parameters by declared kind.
    Parsed stages are cached per hints object (by identity) and shared
    between ASTs, so hints must not be mutated after they are first used.

    Raises :class:`ParseError` for empty input, unbalanced quotes, a stage
    with no utility token, or nesting deeper than one level.
    """
    if source is None or not source.strip():
        raise ParseError("empty command")
    if "\n" in source.strip():
        raise ParseError("command must be a single line")

    hints_id = id(hints)
    stages: list[UtilityNode] = []
    for tokens in _split_stages(_scan_tokens(source)):
        key = (hints_id, tokens)
        hit = _stage_cache.get(key)
        if hit is None:
            node = _parse_stage(tokens, hints, depth=0)
            if len(_stage_cache) >= _STAGE_CACHE_SIZE:
                _stage_cache.clear()
            _stage_cache[key] = (hints, node)
        else:
            node = hit[1]
        stages.append(node)
    return BashAst(stages=tuple(stages))


def _split_stages(tokens: list[str]) -> list[tuple[str, ...]]:
    """Split tokens at pipes; every stage must hold at least one token."""
    stages: list[tuple[str, ...]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == "|":
            stages.append(tuple(tokens[start:i]))
            start = i + 1
    stages.append(tuple(tokens[start:]))
    if not all(stages):
        raise ParseError("pipeline stage with no utility token")
    return stages


def _parse_stage(
    tokens: Sequence[str],
    hints: Mapping[str, UtilityHints] | None,
    depth: int,
) -> UtilityNode:
    name = tokens[0]
    if _is_flag(name) or name.startswith("$("):
        raise ParseError(f"stage has no utility token: {name!r}")
    util_hints = hints.get(name) if hints else None

    items: list[Item] = []
    positional_index = 0
    after_redirect = False
    i = 1
    while i < len(tokens):
        tok = tokens[i]

        if tok in _EXEC_FLAGS:
            if depth >= 1:
                raise ParseError("nesting deeper than one level")
            body, closer, i = _scan_exec_body(tokens, i + 1)
            body_node = _parse_stage(body, hints, depth + 1)
            items.append(ExecClause(tok, body_node, closer))
            continue

        if tok.startswith("$("):
            if depth >= 1:
                raise ParseError("nesting deeper than one level")
            inner = tok[2:-1].strip()
            if "$(" in inner:
                raise ParseError("nesting deeper than one level")
            if not inner:
                raise ParseError("empty command substitution")
            stages = tuple(
                _parse_stage(st, hints, depth + 1)
                for st in _split_stages(_scan_tokens(inner))
            )
            items.append(Substitution(stages))
            i += 1
            continue

        if _is_flag(tok):
            flag_items, i = _parse_flag(tokens, i, name, util_hints)
            items.extend(flag_items)
            continue

        declared: PlaceholderKind | None = None
        if (
            util_hints is not None
            and not after_redirect
            and tok not in PRESERVED_LITERALS
            and positional_index < len(util_hints.positionals)
        ):
            declared = util_hints.positionals[positional_index]
        prev = items[-1] if items else None
        flag_ctx = (
            prev.token if isinstance(prev, FlagNode) and prev.arg is None else ""
        )
        cat = categorize(tok, ParamContext(utility=name, flag=flag_ctx, declared=declared))
        items.append(ParamNode(tok, cat))
        if tok == ">":
            after_redirect = True
        elif not after_redirect and tok not in PRESERVED_LITERALS:
            positional_index += 1
        i += 1

    return UtilityNode(name, tuple(items))


def _parse_flag(
    tokens: Sequence[str],
    i: int,
    utility: str,
    util_hints: UtilityHints | None,
) -> tuple[list[Item], int]:
    tok = tokens[i]

    if tok.startswith("--") and "=" in tok:
        flag_token, value = tok.split("=", 1)
        declared = util_hints.flag_args.get(flag_token) if util_hints else None
        arg = ParamNode(
            value, categorize(value, ParamContext(utility, flag_token, declared))
        )
        return [FlagNode(flag_token, arg, glued=True)], i + 1

    def attach_arg(flag_token: str) -> ParamNode | None:
        if util_hints is None or flag_token not in util_hints.flag_args:
            return None
        if i + 1 >= len(tokens):
            return None
        nxt = tokens[i + 1]
        if _is_flag(nxt) or nxt in _EXEC_FLAGS or nxt.startswith("$("):
            return None
        declared = util_hints.flag_args[flag_token]
        return ParamNode(nxt, categorize(nxt, ParamContext(utility, flag_token, declared)))

    if util_hints is not None and tok not in util_hints.known_flags:
        cluster = _expand_cluster(tok, util_hints)
        if cluster is not None:
            # Flags stay as written; the expansion only binds the trailing
            # member's declared argument (e.g. -cjf consumes a File for -f).
            arg = attach_arg(cluster[-1])
            return [FlagNode(tok, arg)], i + (2 if arg is not None else 1)

    arg = attach_arg(tok)
    return [FlagNode(tok, arg)], i + (2 if arg is not None else 1)


def _expand_cluster(token: str, hints: UtilityHints) -> list[str] | None:
    """Expand a combined short-flag token ("-cjf") using declared flags."""
    if not re.fullmatch(r"-[A-Za-z0-9]{2,}", token):
        return None
    parts = ["-" + ch for ch in token[1:]]
    if not all(p in hints.known_flags for p in parts):
        return None
    taking_args = [p for p in parts if p in hints.flag_args]
    # Only the final cluster member may consume the following token.
    if taking_args and taking_args != [parts[-1]]:
        return None
    return parts


def _scan_exec_body(
    tokens: Sequence[str], start: int
) -> tuple[list[str], str, int]:
    body: list[str] = []
    i = start
    while i < len(tokens):
        if tokens[i] in _EXEC_CLOSERS:
            if not body:
                raise ParseError("empty -exec body")
            return body, tokens[i], i + 1
        body.append(tokens[i])
        i += 1
    if not body:
        raise ParseError("empty -exec body")
    return body, "", i


# ---------------------------------------------------------------------------
# Rendering


def render(ast: BashAst) -> str:
    """Render stages joined by " | ", tokens joined by single spaces."""
    return " | ".join(_render_stage(stage) for stage in ast.stages)


def _render_stage(node: UtilityNode) -> str:
    return " ".join(_stage_tokens(node))


# ---------------------------------------------------------------------------
# Templatize / fill


def _map_params(node: UtilityNode, fn: Callable[[ParamNode], ParamNode]) -> UtilityNode:
    items: list[Item] = []
    for it in node.items:
        if isinstance(it, ParamNode):
            items.append(fn(it))
        elif isinstance(it, FlagNode):
            if it.arg is None:
                items.append(it)
            else:
                items.append(FlagNode(it.token, fn(it.arg), it.glued))
        elif isinstance(it, ExecClause):
            items.append(ExecClause(it.flag, _map_params(it.body, fn), it.closer))
        else:
            items.append(
                Substitution(tuple(_map_params(s, fn) for s in it.stages))
            )
    return UtilityNode(node.name, tuple(items))


def templatize(ast: BashAst) -> BashAst:
    """Replace every parameter literal with its placeholder token.

    Utilities, flag tokens and structural literals ("{}", ">", "-") are
    untouched, and a token categorizes as its own kind, so the operation is
    idempotent. Any other literal is replaced, "[aeiou]" included.
    """

    def swap(p: ParamNode) -> ParamNode:
        if p.literal in PRESERVED_LITERALS:
            return p
        return ParamNode(p.category.token, p.category)

    stages = tuple(_map_params(s, swap) for s in ast.stages)
    return BashAst(stages=stages)


def _quote_if_needed(value: str) -> str:
    if not value or any(c.isspace() for c in value):
        if "'" not in value:
            return f"'{value}'"
        return '"' + value + '"'
    return value


def fill(
    ast: BashAst, values: Sequence[tuple[PlaceholderKind, str]]
) -> tuple[str, int]:
    """Fill placeholder slots with typed values, left to right.

    Each placeholder consumes the first unconsumed value of matching kind.
    Placeholders with no matching value stay in place; the second element
    of the result counts them. Partial fill is a legitimate outcome.
    """
    pool: list[tuple[PlaceholderKind, str, bool]] = [
        (kind, literal, False) for kind, literal in values
    ]
    used = [False] * len(pool)
    unfilled = 0

    def consume(p: ParamNode) -> ParamNode:
        nonlocal unfilled
        if p.literal not in PLACEHOLDER_BY_TOKEN:
            return p
        kind = PLACEHOLDER_BY_TOKEN[p.literal]
        for idx, (vkind, literal, _) in enumerate(pool):
            if not used[idx] and vkind == kind:
                used[idx] = True
                return ParamNode(_quote_if_needed(literal), kind)
        unfilled += 1
        return p

    stages = tuple(_map_params(s, consume) for s in ast.stages)
    return render(BashAst(stages=stages)), unfilled


# ---------------------------------------------------------------------------
# Vocabulary


def _stage_tokens(node: UtilityNode) -> Iterator[str]:
    yield node.name
    for it in node.items:
        if isinstance(it, FlagNode):
            if it.arg is None:
                yield it.token
            elif it.glued:
                yield f"{it.token}={it.arg.literal}"
            else:
                yield it.token
                yield it.arg.literal
        elif isinstance(it, ParamNode):
            yield it.literal
        elif isinstance(it, ExecClause):
            yield it.flag
            yield from _stage_tokens(it.body)
            if it.closer:
                yield it.closer
        else:
            yield "$(" + " | ".join(_render_stage(s) for s in it.stages) + ")"


def ast_tokens(ast: BashAst) -> Iterator[str]:
    for stage in ast.stages:
        yield from _stage_tokens(stage)


def vocabulary(corpus: Iterable[BashAst], templatized: bool = False) -> set[str]:
    """Distinct tokens across a corpus, optionally after templatization."""
    asts = list(corpus)
    if not asts:
        raise ValueError("empty corpus")
    vocab: set[str] = set()
    for ast in asts:
        if templatized:
            ast = templatize(ast)
        vocab.update(ast_tokens(ast))
    return vocab
