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
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "ParseError",
    "PlaceholderKind",
    "UtilityHints",
    "ParamNode",
    "FlagNode",
    "is_flag_token",
    "is_plain_word",
    "ExecClause",
    "Substitution",
    "UtilityNode",
    "BashAst",
    "parse",
    "render",
    "categorize",
    "templatize",
    "fill",
    "quote",
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
        if not is_flag_token(self.token):
            raise ValueError(f"not a flag token as the parser reads it: {self.token!r}")


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

    def flag_tokens(self) -> frozenset[str]:
        return frozenset(
            it.token if isinstance(it, FlagNode) else it.flag
            for it in self.items
            if isinstance(it, (FlagNode, ExecClause))
        )

    # The views below are computed on first use and kept in the instance
    # __dict__ (the class has no __slots__), outside the dataclass fields, so
    # equality, hashing and repr are unchanged. parse shares one node per
    # distinct stage, so each is computed once per stage, not per call, and
    # the lock Python 3.10/3.11 take on a view's first read is taken once.

    @cached_property
    def signature(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """``(name, flag tokens)`` of this node and its nested ``-exec`` and
        ``$(...)`` nodes, in :meth:`BashAst.walk_utilities` order."""
        return tuple((node.name, node.flag_tokens()) for node in _walk((self,)))

    @cached_property
    def template(self) -> UtilityNode:
        """This node with every parameter swapped for its placeholder node;
        see :func:`templatize`."""
        items: list[Item] = []
        for it in self.items:
            if isinstance(it, ParamNode):
                items.append(_placeholder(it))
            elif isinstance(it, FlagNode):
                if it.arg is None:
                    items.append(it)
                else:
                    items.append(FlagNode(it.token, _placeholder(it.arg), it.glued))
            elif isinstance(it, ExecClause):
                items.append(ExecClause(it.flag, it.body.template, it.closer))
            else:
                items.append(Substitution(tuple(s.template for s in it.stages)))
        return UtilityNode(self.name, tuple(items))


@dataclass(frozen=True)
class BashAst:
    stages: tuple[UtilityNode, ...]

    def walk_utilities(self) -> Iterator[UtilityNode]:
        """All utility nodes in document order, including nested ones."""
        return _walk(self.stages)


def _walk(nodes: Iterable[UtilityNode]) -> Iterator[UtilityNode]:
    """Each node, then its ``-exec`` body or ``$(...)`` stages."""
    for node in nodes:
        yield node
        for it in node.items:
            if isinstance(it, ExecClause):
                yield from _walk((it.body,))
            elif isinstance(it, Substitution):
                yield from _walk(it.stages)


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
#
# A command holding none of _NOT_PLAIN's characters is plain text: every
# character is whitespace, "|" or plain, so its stages are its "|"-separated
# parts and their words the parts' whitespace-separated runs. str.split()
# and the regex's \s agree on all 29 whitespace code points, so _scan_stages
# splits such text with str methods and skips the regex's per-character
# work; the commands the generator makes with the shipped fixtures are all
# plain. Quotes, escapes and substitutions need the grammar, so any other
# text goes through _TOKEN_RE.
_NOT_PLAIN = r"""()'"\\$;&<"""
_SPECIAL = r"""'[^']*'|"[^"]*"|\\(?:.|\Z)|\$(?!\()"""
_BODY = rf"""[^()'"\\$]*(?:(?:{_SPECIAL})[^()'"\\$]*)*"""
_PIECE = rf"""{_SPECIAL}|\$\({_BODY}\)"""
_PLAIN = rf"[^\s|{_NOT_PLAIN}]"
_HAS_NOT_PLAIN = re.compile(f"[{_NOT_PLAIN}]")
_TOKEN_RE = re.compile(
    rf"(\||(?:{_PLAIN}|{_PIECE}){_PLAIN}*(?:(?:{_PIECE}){_PLAIN}*)*)", re.DOTALL
)
# A word is a command substitution only when one $(...) piece is all of it;
# joined to other text on either side it is one parameter.
_SUBSTITUTION = re.compile(rf"\$\(({_BODY})\)", re.DOTALL)
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
    """Split a command into tokens with _TOKEN_RE, keeping quotes and $(...)
    groups intact; a pipe is a token of its own."""
    parts = _TOKEN_RE.split(source)
    gaps = "".join(parts[::2])
    if gaps and not gaps.isspace():
        raise ParseError(_LEFTOVER_ERRORS[gaps.lstrip()[0]])
    return parts[1::2]


def _is_flag(token: str) -> bool:
    return token.startswith("-") and len(token) > 1


def is_flag_token(token: str) -> bool:
    """Whether the parser reads ``token``, as written, as one flag: a word
    that starts with ``-`` and is longer than it, but not the glued
    ``--name=value`` form, which it reads as flag ``--name`` with a value."""
    return _is_flag(token) and not (token.startswith("--") and "=" in token)


# Words the parser reads as structure wherever they stand in a stage.
_STRUCTURE_WORDS = _EXEC_FLAGS | PRESERVED_LITERALS
_PLAIN_WORD = re.compile(f"{_PLAIN}+")


def is_plain_word(word: str) -> bool:
    """Whether the parser reads ``word``, alone, as exactly that one plain
    word: it is non-empty and holds no whitespace, no "|" and no character
    that needs the grammar (quotes, escapes, ``$``, parentheses, ``;``,
    ``&``, ``<``), and it is not a word the parser reads as structure
    (``-exec`` and its kin, ``{}``, ``>``, ``-``)."""
    return _PLAIN_WORD.fullmatch(word) is not None and word not in _STRUCTURE_WORDS


# ---------------------------------------------------------------------------
# Categorization

# An ISO date with an optional time, a m/d/y date, or a clock time.
_DATETIME = re.compile(
    r"\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2})?)?"
    r"|\d{1,2}/\d{1,2}/\d{2,4}"
    r"|\d{1,2}:\d{2}(?::\d{2})?"
)
_SIZE_LITERAL = re.compile(r"[+-]?\d+[kKmMgGtT][bB]?")
_TIMESPAN_LITERAL = re.compile(r"[+-]?\d+[smhdw]")
# "/" is no extension character, so a match on a whole literal always lies
# in its last path segment.
_EXTENSION = re.compile(r"\.[A-Za-z0-9]{1,7}$")

# Every shape rule below needs a digit (any Unicode decimal digit, as the
# \d of the rules' patterns matches), ".", "/" or "~"; a literal with none
# of them is REGEX. Most words of an English sentence are such literals.
_SHAPE_CHAR = re.compile(r"[\d./~]")

_PERMISSION_UTILITIES = frozenset({"chmod", "umask"})
_PERMISSION_FLAGS = frozenset({"-m", "--mode", "-perm"})
_SIZE_FLAGS = frozenset({"-size", "--size", "--block-size"})
_TIME_FLAGS = frozenset({"-mtime", "-atime", "-ctime", "-mmin", "-amin", "-cmin"})
_DIRECTORY_FLAGS = frozenset({"-C", "--directory", "--target-directory"})


def categorize(literal: str, *, utility: str = "", flag: str = "",
               declared: PlaceholderKind | None = None) -> PlaceholderKind:
    """Assign a placeholder kind to a parameter literal.

    The context is where the literal occurs: its owning ``utility``, the
    nearest ``flag`` and a kind ``declared`` by a syntax spec, if any.
    Total and deterministic. Rules fire in a fixed order: placeholder
    tokens keep their own kind, a declared kind wins, then literal shape
    rules (digits, size/time suffixes, dates, paths, file extensions), with
    REGEX as the fallback.
    """
    if not literal:
        return PlaceholderKind.REGEX
    if literal in PLACEHOLDER_BY_TOKEN:
        return PLACEHOLDER_BY_TOKEN[literal]
    if declared is not None:
        return declared
    if _SHAPE_CHAR.search(literal) is None:
        return PlaceholderKind.REGEX

    if literal.isascii() and literal.isdigit():
        # Octal mode strings under chmod-like context take priority over the
        # plain number rule; otherwise 3-4 digit octals would be unreachable.
        if (
            (utility in _PERMISSION_UTILITIES or flag in _PERMISSION_FLAGS)
            and 3 <= len(literal) <= 4
            and all(c in "01234567" for c in literal)
        ):
            return PlaceholderKind.PERMISSION
        return PlaceholderKind.NUMBER

    if flag:
        size_context = flag in _SIZE_FLAGS or "size" in flag
        if size_context and _SIZE_LITERAL.fullmatch(literal):
            return PlaceholderKind.SIZE
        time_context = flag in _TIME_FLAGS or "time" in flag
        if time_context and _TIMESPAN_LITERAL.fullmatch(literal):
            return PlaceholderKind.TIMESPAN

    if _DATETIME.fullmatch(literal):
        return PlaceholderKind.DATETIME

    has_extension = _EXTENSION.search(literal) is not None
    if literal in (".", "..", "~") or ("/" in literal and not has_extension):
        if flag in _DIRECTORY_FLAGS or literal.endswith("/"):
            return PlaceholderKind.DIRECTORY
        return PlaceholderKind.PATH

    return PlaceholderKind.FILE if has_extension else PlaceholderKind.REGEX


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
    if source is None or not (stripped := source.strip()):
        raise ParseError("empty command")
    if "\n" in stripped:
        raise ParseError("command must be a single line")

    hints_id = id(hints)
    stages: list[UtilityNode] = []
    for tokens in _scan_stages(source):
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


def _scan_stages(source: str) -> list[tuple[str, ...]]:
    """The tokens of each pipeline stage of a command; every stage must
    hold at least one token."""
    if _HAS_NOT_PLAIN.search(source):
        stages = _split_stages(_scan_tokens(source))
    else:
        stages = [tuple(part.split()) for part in source.split("|")]
    if not all(stages):
        raise ParseError("pipeline stage with no utility token")
    return stages


def _split_stages(tokens: list[str]) -> list[tuple[str, ...]]:
    """Split tokens at pipes."""
    stages: list[tuple[str, ...]] = []
    start = 0
    for _ in range(tokens.count("|")):
        end = tokens.index("|", start)
        stages.append(tuple(tokens[start:end]))
        start = end + 1
    stages.append(tuple(tokens[start:]))
    return stages


def _parse_stage(
    tokens: Sequence[str],
    hints: Mapping[str, UtilityHints] | None,
    depth: int,
) -> UtilityNode:
    name = tokens[0]
    if _is_flag(name) or _SUBSTITUTION.fullmatch(name):
        raise ParseError(f"stage has no utility token: {name!r}")
    util_hints = hints.get(name) if hints else None

    items: list[Item] = []
    positional_index = 0
    after_redirect = False
    i = 1
    while i < len(tokens):
        tok = tokens[i]

        sub = _SUBSTITUTION.fullmatch(tok)
        if sub is not None or tok in _EXEC_FLAGS:
            if depth or (sub is not None and "$(" in sub[1]):
                raise ParseError("nesting deeper than one level")
            if sub is None:
                # the body runs to the first closer, or to the end unclosed
                end = i + 1
                while end < len(tokens) and tokens[end] not in _EXEC_CLOSERS:
                    end += 1
                if end == i + 1:
                    raise ParseError("empty -exec body")
                body = _parse_stage(tokens[i + 1:end], hints, 1)
                closer = tokens[end] if end < len(tokens) else ""
                items.append(ExecClause(tok, body, closer))
                i = end + 1
                continue
            inner = sub[1].strip()
            if not inner:
                raise ParseError("empty command substitution")
            stages = tuple(_parse_stage(st, hints, 1) for st in _scan_stages(inner))
            items.append(Substitution(stages))
            i += 1
            continue

        if _is_flag(tok):
            flag = _parse_flag(tok, tokens[i + 1] if i + 1 < len(tokens) else None,
                               name, util_hints)
            items.append(flag)
            i += 2 if flag.arg is not None and not flag.glued else 1
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
        cat = categorize(tok, utility=name, flag=flag_ctx, declared=declared)
        items.append(ParamNode(tok, cat))
        if tok == ">":
            after_redirect = True
        elif not after_redirect and tok not in PRESERVED_LITERALS:
            positional_index += 1
        i += 1

    return UtilityNode(name, tuple(items))


def _parse_flag(
    tok: str,
    nxt: str | None,
    utility: str,
    util_hints: UtilityHints | None,
) -> FlagNode:
    """A flag with the argument it binds: the value of ``--flag=value``, or
    the next token ``nxt`` when the flag declares an argument and ``nxt`` is
    neither a flag nor a substitution. Flags stay as written; a cluster binds
    its trailing member's argument (``-cjf`` consumes a File for ``-f``)."""
    glued = not is_flag_token(tok)  # _is_flag(tok) holds, so: --flag=value
    if glued:
        tok, nxt = tok.split("=", 1)
    binder = tok
    if util_hints is not None and tok not in util_hints.known_flags:
        binder = _expand_cluster(tok, util_hints) or tok
    declared = util_hints.flag_args.get(binder) if util_hints else None
    if not glued and (declared is None or nxt is None or _is_flag(nxt)
                      or _SUBSTITUTION.fullmatch(nxt)):
        return FlagNode(tok)
    arg = categorize(nxt, utility=utility, flag=binder, declared=declared)
    return FlagNode(tok, ParamNode(nxt, arg), glued)


# A combined short-flag token such as -cjf.
_CLUSTER = re.compile(r"-[A-Za-z0-9]{2,}")


def _expand_cluster(token: str, hints: UtilityHints) -> str | None:
    """The trailing member of a combined short-flag token ("-cjf" gives
    "-f") whose members are all declared and only that member takes an
    argument, if any does; otherwise None."""
    if not _CLUSTER.fullmatch(token):
        return None
    parts = ["-" + ch for ch in token[1:]]
    if not all(p in hints.known_flags for p in parts):
        return None
    if any(p in hints.flag_args for p in parts[:-1]):
        return None
    return parts[-1]


# ---------------------------------------------------------------------------
# Rendering


def render(ast: BashAst) -> str:
    """Render stages joined by " | ", tokens joined by single spaces."""
    return " | ".join(_render_stage(stage) for stage in ast.stages)


def _render_stage(node: UtilityNode, word: Callable[[str], str] = str) -> str:
    return " ".join(_stage_tokens(node, word))


# ---------------------------------------------------------------------------
# Templatize / fill


# Frozen, so every templatized tree shares one node per kind.
_PLACEHOLDER_NODES = {kind: ParamNode(kind.token, kind) for kind in PlaceholderKind}


def _placeholder(p: ParamNode) -> ParamNode:
    if p.literal in PRESERVED_LITERALS:
        return p
    return _PLACEHOLDER_NODES[p.category]


def templatize(ast: BashAst) -> BashAst:
    """Replace every parameter literal with its placeholder token.

    Utilities, flag tokens and structural literals ("{}", ">", "-") are
    untouched, and a token categorizes as its own kind, so the operation is
    idempotent. Any other literal is replaced, "[aeiou]" included. Each
    stage's template is computed once per node (:attr:`UtilityNode.template`).
    """
    return BashAst(tuple(s.template for s in ast.stages))


# A fill value bash would not read back as the very same word: empty, a
# flag, a comment, or holding whitespace, a quote, an expansion or an operator.
_UNSAFE_VALUE = re.compile(r"""\A(?:[-#]|\Z)|[\s'"\\$`|&;<>()]""")


def quote(value: str) -> str:
    """``value`` as one shell word: bare if plain, else single-quoted."""
    if _UNSAFE_VALUE.search(value) is None:
        return value
    return "'" + value.replace("'", "'\\''") + "'"


def fill(
    ast: BashAst, values: Sequence[tuple[PlaceholderKind, str]]
) -> tuple[str, int]:
    """Fill placeholder slots with typed values, left to right.

    Each placeholder takes the first value of its kind not yet taken, as
    one shell word: a plain value (``*.txt``, ``/tmp/x``) stays bare, any
    other is single-quoted. Placeholders with no matching value stay in
    place; the second element of the result counts them. Partial fill is a
    legitimate outcome.
    """
    queues: dict[PlaceholderKind, deque[str]] = {}
    for kind, literal in values:
        queues.setdefault(kind, deque()).append(literal)
    unfilled = 0

    def consume(literal: str) -> str:
        nonlocal unfilled
        kind = PLACEHOLDER_BY_TOKEN.get(literal)
        if kind is not None and queues.get(kind):
            return quote(queues[kind].popleft())
        unfilled += kind is not None
        return literal

    # the render walk calls consume on each parameter left to right,
    # -exec bodies, $(...) stages and --flag=value included
    text = " | ".join(_render_stage(stage, consume) for stage in ast.stages)
    return text, unfilled


# ---------------------------------------------------------------------------
# Vocabulary


def _stage_tokens(
    node: UtilityNode, word: Callable[[str], str] = str
) -> Iterator[str]:
    """The words of a stage in order; ``word`` maps each parameter literal
    to the word written for it (``str`` writes it as it is)."""
    yield node.name
    for it in node.items:
        if isinstance(it, FlagNode):
            if it.arg is None:
                yield it.token
            elif it.glued:
                yield f"{it.token}={word(it.arg.literal)}"
            else:
                yield it.token
                yield word(it.arg.literal)
        elif isinstance(it, ParamNode):
            yield word(it.literal)
        elif isinstance(it, ExecClause):
            yield it.flag
            yield from _stage_tokens(it.body, word)
            if it.closer:
                yield it.closer
        else:
            yield "$(" + " | ".join(_render_stage(s, word) for s in it.stages) + ")"


def vocabulary(corpus: Iterable[BashAst], templatized: bool = False) -> set[str]:
    """Distinct tokens across a corpus, optionally after templatization."""
    asts = list(corpus)
    if not asts:
        raise ValueError("empty corpus")
    vocab: set[str] = set()
    for ast in asts:
        if templatized:
            ast = templatize(ast)
        for stage in ast.stages:
            vocab.update(_stage_tokens(stage))
    return vocab
