"""Template generation: flag combinations and single-pipe joins.

Templates carry generator-side placeholders like ``[File]``; each parameter
node is categorized with the parser kind its generator kind maps to
(``syntax_kb.to_parser_kind``), so a template's AST matches what parsing its
parser form (``syntax_kb.to_parser_template``) with the KB's hints yields.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .bash_ast import BashAst, FlagNode, Item, ParamNode, UtilityNode, render
from .syntax_kb import FlagSpec, GenArgKind, UtilitySpec, to_parser_kind

__all__ = [
    "SpecError",
    "PipeError",
    "Provenance",
    "GeneratedCommand",
    "DedupResult",
    "generate_unpiped",
    "generate_piped",
    "dedup",
]

MAX_FLAGS_PER_UTILITY = 3


class SpecError(ValueError):
    """Utility spec unusable for generation."""


class PipeError(ValueError):
    """Requested pipe partner is not an allowed successor."""


@dataclass(frozen=True)
class Provenance:
    utilities: tuple[str, ...]
    flags: tuple[str, ...]
    pipe_partner: str | None = None


@dataclass(frozen=True)
class GeneratedCommand:
    template: BashAst
    provenance: Provenance
    id: str

    def render(self) -> str:
        return render(self.template)


@dataclass(frozen=True)
class DedupResult:
    commands: list
    duplicates: int
    duplicate_rate: float


def _placeholder_param(kind: GenArgKind) -> ParamNode:
    return ParamNode(kind.bracket, to_parser_kind(kind))


def _stage_for(spec: UtilitySpec, flag_subset: Sequence[FlagSpec]) -> UtilityNode:
    items: list[Item] = []
    for slot in spec.template:
        if slot == "UTILITY":
            continue
        if slot == "FLAGS":
            for fs in flag_subset:
                arg = _placeholder_param(fs.arg) if fs.arg else None
                items.append(FlagNode(fs.token, arg))
        else:
            items.append(_placeholder_param(GenArgKind(slot)))
    return UtilityNode(spec.name, tuple(items))


def _command_from_stages(
    stages: tuple[UtilityNode, ...], provenance: Provenance
) -> GeneratedCommand:
    ast = BashAst(stages=stages)
    rendered = render(ast)
    cmd_id = hashlib.sha1(rendered.encode("utf-8")).hexdigest()[:12]
    return GeneratedCommand(
        template=BashAst(stages=stages, raw=rendered),
        provenance=provenance,
        id=cmd_id,
    )


def _flag_subsets(spec: UtilitySpec) -> list[tuple[FlagSpec, ...]]:
    ordered = sorted(spec.flags, key=lambda f: f.token)
    subsets: list[tuple[FlagSpec, ...]] = []
    for size in range(0, MAX_FLAGS_PER_UTILITY + 1):
        subsets.extend(itertools.combinations(ordered, size))
    return subsets


def generate_unpiped(
    spec: UtilitySpec, limit: int | None = None, seed: int = 0
) -> list[GeneratedCommand]:
    """Enumerate templates with 0..3 distinct flags in deterministic order.

    Subsets are ordered by size then lexicographic flag token order; when
    ``limit`` is below the total, a seeded uniform sample without
    replacement is taken.
    """
    if not spec.template:
        raise SpecError(f"{spec.name}: spec has no template")
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")

    subsets = _flag_subsets(spec)
    if limit is not None and limit < len(subsets):
        subsets = random.Random(seed).sample(subsets, limit)

    out = []
    for subset in subsets:
        prov = Provenance(
            utilities=(spec.name,),
            flags=tuple(f.token for f in subset),
            pipe_partner=None,
        )
        out.append(_command_from_stages((_stage_for(spec, subset),), prov))
    return out


def generate_piped(
    head: UtilitySpec,
    tail: UtilitySpec,
    head_limit: int | None = None,
    tail_limit: int | None = None,
    seed: int = 0,
) -> list[GeneratedCommand]:
    """Cross product of head and tail templates joined by one pipe."""
    if tail.name not in head.pipe_successors:
        raise PipeError(f"{tail.name} is not an allowed successor of {head.name}")

    heads = generate_unpiped(head, head_limit, seed)
    tails = generate_unpiped(tail, tail_limit, seed + 1)

    out = []
    for h in heads:
        for t in tails:
            prov = Provenance(
                utilities=(head.name, tail.name),
                flags=h.provenance.flags + t.provenance.flags,
                pipe_partner=tail.name,
            )
            out.append(_command_from_stages(h.template.stages + t.template.stages, prov))
    return out


def dedup(
    commands: Sequence, key: Callable[[object], str] | None = None
) -> DedupResult:
    """Order-preserving removal of equal rendered commands."""
    if key is None:
        key = lambda c: c.render() if isinstance(c, GeneratedCommand) else str(c)
    seen: set[str] = set()
    unique = []
    dropped = 0
    for cmd in commands:
        k = key(cmd)
        if k in seen:
            dropped += 1
            continue
        seen.add(k)
        unique.append(cmd)
    rate = dropped / len(commands) if commands else 0.0
    return DedupResult(commands=unique, duplicates=dropped, duplicate_rate=rate)
