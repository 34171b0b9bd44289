"""Template generation: flag combinations and single-pipe joins.

A template is text plus metadata: a ``dataset_io.TemplateEntry`` whose
``cmd`` carries generator-side placeholders like ``[File]`` and whose
``utilities``, ``flags`` and ``pipe_partner`` record how it was built. Each
flag subset's stage is rendered once as text; a piped template joins a head
and a tail template with " | ". Later stages read only that text and
metadata; its parser form (``syntax_kb.to_parser_template``) parses with the
KB's hints to the kinds the spec declares, and to the stages and flags the
metadata names. The templates of specs that ``syntax_kb.UtilitySpec``
accepts are distinct, so ``generate`` writes them as they are made.
``dedup``'s one caller is perfbench's synth_full workload, which pools every
template first; ``LlmSession.pipeline`` drops repeated replies with
``dict.fromkeys``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .dataset_io import TemplateEntry
from .syntax_kb import FlagSpec, GenArgKind, UtilitySpec

__all__ = [
    "PipeError",
    "DedupResult",
    "generate_unpiped",
    "generate_piped",
    "dedup",
]

MAX_FLAGS_PER_UTILITY = 3


class PipeError(ValueError):
    """Requested pipe partner is not an allowed successor."""


@dataclass(frozen=True)
class DedupResult:
    commands: list
    duplicates: int


def _entry(
    cmd: str,
    utilities: tuple[str, ...],
    flags: tuple[str, ...],
    pipe_partner: str | None = None,
) -> TemplateEntry:
    cmd_id = hashlib.sha1(cmd.encode("utf-8")).hexdigest()[:12]
    return TemplateEntry(cmd_id, cmd, utilities, flags, pipe_partner)


def _stage_text(spec: UtilitySpec, flag_subset: Sequence[FlagSpec]) -> str:
    """The utility, then each template slot in order; a flag that takes an
    argument is followed by its placeholder."""
    parts = [spec.name]
    for slot in spec.template:
        if slot == "UTILITY":
            continue
        if slot == "FLAGS":
            for fs in flag_subset:
                parts.append(fs.token)
                if fs.arg:
                    parts.append(fs.arg.bracket)
        else:
            parts.append(GenArgKind(slot).bracket)
    return " ".join(parts)


def _flag_subsets(spec: UtilitySpec) -> list[tuple[FlagSpec, ...]]:
    ordered = sorted(spec.flags, key=lambda f: f.token)
    subsets: list[tuple[FlagSpec, ...]] = []
    for size in range(0, MAX_FLAGS_PER_UTILITY + 1):
        subsets.extend(itertools.combinations(ordered, size))
    return subsets


def generate_unpiped(
    spec: UtilitySpec, limit: int | None = None, seed: int = 0
) -> list[TemplateEntry]:
    """Enumerate templates with 0..3 distinct flags in deterministic order.

    Subsets are ordered by size then lexicographic flag token order; when
    ``limit`` is below the total, a seeded uniform sample without
    replacement is taken.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")

    subsets = _flag_subsets(spec)
    if limit is not None and limit < len(subsets):
        subsets = random.Random(seed).sample(subsets, limit)

    utilities = (spec.name,)
    return [
        _entry(_stage_text(spec, subset), utilities, tuple(f.token for f in subset))
        for subset in subsets
    ]


def generate_piped(
    head: UtilitySpec,
    tail: UtilitySpec,
    head_limit: int | None = None,
    tail_limit: int | None = None,
    seed: int = 0,
) -> list[TemplateEntry]:
    """Cross product of head and tail templates joined by one pipe."""
    if tail.name not in head.pipe_successors:
        raise PipeError(f"{tail.name} is not an allowed successor of {head.name}")

    heads = generate_unpiped(head, head_limit, seed)
    tails = generate_unpiped(tail, tail_limit, seed + 1)

    utilities = (head.name, tail.name)
    return [
        _entry(f"{h.cmd} | {t.cmd}", utilities, h.flags + t.flags, tail.name)
        for h in heads
        for t in tails
    ]


def dedup(commands: Sequence) -> DedupResult:
    """Order-preserving removal of equal commands: a string is its own key,
    a template or record is keyed by its ``cmd``. Only perfbench's
    synth_full workload calls it, on the pool it generates."""
    seen: set[str] = set()
    unique = []
    dropped = 0
    for cmd in commands:
        k = cmd if isinstance(cmd, str) else cmd.cmd
        if k in seen:
            dropped += 1
            continue
        seen.add(k)
        unique.append(cmd)
    return DedupResult(commands=unique, duplicates=dropped)
