"""Structural accuracy scoring over utilities and flags.

The flag score rewards overlap between predicted and reference flag sets:
raw = (2 * |intersection| - |union|) / max(|pred|, |ref|). The printed
formula can reach -2 for disjoint sets of unequal size even though the
stated range is [-1, 1], so the score is clamped and the raw value stays
available for diagnostics.

The utility score aligns utility nodes positionally across pipe stages:
a matching utility at position i contributes (1/T) * (1 + S_F) / 2, a
mismatch contributes -(1/T), with T the longer utility count. Scoring is
structural: parameter literals never influence the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bash_ast import BashAst, ParseError, UtilityHints, parse

__all__ = [
    "flag_score",
    "raw_flag_score",
    "ScoredPair",
    "score_pair",
    "dataset_accuracy",
]


def raw_flag_score(pred: Iterable[str], ref: Iterable[str]) -> float:
    """Flag score exactly as printed; may fall below -1."""
    fp, fr = frozenset(pred), frozenset(ref)
    n = max(len(fp), len(fr))
    if n == 0:
        return 1.0  # vacuous perfect match
    inter = len(fp & fr)
    union = len(fp) + len(fr) - inter
    return (2.0 * inter - union) / n


def flag_score(pred: Iterable[str], ref: Iterable[str]) -> float:
    """Flag score clamped to [-1, 1]."""
    raw = raw_flag_score(pred, ref)
    return max(-1.0, min(1.0, raw))


_Sequence = tuple[tuple[str, frozenset[str]], ...]


def _utility_sequence(command: BashAst | str, hints=None) -> _Sequence:
    """(name, flag tokens) of each utility node in document order."""
    ast = command if isinstance(command, BashAst) else parse(command, hints)
    seq: _Sequence = ()
    for stage in ast.stages:
        seq += stage.signature
    return seq


def _aligned_score(pred_seq: _Sequence, ref_seq: _Sequence) -> float:
    total = 0.0
    for (pred_name, pred_flags), (ref_name, ref_flags) in zip(pred_seq, ref_seq):
        if pred_name == ref_name:
            total += 0.5 * (1.0 + flag_score(pred_flags, ref_flags))
        else:
            total -= 1.0
    # one -1 per position only the longer sequence has, added one at a time
    # as a position-by-position walk would, so the sum rounds the same way
    for _ in range(abs(len(pred_seq) - len(ref_seq))):
        total -= 1.0
    return total / max(len(pred_seq), len(ref_seq))


@dataclass(frozen=True)
class ScoredPair:
    per_candidate: tuple[float, ...]
    final: float


def score_pair(
    reference: BashAst | str,
    candidates: Sequence[tuple[BashAst | str, float]],
    hints: Mapping[str, UtilityHints] | None = None,
) -> ScoredPair:
    """Score candidates against one reference, weighted by confidence.

    Policy: take the best confidence-weighted utility score when it is
    positive, otherwise the confidence-weighted mean. A single candidate
    with confidence 1 reduces to its utility score. Candidates that fail
    to parse score -1.
    """
    if not candidates:
        raise ValueError("at least one candidate is required")
    ref_seq = _utility_sequence(reference, hints)

    scores: list[float] = []
    for cand, confidence in candidates:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        try:
            scores.append(_aligned_score(_utility_sequence(cand, hints), ref_seq))
        except ParseError:
            scores.append(-1.0)

    weighted = [c * s for (_, c), s in zip(candidates, scores)]
    best = max(weighted)
    if best > 0:
        final = best
    else:
        conf_sum = sum(c for _, c in candidates)
        if conf_sum > 0:
            final = sum(weighted) / conf_sum
        else:
            final = sum(scores) / len(scores)

    return ScoredPair(per_candidate=tuple(scores), final=final)


def dataset_accuracy(pairs: Sequence[ScoredPair]) -> float:
    """Arithmetic mean of final scores, as a percentage."""
    if not pairs:
        raise ValueError("no scored pairs")
    return sum(p.final for p in pairs) / len(pairs) * 100.0
