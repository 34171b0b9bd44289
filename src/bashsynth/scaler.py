"""Subsample a command pool to match a target head-utility distribution
and pipe fraction.

Water-filling over cells (head group x piped/unpiped), the groups being the
constrained utilities plus one unconstrained group. One bisection over a
continuous relaxation bounds the output size; a walk down from that bound
finds the largest size T at which each constrained utility supplies
round(T * share), the unconstrained group the rest and the cells
round(T * pipe_fraction) piped commands. A seeded shuffle samples exactly
those counts. Heads and pipes come from ``utilities`` metadata.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

from . import bash_ast
from .dataset_io import check_fields, check_object, read_json, shipped

__all__ = [
    "InfeasibleProfile",
    "DistributionProfile",
    "load_profile",
    "default_profile_path",
    "scale",
    "profile_of",
]

DEFAULT_TOLERANCE = 0.02

T_ = TypeVar("T_")


class InfeasibleProfile(ValueError):
    """No nonzero-size subset satisfies the profile within tolerance."""


@dataclass(frozen=True)
class DistributionProfile:
    proportions: Mapping[str, float] = field(default_factory=dict)
    pipe_fraction: float | None = None

    def __post_init__(self) -> None:
        for utility, fraction in self.proportions.items():
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{utility}: fraction {fraction} outside [0, 1]")
        if sum(self.proportions.values()) > 1.0 + 1e-9:
            raise ValueError("constrained proportions sum to more than 1")
        if self.pipe_fraction is not None and not 0.0 <= self.pipe_fraction <= 1.0:
            raise ValueError("pipe_fraction outside [0, 1]")


_PROFILE = {
    "proportions": (lambda v: isinstance(v, dict), "an object", {}),
    "pipe_fraction": (lambda v: v is None or type(v) in (int, float), "a number or null",
                      None),
}
_FRACTION = (lambda v: type(v) in (int, float), "a number", None)


def load_profile(path: str | Path) -> DistributionProfile:
    """The profile in a JSON object with a ``proportions`` object of
    fractions and an optional ``pipe_fraction``; another key, or a value of
    the wrong type (a boolean or a string is not a number), raises
    FormatError naming the file and the key."""
    proportions, pipe = check_object(read_json(Path(path)), _PROFILE, path)
    check_fields(proportions, dict.fromkeys(proportions, _FRACTION), path)
    return DistributionProfile(
        proportions={k: float(v) for k, v in proportions.items()},
        pipe_fraction=None if pipe is None else float(pipe),
    )


def default_profile_path() -> Path:
    return shipped("profiles/original.json")


def _head_and_piped(item: object) -> tuple[str, bool] | None:
    """(head, piped) from ``utilities`` metadata, else from one parse of the
    item's text; None when that text does not parse."""
    utilities = getattr(item, "utilities", ())
    if utilities:
        return utilities[0], len(utilities) > 1
    text = item if isinstance(item, str) else getattr(item, "cmd", None)
    if text is None:
        raise TypeError(f"cannot extract a command from {type(item).__name__}")
    try:
        stages = bash_ast.parse(text).stages
    except bash_ast.ParseError:
        return None
    return stages[0].name, len(stages) > 1


def _size_cap(shares: Sequence[float], available: Sequence[int],
              unpiped: Sequence[int], pipe_target: float | None) -> int:
    """Largest size in [0, sum(available)] that a continuous relaxation of
    the profile admits: no larger size can satisfy it.

    At size T a group takes within its rounding slack of T * share (half a
    unit; the unconstrained group, last, takes the rest: half a unit per
    constrained share), which its cell must hold. With a pipe target each
    group fills what its unpiped cell lacks with piped commands, round(T *
    pipe_target) in all, and the pool must hold that many piped. That test
    keeps a slack of len(shares) units on purpose: the walk down from the
    bound must reach every size whose heads fit, so that its error names
    pipe_fraction. Each test holds at T = 0 and fails from some T on (need
    minus quota is convex), so bisect for the end of the sizes they admit.
    The extra half unit in the cell and quota tests absorbs float error.
    """
    constrained = len(shares) - 1
    slacks = [0.5] * constrained + [constrained / 2]
    piped = sum(available) - sum(unpiped)

    def fits(total: int) -> bool:
        over = [total * s - slack for s, slack in zip(shares, slacks)]
        if any(o > a + 0.5 for o, a in zip(over, available)):
            return False
        if pipe_target is None:
            return True
        need = sum(max(0.0, o - u) for o, u in zip(over, unpiped))
        quota = total * pipe_target
        return need <= quota + 1.0 and quota <= piped + constrained + 1

    low, high = 0, sum(available)
    while low < high:
        mid = (low + high + 1) // 2
        if fits(mid):
            low = mid
        else:
            high = mid - 1
    return low


def scale(
    pool: Sequence[T_],
    profile: DistributionProfile,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[T_]:
    """Largest subset of the pool matching the profile within tolerance.

    Unparseable commands are discarded first. Raises
    :class:`InfeasibleProfile` when no nonzero-size subset fits.
    """
    if not 0 <= tolerance < float("inf"):  # nan too: no share would miss it
        raise ValueError(f"tolerance must be a finite number >= 0, not {tolerance}")
    if not pool:
        raise ValueError("empty pool")
    shares = profile.proportions
    pipe_target = profile.pipe_fraction
    # cells[group] = (unpiped, piped) pool indices; group None collects the
    # unconstrained heads. Without a pipe target every item counts unpiped.
    cells: dict[str | None, tuple[list[int], list[int]]] = {
        group: ([], []) for group in [*sorted(shares), None]
    }
    for idx, item in enumerate(pool):
        if (parsed := _head_and_piped(item)) is not None:
            cell = cells[parsed[0] if parsed[0] in shares else None]
            cell[parsed[1] and pipe_target is not None].append(idx)
    unpiped = [len(u) for u, _ in cells.values()]
    piped = [len(p) for _, p in cells.values()]
    available = [u + p for u, p in zip(unpiped, piped)]
    if not sum(available):
        raise InfeasibleProfile("no parseable commands in pool")

    group_shares = [shares[g] for g in cells if g is not None]
    upper = _size_cap([*group_shares, 1.0 - sum(group_shares)], available, unpiped,
                      pipe_target)

    heads_fit = False
    for total in range(upper, 0, -1):
        takes = [round(total * s) for s in group_shares]
        takes.append(total - sum(takes))
        if any(t < 0 or t > a for t, a in zip(takes, available)):
            continue
        heads_fit = True
        want = round(total * pipe_target) if pipe_target is not None else 0
        least = [max(0, t - u) for t, u in zip(takes, unpiped)]
        most = [min(t, p) for t, p in zip(takes, piped)]
        if sum(least) <= want <= sum(most):
            break
    else:
        if heads_fit:
            raise InfeasibleProfile(f"no output size meets pipe_fraction {pipe_target}")
        raise InfeasibleProfile("no output size satisfies the profile")

    checks = list(zip(sorted(shares), takes, group_shares))
    if pipe_target is not None:
        checks.append(("pipe_fraction", want, pipe_target))
    misses = [
        f"{name}: realized {count / total:.4f} vs target {target:.4f} "
        f"exceeds tolerance {tolerance}"
        for name, count, target in checks if abs(count / total - target) > tolerance
    ]
    if misses:
        raise InfeasibleProfile("; ".join(misses))

    # Each group first takes the piped commands its unpiped cell cannot
    # cover, then the rest of the piped quota goes to groups in order.
    spare = want - sum(least)
    rng = random.Random(seed)
    selected: list[int] = []
    for group, take, low, high in zip(cells.values(), takes, least, most):
        extra = min(spare, high - low)
        spare -= extra
        for indices, count in zip(group, (take - low - extra, low + extra)):
            rng.shuffle(indices)
            selected.extend(indices[:count])
    selected.sort()
    return [pool[i] for i in selected]


def profile_of(dataset: Sequence) -> DistributionProfile:
    """Realized head-utility proportions and pipe fraction of a dataset,
    read from ``utilities`` metadata where the items carry it."""
    if not dataset:
        raise ValueError("empty dataset")
    parsed = [_head_and_piped(item) for item in dataset]
    if None in parsed:
        raise bash_ast.ParseError(f"unparseable command: {dataset[parsed.index(None)]!r}")
    n = len(dataset)
    return DistributionProfile(
        proportions={u: c / n for u, c in sorted(Counter(h for h, _ in parsed).items())},
        pipe_fraction=sum(piped for _, piped in parsed) / n,
    )
