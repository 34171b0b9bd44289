"""Subsample a command pool to match a target head-utility distribution
and pipe fraction.

Water-filling over cells (head group x piped/unpiped), the head groups being
the constrained utilities plus one unconstrained group: find the largest
output size T at which every constrained utility supplies round(T * share),
the unconstrained group covers the rest and the cells together supply
round(T * pipe_fraction) piped commands, then sample exactly those counts
with a seeded shuffle. Heads and pipes come from ``utilities`` metadata.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

from . import bash_ast

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


def load_profile(path: str | Path) -> DistributionProfile:
    """The profile in a JSON object with a ``proportions`` object of
    fractions and an optional ``pipe_fraction``; a value of the wrong shape
    raises ValueError naming the file and the key."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    proportions = data.get("proportions", {})
    if not isinstance(proportions, dict):
        raise ValueError(f"{path}: 'proportions' must be a JSON object")

    def number(key: str, value: object) -> float:
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"{path}: {key!r} is not a number: {value!r}") from None

    pipe = data.get("pipe_fraction")
    return DistributionProfile(
        proportions={str(k): number(k, v) for k, v in proportions.items()},
        pipe_fraction=number("pipe_fraction", pipe) if pipe is not None else None,
    )


def default_profile_path() -> Path:
    return Path(resources.files("bashsynth").joinpath("data/profiles/original.json"))


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


def _pipe_split_cap(
    shares: Sequence[float], unpiped: Sequence[int], pipe_target: float, upper: int
) -> int:
    """Largest size in [0, upper] that can meet the pipe split.

    At size T each group takes within its rounding slack of T * share (the
    unconstrained group, last, within half a unit per constrained share) and
    must fill what its unpiped cell lacks with piped commands, which number
    round(T * pipe_target). The continuous relaxation of that need minus the
    quota is convex in T and 0 at T = 0, so the sizes meeting it form a
    prefix of the integers; bisect for its end. The extra half unit on the
    quota absorbs float error in the products.
    """
    slacks = [0.5] * (len(shares) - 1) + [(len(shares) - 1) / 2]

    def fits(total: int) -> bool:
        need = sum(
            max(0.0, total * s - u - slack)
            for s, u, slack in zip(shares, unpiped, slacks)
        )
        return need <= total * pipe_target + 1.0

    low, high = 0, upper
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

    # round() lands within 1/2 of T * share, so `count` items cannot fill
    # a share at any T above (count + len(shares) + 1) / share.
    group_shares = [shares[g] for g in cells if g is not None]
    cell_shares = [*group_shares, 1.0 - sum(group_shares)]
    margins = list(zip(available, cell_shares))
    if pipe_target is not None:
        margins += [(sum(unpiped), 1.0 - pipe_target), (sum(piped), pipe_target)]
    upper = sum(available)
    for count, share in margins:
        if share > 0:
            upper = min(upper, int((count + len(shares) + 1) / share))
    if pipe_target is not None:
        upper = _pipe_split_cap(cell_shares, unpiped, pipe_target, upper)

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
