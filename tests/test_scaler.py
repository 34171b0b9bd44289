from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bashsynth import bash_ast
from bashsynth import scaler as scaler_mod
from bashsynth.dataset_io import DatasetRecord, TemplateEntry
from bashsynth.generator import generate_unpiped
from bashsynth.scaler import (
    DistributionProfile,
    InfeasibleProfile,
    default_profile_path,
    load_profile,
    profile_of,
    scale,
)


def _pool(find: int, ls: int) -> list[str]:
    return [f"find /d{i}" for i in range(find)] + [f"ls /d{i}" for i in range(ls)]


def _entry(i: int, head: str, piped: bool) -> TemplateEntry:
    if piped:
        return TemplateEntry(str(i), f"{head} /d{i} | sort", (head, "sort"))
    return TemplateEntry(str(i), f"{head} /d{i}", (head,))


def _entries(cells: dict[tuple[str, bool], int]) -> list[TemplateEntry]:
    kinds = [kind for kind, count in cells.items() for _ in range(count)]
    return [_entry(i, head, piped) for i, (head, piped) in enumerate(kinds)]


def _no_parse():
    """TemplateEntry items carry their heads; scale() must not parse them."""
    return mock.patch.object(bash_ast, "parse", side_effect=AssertionError("parsed"))


class TestProfile:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DistributionProfile({"find": 1.2})
        with pytest.raises(ValueError):
            DistributionProfile({"find": 0.7, "ls": 0.7})
        with pytest.raises(ValueError):
            DistributionProfile({}, pipe_fraction=-0.1)

    def test_load_profile_from_hand_written_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"proportions": {"find": 0.6344, "ls": 0.1}, "pipe_fraction": 0.3}')
        assert load_profile(path) == DistributionProfile(
            {"find": 0.6344, "ls": 0.1}, pipe_fraction=0.3
        )
        path.write_text('{"proportions": {"find": 1}, "pipe_fraction": null}')
        assert load_profile(path) == DistributionProfile({"find": 1.0})
        path.write_text('{"pipe_fraction": 0.5}')
        assert load_profile(path) == DistributionProfile({}, pipe_fraction=0.5)

    @pytest.mark.parametrize("text, key", [
        ("[1]", "top level"),
        ('{"proportions": [1]}', "'proportions'"),
        ('{"proportions": {"find": [1]}}', "'find'"),
        ('{"pipe_fraction": "half"}', "'pipe_fraction'"),
        ('{"proportions": {"find": "0.5"}}', "'find'"),
        ('{"pipe_fraction": true}', "'pipe_fraction'"),
        # misspelled: read as absent, the profile would constrain no pipes
        ('{"proportions": {"find": 0.6344}, "pipe_fracton": 0.3136}',
         "unknown field 'pipe_fracton'"),
        # repeated: read as its last value, the profile would leave pipes free
        ('{"pipe_fraction": 0.3136, "pipe_fraction": null}',
         "duplicate key 'pipe_fraction'"),
    ])
    def test_load_profile_refuses_malformed_shapes(self, tmp_path, text, key):
        path = tmp_path / "profile.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_profile(path)
        assert str(exc.value).startswith(f"{path}: {key}")

    def test_default_profile_loads(self):
        profile = load_profile(default_profile_path())
        assert profile.proportions["find"] == pytest.approx(0.6344)
        assert profile.pipe_fraction == pytest.approx(0.3136)


class TestScale:
    def test_spec_example_90_10(self):
        out = scale(_pool(90, 10), DistributionProfile({"find": 0.6344}), seed=5)
        realized = sum(1 for c in out if c.startswith("find")) / len(out)
        assert abs(realized - 0.6344) <= 0.02
        assert all(c.startswith(("find", "ls")) for c in out)

    def test_uniform_profile_on_uniform_pool_is_identity(self):
        pool = _pool(10, 10)
        out = scale(pool, DistributionProfile({"find": 0.5, "ls": 0.5}), seed=0)
        assert sorted(out) == sorted(pool)

    def test_absent_utility_infeasible(self):
        with pytest.raises(InfeasibleProfile):
            scale(_pool(10, 0), DistributionProfile({"tar": 0.5}), seed=0)

    def test_output_is_subset_without_duplicates(self):
        pool = _pool(300, 70)
        out = scale(pool, DistributionProfile({"find": 0.6}), seed=2)
        pool_set = set(pool)
        assert all(c in pool_set for c in out)
        assert len(out) == len(set(out))

    def test_deterministic_under_seed(self):
        pool = _pool(200, 60)
        profile = DistributionProfile({"find": 0.7})
        assert scale(pool, profile, seed=4) == scale(pool, profile, seed=4)
        assert scale(pool, profile, seed=4) != scale(pool, profile, seed=5)

    def test_unparseable_discarded_first(self):
        pool = _pool(30, 10) + ['grep "broken', "| sort"]
        out = scale(pool, DistributionProfile({"find": 0.75}), seed=1)
        assert 'grep "broken' not in out
        assert "| sort" not in out

    def test_zero_target_drops_utility(self):
        out = scale(_pool(20, 20), DistributionProfile({"find": 0.0}), seed=0)
        assert all(not c.startswith("find") for c in out)
        assert len(out) == 20

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            scale([], DistributionProfile({"find": 0.5}))
        with pytest.raises(InfeasibleProfile, match="no parseable commands in pool"):
            scale(['grep "broken', "| sort"], DistributionProfile({"find": 0.5}))

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.5])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance, monkeypatch):
        # refused before any work: no item of the pool is looked at
        monkeypatch.setattr(scaler_mod, "_head_and_piped", None)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0") as exc:
            scale(_pool(90, 10), DistributionProfile({"find": 0.6344}), tolerance=tolerance)
        assert not isinstance(exc.value, InfeasibleProfile)

    def test_generated_commands_accepted(self, kb):
        pool = generate_unpiped(kb.get("find"), limit=30, seed=1) + generate_unpiped(
            kb.get("ls"), limit=30, seed=1
        )
        out = scale(pool, DistributionProfile({"find": 0.5}), seed=3)
        realized = sum(
            1 for c in out if c.utilities[0] == "find"
        ) / len(out)
        assert abs(realized - 0.5) <= 0.02

    def test_dataset_records_accepted(self):
        pool = [
            DatasetRecord(nl=f"s{i}", cmd=cmd, source="generated")
            for i, cmd in enumerate(_pool(40, 20))
        ]
        out = scale(pool, DistributionProfile({"find": 0.5}), seed=3)
        assert all(isinstance(r, DatasetRecord) for r in out)


class TestPipeFraction:
    def test_both_dimensions_met(self):
        pool = _entries({("find", False): 50, ("find", True): 200,
                         ("ls", False): 40, ("ls", True): 300})
        profile = DistributionProfile({"find": 0.6344}, pipe_fraction=0.3136)
        with _no_parse():
            out = scale(pool, profile, seed=1)
            realized = profile_of(out)
        assert abs(realized.proportions["find"] - 0.6344) <= 0.02
        assert abs(realized.pipe_fraction - 0.3136) <= 0.02
        # 90 unpiped commands bound the output at 90 / (1 - 0.3136)
        assert len(out) == 131

    def test_unmeetable_pipe_fraction_names_it(self):
        pool = _entries({("find", False): 30, ("ls", False): 30})
        with pytest.raises(InfeasibleProfile, match="pipe_fraction"):
            scale(pool, DistributionProfile({"find": 0.5}, pipe_fraction=0.5))

    def test_pipe_tolerance_names_pipe_fraction(self):
        pool = _entries({("ls", False): 2, ("ls", True): 1})
        with pytest.raises(InfeasibleProfile, match="pipe_fraction"):
            scale(pool, DistributionProfile({}, pipe_fraction=0.4))

    def test_infeasible_pipe_split_stops_early(self, monkeypatch):
        # Piped find must make up 0.63 of the output but pipes only 0.31:
        # no size beyond a handful can meet both, however large the pool.
        pool = _entries({("find", True): 3000, ("ls", False): 3000})
        tried: list[int] = []

        def counting_range(*args):
            for total in range(*args):
                tried.append(total)
                yield total

        monkeypatch.setattr(scaler_mod, "range", counting_range, raising=False)
        with pytest.raises(InfeasibleProfile, match="pipe_fraction"):
            scale(pool, load_profile(default_profile_path()))
        assert 0 < len(tried) <= 10

    def test_scarce_pipes_stop_early(self, monkeypatch):
        # 1k piped commands cap the output near 1k / 0.3136 however many
        # unpiped ones the pool holds: only the piped-supply test says so.
        find, ls = _entry(0, "find", False), _entry(1, "ls", False)
        pool = [find] * 200_000 + [ls] * 100_000 + _entries(
            {("find", True): 500, ("ls", True): 500})
        tried: list[int] = []

        def counting_range(*args):
            for total in range(*args):
                tried.append(total)
                yield total

        monkeypatch.setattr(scaler_mod, "range", counting_range, raising=False)
        out = scale(pool, load_profile(default_profile_path()))
        assert sum(len(e.utilities) > 1 for e in out) == round(len(out) * 0.3136)
        assert 0 < len(tried) <= 10

    def test_float_error_in_the_rest_keeps_the_exact_size(self):
        # 110 * (1 - 0.45) is 60.50000000000001 in floats: a cell test
        # without room for that error would cap the size at 109
        out = scale(_pool(50, 60), DistributionProfile({"find": 0.45}))
        assert len(out) == 110


# ---------------------------------------------------------------------------
# Property tests against brute-force oracles

HEADS = ("find", "ls", "cat")


def _parent_scan_size(pool, profile) -> int | None:
    """The one-dimensional scan down from the pool size, as scale() ran
    before it honoured pipe_fraction."""
    heads = [e.utilities[0] for e in pool]
    by_utility = {u: heads.count(u) for u in set(heads)}
    unconstrained = sum(c for u, c in by_utility.items() if u not in profile.proportions)
    for total in range(len(pool), 0, -1):
        candidate = {u: round(total * p) for u, p in profile.proportions.items()}
        if any(candidate[u] > by_utility.get(u, 0) for u in candidate):
            continue
        rest = total - sum(candidate.values())
        if 0 <= rest <= unconstrained:
            return total
    return None


def _oracle_size(pool, profile) -> int | None:
    """Largest size at which some piped count per head group (enumerated
    in full) meets the rounded head counts and the rounded pipe count."""
    groups = [*profile.proportions, None]
    cells = {g: [0, 0] for g in groups}
    for e in pool:
        head = e.utilities[0]
        cells[head if head in profile.proportions else None][len(e.utilities) > 1] += 1
    for total in range(len(pool), 0, -1):
        takes = [round(total * p) for p in profile.proportions.values()]
        takes.append(total - sum(takes))
        want = round(total * profile.pipe_fraction)
        for piped in itertools.product(*(range(cells[g][1] + 1) for g in groups)):
            if sum(piped) == want and all(
                0 <= take - x <= cells[g][0] for g, take, x in zip(groups, takes, piped)
            ):
                return total
    return None


def _within(size: int, profile: DistributionProfile, tolerance: float) -> bool:
    targets = [*profile.proportions.values(), profile.pipe_fraction]
    return all(abs(round(size * t) / size - t) <= tolerance for t in targets)


@st.composite
def pools(draw, most_piped: int = 5):
    counts = {(head, p): draw(st.integers(0, most_piped if p else 5))
              for head in HEADS for p in (False, True)}
    kinds = draw(st.permutations([k for k, c in counts.items() for _ in range(c)]))
    return [_entry(i, head, p) for i, (head, p) in enumerate(kinds)]


@st.composite
def profiles(draw, piped: bool = True):
    constrained = draw(st.lists(st.sampled_from(HEADS), unique=True))
    shares = draw(
        st.lists(st.integers(0, 20), min_size=len(constrained), max_size=len(constrained))
        .filter(lambda xs: sum(xs) <= 20)
    )
    pipe = draw(st.integers(0, 20).map(lambda x: x / 20)) if piped else None
    return DistributionProfile(
        {u: x / 20 for u, x in zip(constrained, shares)}, pipe_fraction=pipe
    )


def _scale_or_none(pool, profile, seed, tolerance):
    try:
        return scale(pool, profile, seed=seed, tolerance=tolerance)
    except InfeasibleProfile:
        return None


class TestScaleProperties:
    @settings(max_examples=150, deadline=None)
    @given(pools(), profiles(), st.sampled_from([0.02, 0.1, 1.0]), st.integers(0, 3))
    def test_matches_oracle(self, pool, profile, tolerance, seed):
        if not pool:
            return
        size = _oracle_size(pool, profile)
        with _no_parse():
            out = _scale_or_none(pool, profile, seed, tolerance)
            if size is None or not _within(size, profile, tolerance):
                assert out is None
                return
            assert out is not None and len(out) == size
            realized = profile_of(out)
            assert _scale_or_none(pool, profile, seed, tolerance) == out
        ids = [e.id for e in out]
        assert len(set(ids)) == len(ids)
        assert set(ids) <= {e.id for e in pool}
        for utility, target in profile.proportions.items():
            assert abs(realized.proportions.get(utility, 0.0) - target) <= tolerance
        assert abs(realized.pipe_fraction - profile.pipe_fraction) <= tolerance

    @settings(max_examples=150, deadline=None)
    @given(pools(), profiles(piped=False), st.integers(0, 3))
    def test_no_pipe_target_keeps_parent_size(self, pool, profile, seed):
        if not pool:
            return
        size = _parent_scan_size(pool, profile)
        with _no_parse():
            out = _scale_or_none(pool, profile, seed, 1.0)
        assert (None if out is None else len(out)) == size


class TestSizeCap:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0, 1, 5]).flatmap(pools),
        profiles(piped=False),
        st.sampled_from([None, 0.0, 1.0, 0.3]),
    )
    def test_cap_is_never_below_the_exact_size(self, pool, profile, pipe):
        # the walk down from the cap must reach the largest size its exact
        # check accepts, found here by trying every size
        if not pool:
            return
        profile = DistributionProfile(profile.proportions, pipe_fraction=pipe)
        groups = [*sorted(profile.proportions), None]
        available, unpiped = [0] * len(groups), [0] * len(groups)
        for e in pool:
            g = groups.index(e.utilities[0] if e.utilities[0] in groups else None)
            available[g] += 1
            unpiped[g] += pipe is None or len(e.utilities) == 1
        shares = [profile.proportions[g] for g in groups[:-1]]
        cap = scaler_mod._size_cap([*shares, 1.0 - sum(shares)], available, unpiped, pipe)
        exact = (_parent_scan_size if pipe is None else _oracle_size)(pool, profile)
        assert cap >= (exact or 0)


class TestProfileOf:
    def test_small_example(self):
        profile = profile_of(["find .", "find / | sort", "ls"])
        assert profile.proportions["find"] == pytest.approx(2 / 3)
        assert profile.proportions["ls"] == pytest.approx(1 / 3)
        assert profile.pipe_fraction == pytest.approx(1 / 3)

    def test_unparseable_command_named(self):
        with pytest.raises(bash_ast.ParseError, match="unparseable command: 'grep \"broken'"):
            profile_of(["find .", 'grep "broken'])

    def test_head_utility_only(self):
        profile = profile_of(["find . | sort", "find . | sort"])
        assert set(profile.proportions) == {"find"}

    def test_proportions_sum_to_one(self, corpus_lines):
        profile = profile_of(corpus_lines)
        assert sum(profile.proportions.values()) == pytest.approx(1.0)

    def test_scale_then_profile_matches_target(self):
        pool = _pool(900, 100)
        out = scale(pool, DistributionProfile({"find": 0.6344}), seed=9)
        realized = profile_of(out)
        assert abs(realized.proportions["find"] - 0.6344) <= 0.02
