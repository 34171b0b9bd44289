from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bashsynth import bash_ast as B
from bashsynth import metrics as M
from bashsynth.dataset_io import stats
from test_bash_ast import NESTING_HINTS, nested_commands

# ---------------------------------------------------------------------------
# Independent oracle: evaluates the two score formulas from scratch on
# (name, flag tuple) pairs, never touching the implementation under test.


def oracle_flag_score(pred, ref):
    inter = 0
    for f in set(pred):
        if f in set(ref):
            inter += 1
    union = len(set(pred)) + len(set(ref)) - inter
    n = max(len(set(pred)), len(set(ref)))
    if n == 0:
        return 1.0
    raw = (2.0 * inter - union) / n
    if raw < -1.0:
        return -1.0
    if raw > 1.0:
        return 1.0
    return raw


def oracle_utility_score(pred_stages, ref_stages):
    t = max(len(pred_stages), len(ref_stages))
    total = 0.0
    for i in range(t):
        p = pred_stages[i] if i < len(pred_stages) else None
        r = ref_stages[i] if i < len(ref_stages) else None
        if p is not None and r is not None and p[0] == r[0]:
            total += 0.5 * (1.0 + oracle_flag_score(p[1], r[1]))
        else:
            total -= 1.0
    return total / t


def oracle_stages(ast):
    """(name, flag tuple) of every utility node, depth first in document
    order: a stage, then its -exec bodies and $(...) stages."""
    out = []

    def visit(node):
        flags = tuple(it.token if isinstance(it, B.FlagNode) else it.flag
                      for it in node.items
                      if isinstance(it, (B.FlagNode, B.ExecClause)))
        out.append((node.name, flags))
        for it in node.items:
            if isinstance(it, B.ExecClause):
                visit(it.body)
            elif isinstance(it, B.Substitution):
                for stage in it.stages:
                    visit(stage)

    for stage in ast.stages:
        visit(stage)
    return out


def oracle_final(scores, confidences):
    weighted = [c * s for c, s in zip(confidences, scores)]
    if max(weighted) > 0:
        return max(weighted)
    if sum(confidences) > 0:
        return sum(weighted) / sum(confidences)
    return sum(scores) / len(scores)


def ast_of(stages):
    return B.BashAst(
        stages=tuple(
            B.UtilityNode(name, tuple(B.FlagNode(f) for f in flags))
            for name, flags in stages
        )
    )


class TestFlagScore:
    def test_identical_sets(self):
        assert M.flag_score({"-name", "-type"}, {"-name", "-type"}) == 1.0

    def test_subset(self):
        assert M.flag_score({"-name"}, {"-name", "-type"}) == 0.0

    def test_disjoint_clamps(self):
        assert M.flag_score({"-a"}, {"-b"}) == -1.0
        assert M.raw_flag_score({"-a"}, {"-b"}) == -2.0

    def test_both_empty(self):
        assert M.flag_score(set(), set()) == 1.0

    def test_symmetry(self):
        for fp, fr in [({"-a"}, {"-a", "-b"}), ({"-a", "-c"}, {"-b"}), (set(), {"-x"})]:
            assert M.flag_score(fp, fr) == M.flag_score(fr, fp)

    @given(
        fp=st.frozensets(st.sampled_from("abcde"), max_size=5),
        fr=st.frozensets(st.sampled_from("abcde"), max_size=5),
    )
    def test_property_matches_oracle_and_range(self, fp, fr):
        score = M.flag_score(fp, fr)
        assert score == oracle_flag_score(fp, fr)
        assert -1.0 <= score <= 1.0

    def test_monotone_in_intersection(self):
        # grow the intersection while the union stays fixed
        ref = {"-a", "-b", "-c"}
        scores = [
            M.flag_score(set(pred), ref)
            for pred in ({"-x", "-y", "-z"}, {"-a", "-y", "-z"}, {"-a", "-b", "-z"},
                         {"-a", "-b", "-c"})
        ]
        assert scores == sorted(scores)


def utility_score(pred, ref, hints=None):
    """A single candidate at confidence 1 scores its utility score."""
    return M.score_pair(ref, [(pred, 1.0)], hints).final


class TestUtilityScore:
    def test_exact_match(self):
        assert utility_score("grep -w foo bar", "grep -w foo bar") == 1.0

    def test_single_mismatch(self):
        assert utility_score("ls", "find") == -1.0

    def test_half_match_pipeline(self):
        assert utility_score("find -name x | sort", "find -name x | wc") == 0.0

    def test_length_mismatch_pads_with_mismatch(self):
        score = utility_score("find .", "find . | sort")
        assert score == pytest.approx(0.0)

    def test_identity_on_corpus(self, corpus_lines, hints):
        for line in corpus_lines:
            assert utility_score(B.parse(line, hints), B.parse(line, hints)) == 1.0

    def test_parameters_do_not_matter(self):
        assert utility_score("grep -w foo a.txt", "grep -w other b.txt") == 1.0


class TestOracleEquivalence:
    def test_exhaustive_grid(self):
        utilities = ["find", "grep", "sort"]
        alphabet = ["-a", "-b", "-c", "-d", "-e"]
        subsets = [
            combo
            for size in range(0, 4)
            for combo in itertools.combinations(alphabet, size)
        ]
        single = [(u, fs) for u in utilities for fs in subsets]
        cases = 0
        for pred in single:
            pred_ast = ast_of([pred])
            for ref in single:
                got = utility_score(pred_ast, ast_of([ref]))
                want = oracle_utility_score([pred], [ref])
                assert got == want
                cases += 1
        assert cases == 78 * 78


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_scores_match_oracle_on_nested_commands(data):
    ref = data.draw(nested_commands, label="ref")
    texts = st.one_of(st.just(ref), nested_commands, st.just("| broken"))
    candidates = data.draw(st.lists(
        st.tuples(texts, st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        min_size=1, max_size=3), label="candidates")
    ref_ast = B.parse(ref, NESTING_HINTS)
    ref_stages = oracle_stages(ref_ast)
    assert [node.name for node in ref_ast.walk_utilities()] == [n for n, _ in ref_stages]
    report = stats([ref], NESTING_HINTS)
    assert report.utility_counts == Counter(n for n, _ in ref_stages)
    assert report.flag_count_hist == Counter(len(flags) for _, flags in ref_stages)
    assert report.piped == (len(ref_ast.stages) > 1)
    want = []
    for text, _ in candidates:
        try:
            cand_ast = B.parse(text, NESTING_HINTS)
        except B.ParseError:
            want.append(-1.0)
            continue
        want.append(oracle_utility_score(oracle_stages(cand_ast), ref_stages))
        assert utility_score(cand_ast, ref_ast) == want[-1]
        assert utility_score(text, ref, NESTING_HINTS) == want[-1]
    pair = M.score_pair(ref, candidates, NESTING_HINTS)
    assert pair.per_candidate == tuple(want)
    assert pair.final == oracle_final(want, [c for _, c in candidates])


class TestScorePair:
    def test_single_candidate_confidence_one(self):
        pair = M.score_pair("find . -name x", [("ls", 1.0), ])
        assert pair.final == pair.per_candidate[0]

    def test_reduces_to_utility_score(self):
        pair = M.score_pair("grep -w a b", [("grep -w a b", 1.0)])
        assert pair.final == 1.0

    def test_max_positive_weighted_wins(self):
        pair = M.score_pair("find", [("find", 0.5), ("ls", 1.0)])
        assert pair.per_candidate == (1.0, -1.0)
        assert pair.final == 0.5

    def test_all_negative_uses_weighted_mean(self):
        pair = M.score_pair("find", [("ls", 0.5), ("du", 0.5)])
        assert pair.final == pytest.approx(-1.0)

    def test_zero_confidence_takes_plain_mean(self):
        pair = M.score_pair("find", [("ls", 0.0), ("find", 0.0), ("find", 0.0)])
        assert pair.per_candidate == (-1.0, 1.0, 1.0)
        assert pair.final == pytest.approx(1 / 3)

    def test_unparseable_candidate_scores_minus_one(self):
        pair = M.score_pair("ls", [('grep "broken', 1.0)])
        assert pair.per_candidate == (-1.0,)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            M.score_pair("ls", [])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            M.score_pair("ls", [("ls", 1.5)])


class TestDatasetAccuracy:
    def test_all_exact(self):
        pairs = [M.score_pair(c, [(c, 1.0)]) for c in ("ls -la", "find . -name x")]
        assert M.dataset_accuracy(pairs) == 100.0

    def test_mean_of_mixed_scores(self):
        pairs = [
            M.score_pair("ls", [("ls", 1.0)]),          # 1.0
            M.score_pair("find -a", [("find -b", 1.0)]),  # 0.0 (utility match, flags disjoint)
            M.score_pair("ls", [("find", 1.0)]),          # -1.0
        ]
        assert [p.final for p in pairs] == [1.0, 0.0, -1.0]
        assert M.dataset_accuracy(pairs) == 0.0

    def test_self_scoring_is_100(self, corpus_lines, hints):
        pairs = [
            M.score_pair(B.parse(c, hints), [(B.parse(c, hints), 1.0)])
            for c in corpus_lines[:40]
        ]
        assert M.dataset_accuracy(pairs) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            M.dataset_accuracy([])
