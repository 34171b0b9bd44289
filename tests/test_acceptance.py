"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Reference statistics that require trained models, GPUs, or live
API access are excluded by design (criterion 11).
"""

from __future__ import annotations

import itertools
import random
import string
import time
from pathlib import Path

from bashsynth import bash_ast as B
from bashsynth import dataset_io as D
from bashsynth import generator as G
from bashsynth import llm_bridge as L
from bashsynth import metrics as M
from bashsynth import validator as V
from bashsynth.scaler import DistributionProfile, scale
from bashsynth.syntax_kb import FlagSpec, UtilitySpec

from conftest import make_replay_entries
from test_metrics import ast_of, oracle_utility_score


def _verdict(number: int, description: str) -> None:
    print(f"\n[criterion {number:2d}] PASS  {description}")


def test_criterion_01_metric_oracle_equivalence():
    utilities = ["find", "grep", "sort"]
    alphabet = ["-a", "-b", "-c", "-d", "-e"]
    subsets = [
        c for size in range(0, 4) for c in itertools.combinations(alphabet, size)
    ]
    singles = [((u, fs),) for u in utilities for fs in subsets]

    small_subsets = [c for size in range(0, 2) for c in itertools.combinations(alphabet, size)]
    stage_choices = [(u, fs) for u in ("find", "grep") for fs in small_subsets]
    doubles = [(a, b) for a in stage_choices for b in stage_choices]

    commands = singles + doubles
    asts = [ast_of(stages) for stages in commands]

    start = time.perf_counter()
    cases = 0
    for group_a, group_b in ((singles, singles), (doubles, doubles), (singles, doubles)):
        offset_a = 0 if group_a is singles else len(singles)
        offset_b = 0 if group_b is singles else len(singles)
        for i, pred in enumerate(group_a):
            pred_ast = asts[offset_a + i]
            for j, ref in enumerate(group_b):
                got = M.score_pair(asts[offset_b + j], [(pred_ast, 1.0)]).final
                want = oracle_utility_score(list(pred), list(ref))
                assert got == want, (pred, ref)
                cases += 1
    elapsed = time.perf_counter() - start

    assert cases >= 10_000
    assert elapsed < 10.0
    _verdict(1, f"implementation == oracle on {cases} cases in {elapsed:.2f}s")


def test_criterion_02_identity_scoring(corpus_lines, hints):
    assert len(corpus_lines) >= 200
    pairs = []
    for command in corpus_lines:
        ast = B.parse(command, hints)
        pairs.append(M.score_pair(ast, [(ast, 1.0)], hints))
        assert pairs[-1].final == 1.0, command
    accuracy = M.dataset_accuracy(pairs)
    assert accuracy == 100.0
    _verdict(2, f"self-score 1.0 for {len(corpus_lines)} commands, accuracy {accuracy}%")


def test_criterion_03_clamp_behavior():
    assert M.flag_score({"-a"}, {"-b"}) == -1.0
    assert M.raw_flag_score({"-a"}, {"-b"}) == -2.0
    _verdict(3, "disjoint singleton sets clamp to -1.0 with raw -2.0 exposed")


def test_criterion_04_parser_round_trip(corpus_lines, hints):
    for command in corpus_lines:
        ast = B.parse(command, hints)
        assert B.parse(B.render(ast), hints) == ast, command
    _verdict(4, f"parse -> render -> parse stable for all {len(corpus_lines)} commands")


def _vocabulary(corpus, templatized=False):
    """The distinct words of the rendered commands, after templatization
    when asked."""
    if templatized:
        corpus = map(B.templatize, corpus)
    return {word for ast in corpus for word in B.render(ast).split()} - {"|"}


def test_criterion_05_vocabulary_reduction(corpus_lines, hints):
    synthetic = [
        B.parse(f"ls /dir{i}") for i in range(40)
    ] + [
        B.parse(f"head -n {i} file{i}.txt", hints) for i in range(40)
    ]
    raw = _vocabulary(synthetic)
    templated = _vocabulary(synthetic, templatized=True)
    assert templated == {"ls", "_PATH", "head", "-n", "_NUMBER", "_FILE"}
    assert len(templated) < len(raw)

    corpus = [B.parse(line, hints) for line in corpus_lines]
    assert len(_vocabulary(corpus, templatized=True)) < len(_vocabulary(corpus))

    note = ""
    nl2bash = Path(__file__).parent / "data" / "nl2bash_commands.txt"
    if nl2bash.exists():
        parsed = []
        for line in nl2bash.read_text().splitlines():
            try:
                parsed.append(B.parse(line, hints))
            except B.ParseError:
                continue
        reduced = len(_vocabulary(parsed, templatized=True))
        full = len(_vocabulary(parsed))
        assert reduced < full
        note = f"; public corpus {full} -> {reduced}"
    else:
        note = "; public corpus not present locally (magnitude check skipped)"
    _verdict(5, f"templatization shrinks vocabulary {len(raw)} -> {len(templated)}{note}")


def test_criterion_06_generator_counts(kb):
    three = UtilitySpec(
        "tar", ("UTILITY", "FLAGS", "Path"),
        tuple(FlagSpec(t) for t in ("-c", "-j", "-f")),
    )
    assert len(G.generate_unpiped(three)) == 8

    ten = UtilitySpec(
        "ls", ("UTILITY", "FLAGS", "Path"),
        tuple(FlagSpec(f"-{c}") for c in "abcdefghij"),
    )
    templates = G.generate_unpiped(ten)
    assert len(templates) == 176
    rendered = [t.render() for t in templates]
    assert len(rendered) == len(set(rendered))

    piped = G.generate_piped(kb.get("find"), kb.get("xargs"), 2, 3, seed=9)
    assert len(piped) == 6

    again = G.generate_piped(kb.get("find"), kb.get("xargs"), 2, 3, seed=9)
    assert [c.render() for c in piped] == [c.render() for c in again]
    _verdict(6, "counts 8 / 176 / 6, duplicate-free, seed-deterministic")


def test_criterion_07_validator_behavior(tmp_path):
    config = V.SandboxConfig(
        workspace=tmp_path / "ws",
        backend="subprocess",
        allow_execution=True,
        timeout=0.5,
    )
    sentinel = tmp_path / "sentinel"
    sentinel.mkdir()
    (sentinel / "marker.txt").write_text("do not touch")
    before = sorted(
        (p.relative_to(sentinel), p.read_text())
        for p in sentinel.rglob("*") if p.is_file()
    )

    results = V.run_batch(["ls", "cat no_such_file", "sleep 5"], config)
    ls, cat, sleep = results
    assert ls.verdict is True and ls.exit_status == 0
    assert cat.verdict is False and cat.exit_status not in (0, V.TIMEOUT)
    assert sleep.exit_status == V.TIMEOUT and sleep.verdict is False
    assert sleep.wall_time >= 0.5

    after = sorted(
        (p.relative_to(sentinel), p.read_text())
        for p in sentinel.rglob("*") if p.is_file()
    )
    assert before == after
    _verdict(7, "ls valid, missing file invalid, sleep times out, sentinel untouched")


def test_criterion_08_scaler_tolerance():
    rng = random.Random(42)
    pool = [f"find /p{i}" for i in range(9000)] + [
        f"{rng.choice(['ls', 'du', 'wc'])} /q{i}" for i in range(1000)
    ]
    rng.shuffle(pool)
    profile = DistributionProfile({"find": 0.6344})
    out = scale(pool, profile, seed=7)

    realized = sum(1 for c in out if c.startswith("find")) / len(out)
    assert abs(realized - 0.6344) <= 0.02
    pool_set = set(pool)
    assert all(c in pool_set for c in out)
    assert len(out) == len(set(out))
    _verdict(8, f"realized find fraction {realized:.4f} within +/-2% of 0.6344")


def test_criterion_09_dataset_io(tmp_path):
    rng = random.Random(3)
    alphabet = string.ascii_letters + string.digits + " ./_-"
    records = [
        D.DatasetRecord(
            nl="".join(rng.choices(alphabet, k=rng.randint(1, 50))).strip() or "x",
            cmd="cmd " + "".join(rng.choices(alphabet, k=rng.randint(1, 30))),
            source=rng.choice(D.SOURCES),
            valid=rng.choice([None, True, False]),
        )
        for _ in range(1000)
    ]
    path = tmp_path / "big.jsonl"
    D.write_records(records, path)
    assert D.read_records(path) == records

    train, test = D.split_records(records, 0.8, seed=11)
    assert len(train) == 800 and len(test) == 200
    train_ids = {id(r) for r in train}
    test_ids = {id(r) for r in test}
    assert train_ids.isdisjoint(test_ids)
    assert len(train_ids | test_ids) == 1000
    again = D.split_records(records, 0.8, seed=11)
    assert (train, test) == again
    _verdict(9, "read/write identity on 1000 records; split disjoint and reproducible")


def test_criterion_10_llm_pipeline_offline(tmp_path):
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log = tmp_path / "log.jsonl"
    session = L.LlmSession(L.LlmConfig(), L.ReplayTransport(make_replay_entries()),
                           log_path=log)
    records = session.pipeline(10, out_path=out_a)

    assert len(records) == 5
    for record in records:
        B.parse(record.cmd)
    assert len(log.read_text().splitlines()) == 15

    L.LlmSession(L.LlmConfig(), L.ReplayTransport(make_replay_entries())).pipeline(
        10, out_path=out_b
    )
    assert out_a.read_bytes() == out_b.read_bytes()
    _verdict(10, "stub pipeline emits 5 parse-valid records; replay byte-identical")


def test_criterion_11_excluded_reproductions_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert "not reproduced" in readme.lower() or "excluded" in readme.lower()
    _verdict(
        11,
        "model-dependent leaderboard/cross-dataset/energy numbers are excluded; "
        "property suites above stand in for them",
    )
