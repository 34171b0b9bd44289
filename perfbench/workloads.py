"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup()``. The runner
then calls ``prepare(i)`` (untimed), ``run(i, tracer)`` (timed; returns the
number of ops) and ``check(i)`` (untimed; returns the number of failed ops)
for batch ``i`` until the run's time is spent. ``check`` compares the
program's outputs with references this package computes or ships itself.

The calls into bashsynth go through its public functions only, each inside
a span named ``<layer>.<call>`` so a traced run can time every layer.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shlex
import statistics
import subprocess
import sys
import urllib.request
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from bashsynth import (  # noqa: E402
    bash_ast,
    dataset_io,
    generator,
    metrics,
    scaler,
    syntax_kb,
    validator,
)

from spans import Tracer  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "corpus.txt"


def read_corpus() -> list[str]:
    return [line.strip() for line in CORPUS.read_text(encoding="utf-8").splitlines()
            if line.strip()]


class Workload:
    name = ""
    # One batch is the whole workload (synth_full's chain): it runs once,
    # however long the run's time budget is.
    single_batch = False
    # Seconds of untimed batches before the timed ones.
    warmup_seconds = 1.0

    def __init__(self, seed: int, tracer, workdir: Path, jobs: int):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.jobs = jobs
        self.mismatches: list[str] = []
        self.mismatch_count = 0
        self.per_batch: dict[int, dict] = {}

    def mismatch(self, message: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def load_kb(self) -> None:
        with self.tracer.span("syntax_kb.load"):
            self.kb = syntax_kb.SyntaxKb.load()
        with self.tracer.span("syntax_kb.hints"):
            self.hints = self.kb.parser_hints()

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> object:
        """The generated inputs, as JSON-serialisable data, for provenance."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        pass

    def run(self, index: int, tr) -> int:
        raise NotImplementedError

    def check(self, index: int) -> int:
        raise NotImplementedError

    def extras(self) -> tuple[int, int]:
        """Work done once at the end of a traced run: (attempted, failed)."""
        return 0, 0

    def layer_metrics(self, tracer: Tracer, runs: set[int]) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def batch_mean(self, key: str, runs: set[int]) -> float:
        return statistics.fmean(self.per_batch[i][key] for i in runs)

    def span_mean(self, tracer: Tracer, name: str, runs: set[int]) -> float:
        """Seconds per batch spent in spans called ``name``."""
        return tracer.total(name, runs)[0] / len(runs)

    def span_us(self, tracer: Tracer, name: str, runs: set[int]) -> float:
        """Microseconds per call of spans called ``name``."""
        seconds, count = tracer.total(name, runs)
        return seconds / count * 1e6 if count else 0.0


# ---------------------------------------------------------------------------
# synth_full: generate -> validate (dry run) -> scale -> stats

# scale() documents a default tolerance of 0.02 on each constrained share.
PROFILE_TOLERANCE = 0.02
# generate_unpiped documents 0..3 distinct flags per template.
MAX_FLAGS = 3
# Tail templates sampled per pipe pair (generate --piped --tail-limit). With
# no limit the chain takes 70-105 s on a 2-vCPU host, too long for the 70-odd
# runs a comparison of two commits needs; 64 keeps every utility and pipe
# pair and 147,759 of the 312,761 templates.
SYNTH_TAIL_LIMIT = 64


def _unpiped_count(spec) -> int:
    return sum(math.comb(len(spec.flags), k) for k in range(MAX_FLAGS + 1))


class SynthFull(Workload):
    """The CLI chain cmd_generate -> cmd_validate -> cmd_scale -> cmd_stats,
    in process, with every utility and every allowed pipe pair; the seed
    samples each pair's tail templates."""

    name = "synth_full"
    single_batch = True
    warmup_seconds = 0.0
    tail_limit: int | None = SYNTH_TAIL_LIMIT

    def setup(self) -> None:
        self.load_kb()
        self.profile = scaler.load_profile(scaler.default_profile_path())
        self.fixtures = validator.load_fixture_values()
        specs = self.kb.specs()
        limit = self.tail_limit if self.tail_limit is not None else math.inf
        self.expected_total = sum(_unpiped_count(s) for s in specs) + sum(
            _unpiped_count(head) * min(limit, _unpiped_count(self.kb.get(tail)))
            for head in specs for tail in head.pipe_successors if tail in self.kb
        )

    def inputs(self) -> object:
        return {
            "specs": syntax_kb.default_specs_path().read_text(encoding="utf-8"),
            "profile": scaler.default_profile_path().read_text(encoding="utf-8"),
            "fixtures": self.fixtures,
            "seed": self.seed,
            "tail_limit": self.tail_limit,
        }

    def run(self, index: int, tr) -> int:
        kb = self.kb
        with tr.span("generator.generate"):
            commands = []
            for name in kb.utilities:
                spec = kb.get(name)
                commands.extend(generator.generate_unpiped(spec, None, self.seed))
                for successor in spec.pipe_successors:
                    tail = kb.get(successor)
                    if tail is not None:
                        commands.extend(generator.generate_piped(
                            spec, tail, None, self.tail_limit, self.seed))
        with tr.span("generator.dedup"):
            result = generator.dedup(commands)
        del commands
        path = self.workdir / "templates.jsonl"
        with tr.span("dataset_io.write_templates"):
            dataset_io.write_templates(result.commands, path)
        templates, duplicates = len(result.commands), result.duplicates
        del result
        with tr.span("dataset_io.read_templates"):
            entries = dataset_io.read_templates(path)
        with tr.span("validator.instantiate"):
            concrete = [validator.instantiate(e.cmd, self.fixtures) for e in entries]
        config = validator.SandboxConfig(workspace=self.workdir / "sandbox")
        with tr.span("validator.run_batch"):
            results = validator.run_batch(concrete, config)
        del concrete
        with tr.span("syntax_kb.to_parser_template"):
            parser_entries = [
                dataset_io.TemplateEntry(
                    id=e.id,
                    cmd=syntax_kb.to_parser_template(e.cmd),
                    utilities=e.utilities,
                    flags=e.flags,
                    pipe_partner=e.pipe_partner,
                )
                for e in entries
            ]
        del entries
        with tr.span("scaler.scale"):
            scaled = scaler.scale(parser_entries, self.profile, seed=self.seed)
        with tr.span("dataset_io.stats"):
            report = dataset_io.stats([e.cmd for e in scaled], self.hints)

        self.out = {
            "templates": templates,
            "duplicates": duplicates,
            "path": path,
            "results": results,
            "pool": parser_entries,
            "scaled": scaled,
            "report": report,
        }
        return templates

    def check(self, index: int) -> int:
        out, self.out = self.out, None
        n, scaled, report = out["templates"], out["scaled"], out["report"]
        bytes_written = out["path"].stat().st_size
        out["path"].unlink()
        invalid = sum(1 for r in out["results"] if not r.verdict)
        chain_ok = True

        def fail(message: str) -> None:
            nonlocal chain_ok
            chain_ok = False
            self.mismatch(message)

        if n + out["duplicates"] != self.expected_total:
            fail(f"generated {n} + {out['duplicates']} duplicates, "
                 f"expected {self.expected_total} from the specs")
        if len(out["results"]) != n:
            fail(f"dry run returned {len(out['results'])} results for {n} commands")
        if invalid:
            self.mismatch(f"{invalid} dry-run verdicts are false")
        cmds = [e.cmd for e in scaled]
        if len(set(cmds)) != len(cmds):
            fail("scale output has duplicates")
        if not set(cmds) <= {e.cmd for e in out["pool"]}:
            fail("scale output is not a subset of its input")
        heads = Counter(e.utilities[0] for e in scaled)
        for utility, target in self.profile.proportions.items():
            realized = heads[utility] / len(scaled)
            if abs(realized - target) > PROFILE_TOLERANCE:
                fail(f"scaled share of {utility} is {realized:.4f}, target {target}")
        piped = sum(1 for e in scaled if len(e.utilities) > 1)
        got = (report.total, report.parseable, report.piped)
        if got != (len(scaled), len(scaled), piped):
            fail(f"stats (total, parseable, piped) = {got}, "
                 f"expected {(len(scaled), len(scaled), piped)}")

        self.per_batch[index] = {
            "templates": n,
            "duplicates": out["duplicates"],
            "bytes_written": bytes_written,
            "kept_frac": len(scaled) / len(out["pool"]),
            "pipe_fraction_err": abs(piped / len(scaled) - self.profile.pipe_fraction),
        }
        return n if not chain_ok else invalid

    def layer_metrics(self, tracer: Tracer, runs: set[int]) -> dict[str, float]:
        m = {
            "syntax_kb.to_parser_template_s": "syntax_kb.to_parser_template",
            "generator.generate_s": "generator.generate",
            "generator.dedup_s": "generator.dedup",
            "dataset_io.write_s": "dataset_io.write_templates",
            "dataset_io.read_s": "dataset_io.read_templates",
            "dataset_io.stats_s": "dataset_io.stats",
            "validator.instantiate_s": "validator.instantiate",
            "validator.dry_run_s": "validator.run_batch",
            "scaler.scale_s": "scaler.scale",
        }
        counts = {
            "generator.templates": "templates",
            "generator.duplicates": "duplicates",
            "dataset_io.bytes_written": "bytes_written",
            "scaler.kept_frac": "kept_frac",
            "scaler.pipe_fraction_err": "pipe_fraction_err",
        }
        out = {key: self.span_mean(tracer, span, runs) for key, span in m.items()}
        out.update({key: self.batch_mean(k, runs) for key, k in counts.items()})
        return out


class SynthFullKb(SynthFull):
    """synth_full with no limits: all 312,761 templates, as in the ROADMAP
    baseline. Not in BENCHMARK.json, because of its run time."""

    name = "synth_full_kb"
    tail_limit = None


# ---------------------------------------------------------------------------
# exec_sandbox: sandboxed subprocess execution of read-only commands

READ_ONLY = ("ls", "cat", "grep", "wc", "sort", "head", "tail", "du", "uniq")
# Piped templates use each stage's first flags (by token) to keep the
# population, and so the reference table, small.
PIPED_FLAGS = 3
# Harmless if they ever ran; the deny-list must block each one. The
# redirect leaves a marker beside the workspaces if one is spawned.
DENY = (
    "echo reboot > ../spawned-0",
    "echo poweroff now > ../spawned-1",
    "sudo -n true > ../spawned-2",
    "echo mkfs.ext4 > ../spawned-3",
    "wget --version > ../spawned-4",
    "echo a | nc -h > ../spawned-5",
)
EXEC_SAMPLE = 400
EXEC_BATCH = 50
EXEC_REFERENCE = BENCH / "exec_reference.json"


def exec_population(kb) -> list[str]:
    """Templates the exec_sandbox sample is drawn from, in a fixed order."""
    out = []
    for name in READ_ONLY:
        out.extend(c.render() for c in generator.generate_unpiped(kb.get(name)))

    def narrow(spec):
        flags = tuple(sorted(spec.flags, key=lambda f: f.token)[:PIPED_FLAGS])
        return syntax_kb.UtilitySpec(spec.name, spec.template, flags, spec.pipe_successors)

    for head in READ_ONLY:
        for tail in kb.get(head).pipe_successors:
            if tail in READ_ONLY:
                out.extend(c.render() for c in generator.generate_piped(
                    narrow(kb.get(head)), narrow(kb.get(tail))))
    return out


def _leftovers(root: Path) -> tuple[int, int]:
    """Workspace directories under ``root`` and the bytes they hold."""
    dirs = size = 0
    for entry in root.glob("run_*"):
        dirs += 1
        for base, _, files in os.walk(entry):
            size += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return dirs, size


class ExecSandbox(Workload):
    """run_batch(backend="subprocess", jobs=nproc) on read-only commands plus
    a handful of deny-listed strings."""

    name = "exec_sandbox"

    def setup(self) -> None:
        self.load_kb()
        self.fixtures = validator.load_fixture_values()
        self.manifest = validator.load_manifest()
        self.reference = json.loads(EXEC_REFERENCE.read_text(encoding="utf-8"))["commands"]
        rng = random.Random(self.seed)
        sample = rng.sample(exec_population(self.kb), EXEC_SAMPLE)
        self.batches = []
        for start in range(0, EXEC_SAMPLE, EXEC_BATCH):
            items = [("template", t) for t in sample[start:start + EXEC_BATCH]]
            for deny in DENY:
                items.insert(rng.randrange(len(items) + 1), ("deny", deny))
            self.batches.append(items)
        # Each batch gets a fresh sandbox root, and none is deleted until the
        # run ends (with the run's scratch directory). On ext4, deleting
        # workspaces makes later ones several times dearer to create, and
        # the CLI deletes nothing within a run either.
        self.sandbox = self.workdir / "sandbox"
        self.sandbox.mkdir()
        self.roots = 0

    def inputs(self) -> object:
        return {"batches": self.batches, "fixtures": self.fixtures,
                "manifest": self.manifest}

    def run(self, index: int, tr, jobs: int | None = None) -> int:
        self.items = items = self.batches[index % len(self.batches)]
        self.root = self.sandbox / f"batch_{self.roots:05d}"
        self.roots += 1
        with tr.span("validator.instantiate"):
            commands = [validator.instantiate(text, self.fixtures) for _, text in items]
        config = validator.SandboxConfig(
            workspace=self.root,
            backend="subprocess",
            allow_execution=True,
            manifest=self.manifest,
            jobs=jobs or self.jobs,
        )
        with tr.span("validator.run_batch"):
            self.results = validator.run_batch(commands, config)
        self.commands = commands
        return len(items)

    def check(self, index: int) -> int:
        items, results, commands = self.items, self.results, self.commands
        dirs, size = _leftovers(self.root)
        spawned = sorted(p.name for p in self.root.glob("spawned-*"))
        failed = 0
        if spawned:
            self.mismatch(f"deny-listed commands were spawned: {spawned}")
        if len(results) != len(items):
            self.mismatch(f"run_batch returned {len(results)} results for {len(items)}")
            return len(items)
        walls = []
        for (kind, text), command, result in zip(items, commands, results):
            if kind == "deny":
                ok = (result.exit_status == validator.SPAWN_FAIL
                      and not result.verdict and not spawned)
                if not ok:
                    self.mismatch(f"{command!r} was not blocked: {result}")
                failed += not ok
                continue
            walls.append(result.wall_time)
            expected = self.reference.get(text)
            if expected is None:
                self.mismatch(f"{text!r} is not in the reference table")
                failed += 1
            elif command != expected["cmd"]:
                self.mismatch(f"{text!r} instantiated to {command!r}, "
                              f"expected {expected['cmd']!r}")
                failed += 1
            elif result.verdict != (expected["exit"] == 0):
                self.mismatch(f"{command!r}: verdict {result.verdict} "
                              f"(status {result.exit_status}), reference exit "
                              f"{expected['exit']}")
                failed += 1
        executed = [r for (kind, _), r in zip(items, results) if kind == "template"]
        self.per_batch[index] = {
            "executed": len(executed),
            "valid": sum(1 for r in executed if r.verdict),
            "blocked": sum(1 for r in results if r.exit_status == validator.SPAWN_FAIL),
            "timeouts": sum(1 for r in results if r.exit_status == validator.TIMEOUT),
            "dirs_left": dirs,
            "mb_left": size / 2**20,
            "walls": walls,
        }
        return failed

    def extras(self) -> tuple[int, int]:
        # One serial batch (jobs=1), for comparison with jobs=nproc.
        index = -2
        self.tracer.run_id = index
        self.run(0, self.tracer, jobs=1)
        failed = self.check(index)
        self.serial_ms = (self.tracer.total("validator.run_batch", {index})[0]
                          / self.per_batch[index]["executed"] * 1e3)
        return len(self.batches[0]), failed

    def layer_metrics(self, tracer: Tracer, runs: set[int]) -> dict[str, float]:
        executed = sum(self.per_batch[i]["executed"] for i in runs)
        walls = sorted(w for i in runs for w in self.per_batch[i]["walls"])
        q = statistics.quantiles(walls, n=100, method="inclusive")
        return {
            "validator.instantiate_s": self.span_mean(tracer, "validator.instantiate", runs),
            "validator.exec_ms_per_cmd":
                tracer.total("validator.run_batch", runs)[0] / executed * 1e3,
            "validator.exec_ms_per_cmd_serial": getattr(self, "serial_ms", 0.0),
            "validator.reported_wall_p50_ms": q[49] * 1e3,
            "validator.reported_wall_p99_ms": q[98] * 1e3,
            "validator.valid_frac":
                sum(self.per_batch[i]["valid"] for i in runs) / executed,
            "validator.blocked": self.batch_mean("blocked", runs),
            "validator.timeouts": self.batch_mean("timeouts", runs),
            "validator.workspace_dirs_left": self.batch_mean("dirs_left", runs),
            "validator.workspace_mb_left": self.batch_mean("mb_left", runs),
        }


# ---------------------------------------------------------------------------
# eval_corpus: parse + score reference/prediction pairs; template fill


def _flag_score(pred: frozenset, ref: frozenset) -> float:
    n = max(len(pred), len(ref))
    if n == 0:
        return 1.0
    return max(-1.0, min(1.0, (2 * len(pred & ref) - len(pred | ref)) / n))


def _utility_score(pred, ref) -> float:
    ps, rs = list(pred.walk_utilities()), list(ref.walk_utilities())
    t = max(len(ps), len(rs))
    total = 0.0
    for i in range(t):
        if i < len(ps) and i < len(rs) and ps[i].name == rs[i].name:
            total += (1 + _flag_score(ps[i].flag_tokens(), rs[i].flag_tokens())) / 2
        else:
            total -= 1
    return total / t


def reference_final(ref_ast, candidates) -> float:
    """The printed scoring formula, independent of bashsynth.metrics.

    ``candidates`` holds (AST or None when unparseable, confidence).
    """
    scores = [_utility_score(a, ref_ast) if a is not None else -1.0
              for a, _ in candidates]
    weighted = [c * s for (_, c), s in zip(candidates, scores)]
    if max(weighted) > 0:
        return max(weighted)
    conf_sum = sum(c for _, c in candidates)
    return sum(weighted) / conf_sum if conf_sum > 0 else sum(scores) / len(scores)


EVAL_PAIRS = 1200
EVAL_BATCH = 200
_MUTATIONS = ("same", "flags", "utility", "other", "broken")
_MUTATION_WEIGHTS = (2, 4, 2, 1, 1)
_STRUCTURAL = frozenset({"|", ">", "{}", ";", "+", "-"})


def _mutate(rng: random.Random, ref: str, lines: list[str], kb) -> str:
    kind = rng.choices(_MUTATIONS, _MUTATION_WEIGHTS)[0]
    tokens = ref.split(" ")
    if kind == "same":
        return ref
    if kind == "other":
        return rng.choice(lines)
    if kind == "broken":  # an empty stage or an unbalanced quote
        return rng.choice(("| {}", "{} |", "{} '")).format(ref)
    if kind == "utility":
        heads = [0] + [i + 1 for i, t in enumerate(tokens[:-1]) if t == "|"]
        tokens[rng.choice(heads)] = rng.choice(kb.utilities)
        return " ".join(tokens)
    spec = kb.get(tokens[0])
    pool = [f.token for f in spec.flags] if spec and spec.flags else ["-v"]
    flags = [i for i, t in enumerate(tokens) if t.startswith("-") and len(t) > 1]
    op = rng.choice(("drop", "swap", "add")) if flags else "add"
    if op == "drop":
        del tokens[rng.choice(flags)]
    elif op == "swap":
        tokens[rng.choice(flags)] = rng.choice(pool)
    else:
        tokens.insert(1, rng.choice(pool))
    return " ".join(tokens)


def _sentence(rng: random.Random, ref: str) -> str:
    """An English request that mentions the command's literal arguments."""
    try:
        words = shlex.split(ref)
    except ValueError:
        words = ref.split()
    literals = []
    head = True
    for word in words:
        if word == "|":
            head = True
            continue
        if not head and not word.startswith(("-", "$(")) and word not in _STRUCTURAL:
            literals.append(word)
        head = False
    verb = rng.choice(("Show", "List", "Find", "Count", "Print", "Check"))
    parts = []
    for literal in literals:
        quote = " " in literal or (not literal.isdigit() and rng.random() < 0.6)
        if quote:
            literal = f'"{literal}"' if "'" in literal else f"'{literal}'"
        connector = rng.choice(("in", "for", "with", "from", "using"))
        parts.append(f"{connector} {literal}")
    return " ".join([verb, "the results", *parts]) + "."


class EvalCorpus(Workload):
    """Hinted parsing and scoring of corpus pairs, plus templatize ->
    extract_params -> fill on sentences that mention each command's values."""

    name = "eval_corpus"

    def setup(self) -> None:
        from bashsynth import nl_prep

        self.nl_prep = nl_prep
        self.load_kb()
        lines = read_corpus()
        rng = random.Random(self.seed)
        self.pairs = []
        for _ in range(EVAL_PAIRS):
            ref = rng.choice(lines)
            candidates = [
                (_mutate(rng, ref, lines, self.kb), round(rng.uniform(0.05, 1.0), 3))
                for _ in range(rng.randint(1, 3))
            ]
            self.pairs.append((ref, candidates, _sentence(rng, ref)))

    def inputs(self) -> object:
        return self.pairs

    def _batch_pairs(self, index: int) -> list:
        start = index * EVAL_BATCH % EVAL_PAIRS
        return self.pairs[start:start + EVAL_BATCH]

    def run(self, index: int, tr) -> int:
        parse, hints = bash_ast.parse, self.hints
        out = []
        parse_errors = unfilled = 0
        for ref, candidates, sentence in self._batch_pairs(index):
            try:
                with tr.span("bash_ast.parse"):
                    ref_ast = parse(ref, hints)
                parsed = []
                for text, confidence in candidates:
                    try:
                        with tr.span("bash_ast.parse"):
                            parsed.append((parse(text, hints), confidence))
                    except bash_ast.ParseError:
                        parse_errors += 1
                        parsed.append((text, confidence))
                with tr.span("metrics.score_pair"):
                    scored = metrics.score_pair(ref_ast, parsed, hints)
                with tr.span("bash_ast.templatize"):
                    template = bash_ast.templatize(ref_ast)
                with tr.span("nl_prep.extract_params"):
                    values = self.nl_prep.extract_params(sentence)
                with tr.span("bash_ast.fill"):
                    _, left = bash_ast.fill(template, values)
                unfilled += left
                out.append((ref_ast, parsed, scored))
            except Exception as exc:  # an op that raises is a failed op
                out.append(exc)
        scores = [o[2] for o in out if not isinstance(o, Exception)]
        with tr.span("metrics.dataset_accuracy"):
            accuracy = metrics.dataset_accuracy(scores) if scores else None
        self.out = (out, accuracy)
        self.per_batch[index] = {"parse_errors": parse_errors, "unfilled": unfilled}
        return len(out)

    def check(self, index: int) -> int:
        out, accuracy = self.out
        failed = 0
        finals = []
        for (ref, _, _), result in zip(self._batch_pairs(index), out):
            if isinstance(result, Exception):
                self.mismatch(f"{ref!r} raised {result!r}")
                failed += 1
                continue
            ref_ast, parsed, scored = result
            candidates = [(a if isinstance(a, bash_ast.BashAst) else None, c)
                          for a, c in parsed]
            expected = reference_final(ref_ast, candidates)
            finals.append(expected)
            if not math.isclose(scored.final, expected, rel_tol=1e-9, abs_tol=1e-12):
                self.mismatch(f"{ref!r}: final {scored.final} != reference {expected}")
                failed += 1
        if finals and not math.isclose(accuracy, statistics.fmean(finals) * 100,
                                       rel_tol=1e-9, abs_tol=1e-9):
            self.mismatch(f"dataset_accuracy {accuracy} != reference "
                          f"{statistics.fmean(finals) * 100}")
            failed = len(out)
        del self.out
        return failed

    def layer_metrics(self, tracer: Tracer, runs: set[int]) -> dict[str, float]:
        return {
            "bash_ast.parse_us": self.span_us(tracer, "bash_ast.parse", runs),
            "bash_ast.templatize_us": self.span_us(tracer, "bash_ast.templatize", runs),
            "bash_ast.fill_us": self.span_us(tracer, "bash_ast.fill", runs),
            "bash_ast.parse_errors": self.batch_mean("parse_errors", runs),
            "bash_ast.unfilled": self.batch_mean("unfilled", runs),
            "metrics.score_pair_us": self.span_us(tracer, "metrics.score_pair", runs),
            "nl_prep.extract_params_us":
                self.span_us(tracer, "nl_prep.extract_params", runs),
        }


# ---------------------------------------------------------------------------
# llm_loopback: LlmSession.pipeline against a loopback stub endpoint

LLM_PROMPTS = 40
LLM_DELAY = 0.02  # seconds the stub waits before each reply
LLM_BACKOFF = 0.05
LLM_PLANS = 12
# Fixed per-batch reply mix, so every batch does the same amount of work.
_DISTINCT_PLAIN, _DISTINCT_FENCED, _DISTINCT_DOLLAR = 22, 3, 3
_DUPLICATES, _UNPARSEABLE = 6, 4  # plus two empty replies
_ERRORS_503 = 2  # per phase; with max_retries=2 no request can run out of retries
_SIMPLE = re.compile(r"[^;&<>$`\\(){}]+")
_NO_PROXY = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _llm_plan(rng: random.Random, simple: list[str]) -> dict:
    distinct = _DISTINCT_PLAIN + _DISTINCT_FENCED + _DISTINCT_DOLLAR
    cmds = rng.sample(simple, distinct)
    fenced_end = _DISTINCT_PLAIN + _DISTINCT_FENCED
    replies = (
        cmds[:_DISTINCT_PLAIN]
        + [f"```bash\n{c}\n```" for c in cmds[_DISTINCT_PLAIN:fenced_end]]
        + [f"$ {c}" for c in cmds[fenced_end:]]
        + rng.sample(cmds, _DUPLICATES)
        + [rng.choice(("| {}", "{} |", "{} '")).format(rng.choice(simple))
           for _ in range(_UNPARSEABLE)]
        + ["", "  \n  "]
    )
    rng.shuffle(replies)
    assert len(replies) == LLM_PROMPTS
    return {
        "gen_replies": replies,
        "gen_503": sorted(rng.sample(range(LLM_PROMPTS), _ERRORS_503)),
        "translate_503": sorted(rng.sample(range(distinct), _ERRORS_503)),
        "survivors": sorted(cmds),
    }


class LlmLoopback(Workload):
    """LlmSession.pipeline(n) through HttpTransport to a loopback stub."""

    name = "llm_loopback"

    def setup(self) -> None:
        from bashsynth import llm_bridge

        import stub

        self.llm_bridge, self.stub_mod = llm_bridge, stub
        self.load_kb()
        simple = sorted({c for c in read_corpus()
                         if _SIMPLE.fullmatch(c) and not re.search(r"\b_[A-Z]+\b", c)})
        rng = random.Random(self.seed)
        self.plans = [_llm_plan(rng, simple) for _ in range(LLM_PLANS)]
        for var in ("NO_PROXY", "no_proxy"):
            os.environ[var] = "127.0.0.1,localhost"
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--delay", str(LLM_DELAY)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.base = f"http://127.0.0.1:{int(self.stub.stdout.readline())}"
        self.config = llm_bridge.LlmConfig(
            endpoint=self.base + "/v1/chat/completions",
            concurrency=self.jobs,
            backoff=LLM_BACKOFF,
            max_retries=2,
            request_timeout=10.0,
        )

    def inputs(self) -> object:
        return {"plans": self.plans, "delay": LLM_DELAY, "backoff": LLM_BACKOFF}

    def _control(self, route: str, payload: dict | None = None) -> dict:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base + route, data=data, headers={"Content-Type": "application/json"}
        )
        with _NO_PROXY.open(request, timeout=10) as resp:
            return json.loads(resp.read())

    def prepare(self, index: int) -> None:
        plan = self.plans[index % len(self.plans)]
        self._control("/plan", {
            "gen_prompt": self.llm_bridge.GENERATION_PROMPT,
            "gen_replies": plan["gen_replies"],
            "gen_503": plan["gen_503"],
            "translate_503": plan["translate_503"],
        })

    def run(self, index: int, tr) -> int:
        session = self.llm_bridge.LlmSession(self.config)
        if isinstance(tr, Tracer):
            gen, back = session.gen_commands, session.backtranslate

            def traced_gen(n):
                with tr.span("llm_bridge.gen_commands"):
                    return gen(n)

            def traced_back(cmd):
                with tr.span("llm_bridge.backtranslate"):
                    return back(cmd)

            session.gen_commands, session.backtranslate = traced_gen, traced_back
        try:
            with tr.span("llm_bridge.pipeline"):
                self.out = session.pipeline(LLM_PROMPTS)
        except Exception as exc:  # an aborted pipeline fails every prompt
            self.out = exc
        return LLM_PROMPTS

    def check(self, index: int) -> int:
        plan = self.plans[index % len(self.plans)]
        stats = self._control("/stats")
        records, self.out = self.out, None
        self.per_batch[index] = {
            "calls": stats["replies"],
            "retries": stats["errors"],
            "waited_s": stats["waited_s"],
            "kept": 0 if isinstance(records, Exception) else len(records),
        }
        if isinstance(records, Exception):
            self.mismatch(f"pipeline raised {records!r}")
            return LLM_PROMPTS
        failed = 0
        got = sorted(r.cmd for r in records)
        if got != plan["survivors"]:
            missing = set(plan["survivors"]) - set(got)
            extra = set(got) - set(plan["survivors"])
            self.mismatch(f"survivors differ: missing {sorted(missing)[:3]}, "
                          f"extra {sorted(extra)[:3]}")
            failed += len(missing) + len(extra)
        for r in records:
            if r.nl != self.stub_mod.translation_for(r.cmd) or r.source != "llm":
                self.mismatch(f"record for {r.cmd!r} has nl {r.nl!r}")
                failed += 1
        return min(failed, LLM_PROMPTS)

    def extras(self) -> tuple[int, int]:
        """One backtranslate whose first reply is a 200 that is not JSON.

        The retry would get a good reply. A non-JSON body that escapes the
        retry loop fails the op; the escape is recorded, not raised.
        """
        self._control("/plan", {"gen_prompt": self.llm_bridge.GENERATION_PROMPT})
        session = self.llm_bridge.LlmSession(self.config)
        command = self.stub_mod.PROBE_COMMAND
        self.probe_escaped = 0
        try:
            nl = session.backtranslate(command)
        except Exception as exc:  # the defect under probe escapes as ValueError
            self.probe_escaped = 1
            self.probe_error = f"{type(exc).__name__}: {exc}"
            return 1, 1
        return 1, int(nl != self.stub_mod.translation_for(command))

    def layer_metrics(self, tracer: Tracer, runs: set[int]) -> dict[str, float]:
        return {
            "llm_bridge.gen_s": self.span_mean(tracer, "llm_bridge.gen_commands", runs),
            "llm_bridge.translate_s":
                self.span_mean(tracer, "llm_bridge.backtranslate", runs),
            "llm_bridge.endpoint_wait_s": self.batch_mean("waited_s", runs),
            "llm_bridge.calls": self.batch_mean("calls", runs),
            "llm_bridge.retries": self.batch_mean("retries", runs),
            "llm_bridge.kept_frac": self.batch_mean("kept", runs) / LLM_PROMPTS,
            "llm_bridge.probe_escaped": float(getattr(self, "probe_escaped", 0)),
        }

    def close(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()


WORKLOADS = {w.name: w for w in (SynthFull, SynthFullKb, ExecSandbox, EvalCorpus,
                                  LlmLoopback)}
