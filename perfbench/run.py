"""Benchmark for bashsynth: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports bashsynth from ``src/``.
One workload runs as a closed loop of batches in a fresh child process
until ``--seconds`` have passed (synth_full's single batch runs once,
whatever the budget). The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``. The line before it holds the run's provenance. Both are also
saved under ``.perfbench_out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
# Fresh processes that only set up, per untraced run; the measured process
# adds one more set-up sample.
SETUP_REPEATS = 6
CHILD_TIMEOUT = 170.0
# Runnable but not in BENCHMARK.json (see README.md): the full-KB chain takes
# too long for the number of runs a comparison makes, and exec_sandbox
# spreads too widely from run to run on a shared ext4 file system.
EXTRA_WORKLOADS = {"synth_full_kb", "exec_sandbox"}
LAYERS = ("bash_ast", "syntax_kb", "generator", "dataset_io", "validator",
          "scaler", "metrics", "nl_prep", "llm_bridge")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# Child process: set up, and in the measured process run the timed loop


def _child(args: argparse.Namespace) -> int:
    import workloads
    from spans import NULL, Tracer

    tracer = Tracer() if args.trace else NULL
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir, _nproc())
    try:
        workload.setup()
        setup_end = time.monotonic()
        result = {"setup_end": setup_end}
        if args.role == "measure":
            result.update(_measure(workload, args, tracer))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(workload, args: argparse.Namespace, tracer) -> dict:
    from spans import NULL, span_cost

    inputs_sha256 = hashlib.sha256(
        json.dumps(workload.inputs(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    traced = bool(args.trace)
    rates: dict[bool, list[float]] = {False: [], True: []}
    timed = {"ops": 0, "wall": 0.0, "cpu": 0.0}
    traced_runs: set[int] = set()
    attempted = failed = index = 0
    # Untimed warm-up batches first: their outputs are still checked.
    start = time.perf_counter()
    while time.perf_counter() - start < workload.warmup_seconds:
        workload.prepare(index)
        attempted += workload.run(index, NULL)
        failed += workload.check(index)
        index += 1
    warmup_batches = index
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced batches, so both
        # rates come from the same process and the same inputs.
        on = traced and (workload.single_batch or index % 2 == 1)
        tr = tracer if on else NULL
        tracer.run_id = index
        workload.prepare(index)
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        with tr.span("bench.batch"):
            ops = workload.run(index, tr)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        failed += workload.check(index)
        attempted += ops
        rates[on].append(ops / wall)
        if on:
            traced_runs.add(index)
        else:
            timed["ops"] += ops
            timed["wall"] += wall
            timed["cpu"] += cpu
        index += 1
        if workload.single_batch:
            break
        if (time.perf_counter() - start >= args.seconds
                and (not traced or index - warmup_batches >= 2)):
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "batches": index,
        "inputs_sha256": inputs_sha256,
        "batch_rates": rates[False],
    }
    if not traced:
        result["end_to_end"] = {
            "ops_per_s": timed["ops"] / timed["wall"],
            "cpu_ms_per_op": timed["cpu"] / timed["ops"] * 1e3,
        }
    else:
        extra_attempted, extra_failed = workload.extras()
        layers = workload.layer_metrics(tracer, traced_runs)
        layers["syntax_kb.load_s"] = tracer.total("syntax_kb.load", {-1})[0]
        layers["syntax_kb.hints_s"] = tracer.total("syntax_kb.hints", {-1})[0]
        batch_time = tracer.total("bench.batch", traced_runs)[0]
        self_time = tracer.self_times(traced_runs)
        self_time["llm_bridge"] = self_time.get("llm_bridge", 0.0) - layers.get(
            "llm_bridge.endpoint_wait_s", 0.0) * len(traced_runs)
        for layer in LAYERS:
            layers[f"{layer}.self_frac"] = self_time.get(layer, 0.0) / batch_time
        if workload.single_batch:
            spans = sum(1 for s in tracer.spans if s[4] in traced_runs)
            layers["trace.overhead_frac"] = span_cost() * spans / batch_time
        else:
            layers["trace.overhead_frac"] = (
                1 - statistics.median(rates[True]) / statistics.median(rates[False]))
        layers["fail_rate"] = (failed + extra_failed) / (attempted + extra_attempted)
        result["layers"] = layers
        result["probe_error"] = getattr(workload, "probe_error", None)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result["correct"] = workload.mismatch_count == 0
    result["mismatches"] = workload.mismatches
    return result


# ---------------------------------------------------------------------------
# Parent process


def _spawn(args: argparse.Namespace, role: str) -> tuple[dict, resource.struct_rusage, float]:
    """Run a child; return its JSON result, its rusage and its start time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage, started


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _parent(args: argparse.Namespace, spec: dict) -> int:
    samples = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            out, _, started = _spawn(args, "setup")
            samples.append(out["setup_end"] - started)
    measured, usage, started = _spawn(args, "measure")
    samples.append(measured["setup_end"] - started)

    if args.trace:
        group, values = spec["per_layer"], measured["layers"]
    else:
        group = spec["end_to_end"]
        values = dict(measured["end_to_end"],
                      setup_s=statistics.median(samples),
                      peak_rss_mb=usage.ru_maxrss / 1024)
    units = {m["name"]: m["unit"] for m in group}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload never calls reads 0.
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src" / "bashsynth"),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "inputs_sha256": measured["inputs_sha256"],
        "batches": measured["batches"],
        "setup_samples_s": samples,
        "mismatches": measured["mismatches"],
        "probe_error": measured.get("probe_error"),
    }
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result,
                    "untraced_batch_rates": measured["batch_rates"]}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    required = (ROOT / "src" / "bashsynth" / "__init__.py",
                ROOT / "tests" / "data" / "corpus.txt",
                ROOT / "BENCHMARK.json")
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"perfbench: not a bashsynth checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]} | EXTRA_WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.role != "main":
        return _child(args)
    return _parent(args, spec)


if __name__ == "__main__":
    sys.exit(main())
