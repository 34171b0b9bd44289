#!/usr/bin/env python3
"""End-to-end synthesis demo: generate -> validate -> scale -> stats -> split -> stats.

Runs entirely through the CLI so each stage reads the previous stage's
output file. Validation defaults to the dry_run backend; pass --exec to
really execute commands (requires BASHSYNTH_ALLOW_EXEC=1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bashsynth.cli import main as cli


def run(argv: list[str]) -> None:
    print("$ bashsynth " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--limit", type=int, default=120, help="templates per utility")
    parser.add_argument("--exec", dest="exec_", action="store_true",
                        help="execute commands instead of dry-run parsing")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)

    templates = work / "templates.jsonl"
    run(["generate", "--piped", "--limit", str(args.limit),
         "--head-limit", "8", "--tail-limit", "8",
         "--seed", seed, "--out", str(templates)])

    results = work / "results.jsonl"
    survivors = work / "survivors.jsonl"
    validate = ["validate", "--in", str(templates), "--out", str(results),
                "--survivors", str(survivors), "--workspace", str(work / "sandbox")]
    if args.exec_:
        validate.append("--exec")
    run(validate)

    scaled = work / "scaled.jsonl"
    run(["scale", "--in", str(survivors), "--out", str(scaled), "--seed", seed])
    run(["stats", "--in", str(scaled), "--format", "json"])

    # Stand-in sentences so the split stage has dataset records to chew on;
    # a real run would backtranslate the scaled templates first.
    from bashsynth import dataset_io

    entries = dataset_io.read_templates(scaled)
    dataset = work / "dataset.jsonl"
    dataset_io.write_records(
        [
            dataset_io.DatasetRecord(
                nl=f"placeholder description {i}", cmd=e.cmd, source="generated"
            )
            for i, e in enumerate(entries)
        ],
        dataset,
    )

    run(["split", "--in", str(dataset), "--train", str(work / "train.jsonl"),
         "--test", str(work / "test.jsonl"), "--seed", seed])
    run(["stats", "--in", str(dataset), "--format", "json"])

    manifest = json.loads((work / "scaled.jsonl.manifest.json").read_text())
    print(f"\ndone; artifacts in {work}/ (tool {manifest['tool_version']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
