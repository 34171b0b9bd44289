"""Rebuild exec_reference.json, the exec_sandbox workload's verdict table.

    python3 perfbench/make_exec_reference.py

For every template in the exec_sandbox population this fills the
placeholders from the shipped fixture values (round-robin per kind, left to
right, as the README documents), runs the command with bash in a fresh
copy of the shipped workspace manifest, and records the exit status. It
uses none of bashsynth's validator code, so the table can check it.
Review the diff of the table before committing it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

DATA = workloads.ROOT / "src" / "bashsynth" / "data" / "sandbox"
_PLACEHOLDER = re.compile(r"\[([A-Za-z]+)\]")


def instantiate(template: str, values: dict[str, list[str]]) -> str:
    counters: dict[str, int] = {}

    def draw(match: re.Match[str]) -> str:
        pool = values[match.group(1)]
        i = counters.get(match.group(1), 0)
        counters[match.group(1)] = i + 1
        return pool[i % len(pool)]

    return _PLACEHOLDER.sub(draw, template)


def provision(run_dir: Path, manifest: dict) -> None:
    run_dir.mkdir()
    for rel in manifest["dirs"]:
        (run_dir / rel).mkdir(parents=True, exist_ok=True)
    for rel, content in manifest["files"].items():
        (run_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        (run_dir / rel).write_text(content, encoding="utf-8")


def main() -> int:
    values = json.loads((DATA / "values.json").read_text(encoding="utf-8"))
    manifest = json.loads((DATA / "manifest.json").read_text(encoding="utf-8"))
    kb = workloads.syntax_kb.SyntaxKb.load()
    table = {}
    scratch = Path(tempfile.mkdtemp(dir=workloads.ROOT))
    try:
        for i, template in enumerate(workloads.exec_population(kb)):
            command = instantiate(template, values)
            run_dir = scratch / f"run_{i:05d}"
            provision(run_dir, manifest)
            proc = subprocess.run(
                ["bash", "-c", command], cwd=run_dir, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=5,
                env={"PATH": "/usr/bin:/bin", "HOME": str(run_dir),
                     "TMPDIR": str(run_dir), "LC_ALL": "C", "LANG": "C"},
            )
            table[template] = {"cmd": command, "exit": proc.returncode}
            shutil.rmtree(run_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = workloads.EXEC_REFERENCE
    lines = [f"  {json.dumps(t)}: {json.dumps(v)}" for t, v in sorted(table.items())]
    out.write_text('{"commands": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    failing = sum(1 for v in table.values() if v["exit"] != 0)
    print(f"wrote {len(table)} commands ({failing} with nonzero exit) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
