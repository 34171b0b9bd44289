"""Instantiate templates with concrete arguments and execute them sandboxed.

Templates hold generator placeholders (``[File]``), which
:func:`instantiate` fills from the fixture pool of that name. Parser-form
text (``_FILE``, as ``scale`` writes it) names no pool and is refused.

Execution is opt-in. The subprocess backend runs each command in a fresh
workspace populated from a fixture manifest, with a reduced environment, a
hard timeout, and a deny-list for destructive or network-reaching commands.
The dry_run backend substitutes a parse check so pipelines stay testable
without executing anything.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from . import bash_ast
from .syntax_kb import rewrite_placeholders

__all__ = [
    "MissingFixture",
    "SandboxSetupError",
    "WORKSPACE_MARKER",
    "SandboxConfig",
    "ValidationResult",
    "RateTable",
    "load_fixture_values",
    "load_manifest",
    "instantiate",
    "run_batch",
    "validity_rate",
]

TIMEOUT = "TIMEOUT"
SPAWN_FAIL = "SPAWN_FAIL"

DEFAULT_TIMEOUT_SECONDS = 0.5

# Marks a workspace root run_batch created; it clears no other non-empty one.
WORKSPACE_MARKER = ".bashsynth-workspace"


class MissingFixture(KeyError):
    """Fixture table lacks a value for a placeholder kind."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind

    def __str__(self) -> str:
        return f"no fixture values for argument kind {self.kind!r}"


class SandboxSetupError(RuntimeError):
    """Workspace could not be provisioned or execution was not enabled."""


@dataclass(frozen=True)
class SandboxConfig:
    workspace: Path
    timeout: float = DEFAULT_TIMEOUT_SECONDS
    backend: str = "dry_run"  # "dry_run" | "subprocess"
    allow_execution: bool = False
    manifest: Mapping[str, object] | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backend not in ("dry_run", "subprocess"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class ValidationResult:
    command: str
    exit_status: int | str
    wall_time: float
    verdict: bool
    note: str = ""


@dataclass(frozen=True)
class RateTable:
    overall: float
    per_utility: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fixtures


def _load_json(path: str | Path | None, shipped: str) -> tuple[object, dict]:
    """The file and its JSON object: the file at ``path``, or the shipped
    ``data/sandbox/<shipped>``."""
    file = (Path(path) if path is not None
            else resources.files("bashsynth").joinpath(f"data/sandbox/{shipped}"))
    data = json.loads(file.read_text(encoding="utf-8"))
    return file, _expect(data, dict, f"{file}: top level")


def _expect(value: object, shape: type, where: str):
    """``value`` if it is a JSON object (``dict``) or array (``list``) as
    ``shape`` says; otherwise ValueError naming ``where``."""
    if not isinstance(value, shape):
        kind = "object" if shape is dict else "array"
        raise ValueError(f"{where} must be a JSON {kind}, got {type(value).__name__}")
    return value


def load_fixture_values(path: str | Path | None = None) -> dict[str, list[str]]:
    """Concrete values per generator argument kind, shipped with the repo:
    a JSON object mapping each pool name to an array of values."""
    file, data = _load_json(path, "values.json")
    return {str(k): [str(v) for v in _expect(vs, list, f"{file}: {k!r}")]
            for k, vs in data.items()}


def load_manifest(path: str | Path | None = None) -> dict[str, object]:
    """Workspace manifest: a JSON object whose ``dirs`` array names the
    directories to create and whose ``files`` object maps paths to contents."""
    file, data = _load_json(path, "manifest.json")
    for key, shape in (("dirs", list), ("files", dict)):
        _expect(data.get(key, shape()), shape, f"{file}: {key!r}")
    return data


def instantiate(template: str, fixtures: Mapping[str, Sequence[str]]) -> str:
    """Replace every placeholder with a concrete fixture value.

    A placeholder draws from the pool its name names: ``[File]`` from
    ``File``. Values are drawn round-robin per pool, left to right; unlike
    partial template fill, full replacement is required here. Raises
    :class:`MissingFixture` when a needed pool has no values, so a parser
    token (``_PATH``), which names no pool, raises with its own name.
    """
    counters: dict[str, int] = {}

    def draw(name: str) -> str:
        values = fixtures.get(name)
        if not values:
            raise MissingFixture(name)
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        return values[idx % len(values)]

    return rewrite_placeholders(template, draw)


# ---------------------------------------------------------------------------
# Safety policy

_DENY_PATTERNS = tuple(
    re.compile(p)
    for p in (
        r"\brm\b[^|]*\s/(\s|$|\*)",  # delete from filesystem root
        r"\bmkfs",
        r"\bdd\b.*\bof=/dev/",
        r">\s*/dev/(sd|hd|nvme|mem)",
        r":\s*\(\s*\)\s*\{",  # fork bomb definition
        r"\b(shutdown|reboot|poweroff|halt)\b",
        r"\bsudo\b",
        r"\bchmod\b.*\s/(\s|$)",
        r"\bchown\b.*\s/(\s|$)",
    )
)

_NETWORK_UTILITIES = frozenset(
    {"curl", "wget", "nc", "ncat", "netcat", "ssh", "scp", "sftp", "ftp",
     "telnet", "rsync", "ping"}
)


def _blocked_reason(command: str) -> str | None:
    for pattern in _DENY_PATTERNS:
        if pattern.search(command):
            return f"deny-list pattern {pattern.pattern!r}"
    try:
        ast = bash_ast.parse(command)
    except bash_ast.ParseError as exc:
        return f"does not parse: {exc}"
    for node in ast.walk_utilities():
        name = node.name.rsplit("/", 1)[-1]
        if name in _NETWORK_UTILITIES:
            return f"network utility {name!r} blocked"
    return None


# ---------------------------------------------------------------------------
# Execution


def _provision(run_dir: Path, manifest: Mapping[str, object]) -> None:
    try:
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        for rel in manifest.get("dirs", ()):  # type: ignore[union-attr]
            rel_path = Path(str(rel))
            if rel_path.is_absolute() or ".." in rel_path.parts:
                raise SandboxSetupError(f"manifest path escapes workspace: {rel}")
            (run_dir / rel_path).mkdir(parents=True, exist_ok=True)
        for rel, content in dict(manifest.get("files", {})).items():  # type: ignore[arg-type]
            rel_path = Path(str(rel))
            if rel_path.is_absolute() or ".." in rel_path.parts:
                raise SandboxSetupError(f"manifest path escapes workspace: {rel}")
            target = run_dir / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(str(content), encoding="utf-8")
    except OSError as exc:
        raise SandboxSetupError(f"cannot provision workspace {run_dir}: {exc}") from exc


def _shell() -> str:
    return shutil.which("bash") or "/bin/sh"


def _run_one(
    index: int, command: str, config: SandboxConfig, manifest: Mapping[str, object]
) -> ValidationResult:
    reason = _blocked_reason(command)
    if reason is not None:
        return ValidationResult(command, SPAWN_FAIL, 0.0, False, note=reason)

    run_dir = Path(config.workspace) / f"run_{index:05d}"
    _provision(run_dir, manifest)
    # a reduced environment rooted in the run directory
    env = {"PATH": "/usr/bin:/bin", "HOME": str(run_dir), "TMPDIR": str(run_dir),
           "LC_ALL": "C", "LANG": "C"}

    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [_shell(), "-c", command],
            cwd=run_dir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
    except OSError as exc:
        return ValidationResult(
            command, SPAWN_FAIL, time.perf_counter() - start, False, note=str(exc)
        )

    try:
        status = proc.wait(timeout=config.timeout)
        wall = time.perf_counter() - start
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        wall = time.perf_counter() - start
        return ValidationResult(command, TIMEOUT, wall, False, note="killed")

    verdict = status == 0 and wall <= config.timeout
    return ValidationResult(command, status, wall, verdict)


def run_batch(
    commands: Sequence[str], config: SandboxConfig
) -> list[ValidationResult]:
    """Run commands in a fresh workspace each; results in input order.

    The subprocess backend requires ``allow_execution=True``. The dry_run
    backend marks a command valid iff it parses.
    """
    if config.backend == "dry_run":
        results = []
        for command in commands:
            try:
                bash_ast.parse(command)
                results.append(ValidationResult(command, 0, 0.0, True, note="dry_run"))
            except bash_ast.ParseError as exc:
                results.append(
                    ValidationResult(command, 1, 0.0, False, note=f"dry_run: {exc}")
                )
        return results

    if not config.allow_execution:
        raise SandboxSetupError(
            "subprocess backend requires explicit opt-in (allow_execution=True)"
        )

    root = Path(config.workspace)
    try:
        marked = (root / WORKSPACE_MARKER).exists()
        if root.is_dir() and not marked and any(root.iterdir()):
            raise SandboxSetupError(
                f"refusing to clear {root}: not empty and not a bashsynth "
                f"workspace (no {WORKSPACE_MARKER})"
            )
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        (root / WORKSPACE_MARKER).touch()
    except OSError as exc:
        raise SandboxSetupError(f"cannot create workspace {root}: {exc}") from exc

    manifest = config.manifest if config.manifest is not None else load_manifest()
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        futures = [
            pool.submit(_run_one, i, cmd, config, manifest)
            for i, cmd in enumerate(commands)
        ]
        return [f.result() for f in futures]


def validity_rate(results: Sequence[ValidationResult]) -> RateTable:
    """Fraction of valid verdicts, overall and per head utility: the first
    stage's utility, or the first word of a command that does not parse."""
    if not results:
        return RateTable(0.0, {})
    per: dict[str, list[int]] = {}
    valid_total = 0
    for r in results:
        try:
            head = bash_ast.parse(r.command).stages[0].name
        except bash_ast.ParseError:
            head = next(iter(r.command.split()), "")
        per.setdefault(head, []).append(1 if r.verdict else 0)
        valid_total += 1 if r.verdict else 0
    return RateTable(
        overall=valid_total / len(results),
        per_utility={u: sum(v) / len(v) for u, v in sorted(per.items())},
    )
