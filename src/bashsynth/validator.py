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

import functools
import os
import re
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from . import bash_ast
from .dataset_io import STRINGS, check_fields, check_object, read_json, shipped
from .syntax_kb import PLACEHOLDER_RE

__all__ = [
    "MissingFixture",
    "SandboxSetupError",
    "WORKSPACE_MARKER",
    "SandboxConfig",
    "ValidationResult",
    "load_fixture_values",
    "load_manifest",
    "instantiate",
    "run_batch",
]

TIMEOUT = "TIMEOUT"
SPAWN_FAIL = "SPAWN_FAIL"

DEFAULT_TIMEOUT_SECONDS = 0.5
DEFAULT_FIXTURES = shipped("sandbox/values.json")
DEFAULT_MANIFEST = shipped("sandbox/manifest.json")

# Marks a workspace root run_batch created; it clears no other non-empty one.
WORKSPACE_MARKER = ".bashsynth-workspace"


class MissingFixture(KeyError):
    """Fixture table lacks a value for a placeholder kind."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind

    def __str__(self) -> str:
        if self.kind in bash_ast.PLACEHOLDER_BY_TOKEN:
            return (f"{self.kind!r} is a parser placeholder: validate fills "
                    "generate's bracket templates ([File]), not scale output")
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
        if not 0 < self.timeout < float("inf"):  # nan too: a wait would never end
            raise ValueError(f"timeout must be a finite number above 0, not {self.timeout}")
        if self.backend not in ("dry_run", "subprocess"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True, slots=True)
class ValidationResult:
    command: str
    exit_status: int | str
    wall_time: float
    verdict: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"command": self.command, "exit_status": self.exit_status,
                "wall_time": self.wall_time, "verdict": self.verdict,
                "note": self.note}


# ---------------------------------------------------------------------------
# Fixtures


_MANIFEST = {
    "dirs": STRINGS,
    "files": (lambda v: isinstance(v, dict) and all(isinstance(c, str) for c in v.values()),
              "an object of strings", {}),
}


def load_fixture_values(path: str | Path = DEFAULT_FIXTURES) -> dict[str, list[str]]:
    """Concrete values per generator argument kind: a JSON object mapping
    each pool name to an array of strings. Each value is returned as one
    shell word (:func:`bash_ast.quote`), so ``a b`` fills a slot as ``'a b'``."""
    data = read_json(path)
    check_fields(data, dict.fromkeys(data, STRINGS), path)
    return {kind: [bash_ast.quote(v) for v in values] for kind, values in data.items()}


def load_manifest(path: str | Path = DEFAULT_MANIFEST) -> dict[str, object]:
    """Workspace manifest: a JSON object whose ``dirs`` array names the
    directories to create and whose ``files`` object maps paths to contents;
    it may hold no other key."""
    data = read_json(path)
    check_object(data, _MANIFEST, path)
    return data


def instantiate(template: str, fixtures: Mapping[str, Sequence[str]]) -> str:
    """Replace every placeholder with a concrete fixture value.

    A placeholder draws from the pool its name names: ``[File]`` from
    ``File``. The template is split once at its placeholders
    (``PLACEHOLDER_RE``), and each placeholder, left to right, takes its
    pool's next value round-robin; unlike partial template fill, full
    replacement is required here. Raises :class:`MissingFixture` when a
    needed pool has no values. Parser-form text is refused before any draw:
    the first word that is a parser token (``_PATH``) raises with its own
    name. Other words (``_HOME``) are literals, as
    :func:`bash_ast.templatize` reads them.
    """
    if "_" in template:  # every parser token starts with "_"
        tokens = bash_ast.PLACEHOLDER_BY_TOKEN
        words = template.split()
        if not tokens.keys().isdisjoint(words):
            raise MissingFixture(next(w for w in words if w in tokens))
    # literal text at even indices, placeholder names at odd ones
    parts = PLACEHOLDER_RE.split(template)
    counters: dict[str, int] = {}
    for i in range(1, len(parts), 2):
        name = parts[i]
        values = fixtures.get(name)
        if not values:
            raise MissingFixture(name)
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        parts[i] = values[idx % len(values)]
    return "".join(parts)


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


# Utilities that run a command named by their words: xargs curl -O, env
# wget x, timeout 5 nc, nohup, nice -n 5, sh -c 'curl x'
_LAUNCHERS = frozenset({"xargs", "env", "sh", "bash", "timeout", "nohup", "nice"})
# Quoting, dropped before a word is split: "cu"rl and 'curl x' name curl
_QUOTING = re.compile(r"""['"\\]""")
# What ends a program name in shell text: whitespace and ls;curl
_SHELL_BREAKS = re.compile(r"[\s;&|()]+")


def _param_words(node: bash_ast.UtilityNode) -> Iterator[str]:
    """Each parameter word of a node, a flag's argument included, without
    its quoting."""
    for item in node.items:
        param = item.arg if isinstance(item, bash_ast.FlagNode) else item
        if isinstance(param, bash_ast.ParamNode):
            yield _QUOTING.sub("", param.literal)


def _launched_names(node: bash_ast.UtilityNode) -> Iterator[str]:
    """The basename of each word a launcher node may run: every parameter
    word split at whitespace and command separators, so the first word of
    a ``-c`` string is one of them."""
    for word in _param_words(node):
        for name in _SHELL_BREAKS.split(word):
            yield name.rsplit("/", 1)[-1]


# A word naming a path outside the run directory: absolute, another user's
# home (~root; ~ alone is HOME, the run directory), or climbing with ..
_OTHER_HOME = re.compile(r"~[^/]")


def _escapes(word: str) -> bool:
    return ((word.startswith("/") and word != "/dev/null")
            or _OTHER_HOME.match(word) is not None
            or ".." in word.split("/"))


def _blocked_reason(command: str) -> str | None:
    for pattern in _DENY_PATTERNS:
        if pattern.search(command):
            return f"deny-list pattern {pattern.pattern!r}"
    try:
        ast = bash_ast.parse(command)
    except bash_ast.ParseError as exc:
        return f"does not parse: {exc}"
    # A substitution the parse did not make a node of, joined to a word or
    # quoted, or a backtick one, would run a command the checks below miss.
    substitutions = sum(isinstance(it, bash_ast.Substitution)
                        for stage in ast.stages for it in stage.items)
    if "`" in command or command.count("$(") > substitutions:
        return "command substitution inside a word"
    for node in ast.walk_utilities():
        name = node.name.rsplit("/", 1)[-1]
        if name in _NETWORK_UTILITIES:
            return f"network utility {name!r} blocked"
        if name in _LAUNCHERS:
            launched = _NETWORK_UTILITIES.intersection(_launched_names(node))
            if launched:
                return f"network utility {min(launched)!r} blocked under {name!r}"
    for node in ast.walk_utilities():
        for word in _param_words(node):
            if _escapes(word):
                return f"path {word!r} escapes the workspace"
    return None


# ---------------------------------------------------------------------------
# Execution


def _provision(run_dir: Path, manifest: Mapping[str, Any]) -> None:
    """Create ``run_dir`` and the manifest's directories and files in it."""
    try:
        run_dir.mkdir(parents=True)
        for rel in manifest.get("dirs", ()):
            (run_dir / rel).mkdir(parents=True, exist_ok=True)
        for rel, content in manifest.get("files", {}).items():
            target = run_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise SandboxSetupError(f"cannot provision workspace {run_dir}: {exc}") from exc


_SANDBOX_PATH = "/usr/bin:/bin"


@functools.cache
def _shell() -> str:
    """bash as the sandbox PATH finds it, else /bin/sh."""
    return shutil.which("bash", path=_SANDBOX_PATH) or "/bin/sh"


def _run_one(index: int, command: str, config: SandboxConfig,
             manifest: Mapping[str, Any]) -> ValidationResult:
    reason = _blocked_reason(command)
    if reason is not None:
        return ValidationResult(command, SPAWN_FAIL, 0.0, False, note=reason)

    run_dir = Path(config.workspace) / f"run_{index:05d}"
    _provision(run_dir, manifest)
    # a reduced environment rooted in the run directory
    env = {"PATH": _SANDBOX_PATH, "HOME": str(run_dir), "TMPDIR": str(run_dir),
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

    # a command that was not killed finished in time: the verdict is its exit
    note = "utility not installed" if status == 127 else ""
    return ValidationResult(command, status, wall, status == 0, note)


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

    # checked once, before the workspace root is inspected, cleared or made
    manifest = config.manifest if config.manifest is not None else load_manifest()
    for rel in [*manifest.get("dirs", ()), *manifest.get("files", {})]:
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise SandboxSetupError(f"manifest path escapes workspace: {rel}")

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

    # imported here, so a dry run never loads it
    from concurrent.futures import ThreadPoolExecutor

    # map cancels the queued commands when one raises
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(_run_one, count(), commands, repeat(config), repeat(manifest)))

