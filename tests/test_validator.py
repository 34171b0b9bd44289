from __future__ import annotations

import itertools
import json
import os
import re
import tempfile
import time
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bashsynth import bash_ast
from bashsynth import validator as V
from bashsynth.bash_ast import PLACEHOLDER_BY_TOKEN, ParseError, parse
from bashsynth.generator import generate_piped, generate_unpiped
from bashsynth.syntax_kb import PLACEHOLDER_RE, GenArgKind, to_parser_template


# Refused as unparseable before the network check could see its ssh.
_UNPARSEABLE = 'echo "open | ssh host'
_EXPANSION = "expansion or substitution: the policy cannot read what it names"


@pytest.fixture(scope="module")
def fixtures():
    return V.load_fixture_values()


class TestLoaders:
    @pytest.mark.parametrize("data, key", [
        (["temp.txt"], "top level"),
        ({"File": "temp.txt"}, "'File'"),
        ({"File": [1, None]}, "'File'"),
    ])
    def test_fixture_values_refuse_malformed_shapes(self, tmp_path, data, key):
        path = tmp_path / "values.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as exc:
            V.load_fixture_values(path)
        assert str(exc.value).startswith(f"{path}: {key}")

    @pytest.mark.parametrize("data, key", [
        ([], "top level"),
        ({"dirs": "abc"}, "'dirs'"),
        ({"files": ["a.txt"]}, "'files'"),
        ({"dirs": [None]}, "'dirs'"),
        ({"files": {"a.txt": None}}, "'files'"),
        # misspelled: read as absent, the manifest would provision no file
        ({"dirs": ["abc"], "file": {"a.txt": "x"}}, "unknown field 'file'"),
    ])
    def test_manifest_refuses_malformed_shapes(self, tmp_path, data, key):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as exc:
            V.load_manifest(path)
        assert str(exc.value).startswith(f"{path}: {key}")


    @pytest.mark.parametrize("load, text, key", [
        pytest.param(V.load_manifest, '{"files": {"a.txt": "x", "a.txt": "y"}}', "a.txt",
                     id="manifest"),
        pytest.param(V.load_fixture_values, '{"File": ["a.txt"], "File": []}', "File",
                     id="fixtures"),
    ])
    def test_duplicate_key_refused(self, tmp_path, load, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: duplicate key {key!r}"


class TestInstantiate:
    def test_directory_slot(self, fixtures):
        assert V.instantiate("cd [Directory]", fixtures) == "cd abc"

    def test_file_slot(self, fixtures):
        assert V.instantiate("[File]", fixtures) == "temp.txt"

    def test_missing_fixture_names_kind(self):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("grep [Pattern] [File]", {"File": ["temp.txt"]})
        assert exc.value.kind == "Pattern"

    def test_unknown_bracket_kind_named_in_refusal(self, fixtures):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("echo [Foo]", fixtures)
        assert str(exc.value) == "no fixture values for argument kind 'Foo'"

    def test_round_robin_per_kind(self, fixtures):
        out = V.instantiate("diff [File] [File]", fixtures)
        assert out == "diff temp.txt a.txt"

    def test_parser_placeholders_also_fill(self, fixtures):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("find _PATH -name _REGEX", fixtures)
        assert exc.value.kind == "_PATH"

    def test_unknown_parser_like_word_is_a_literal(self, fixtures):
        # bash_ast reads _HOME as a plain word too
        assert V.instantiate("echo _HOME", fixtures) == "echo _HOME"

    def test_parser_form_refused_before_any_draw(self):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("cp [Gizmo] _FILE _PATH", {})
        assert exc.value.kind == "_FILE"

    def test_loaded_values_fill_as_one_shell_word(self, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps({"Pattern": ["a b", "x|y"], "File": ["t.txt"]}))
        command = V.instantiate("grep [Pattern] [Pattern] [File]", V.load_fixture_values(path))
        assert command == "grep 'a b' 'x|y' t.txt"
        assert len(parse(command).stages) == 1

    def test_deterministic(self, fixtures):
        template = "cp [File] [Path]"
        assert V.instantiate(template, fixtures) == V.instantiate(template, fixtures)

    def test_generated_command_input(self, kb, fixtures):
        for cmd in generate_unpiped(kb.get("grep"), limit=10, seed=1):
            concrete = V.instantiate(cmd.render(), fixtures)
            assert "[" not in concrete and "]" not in concrete


# Reference tables for the oracle, written out by hand.
PARSER_TOKENS = ["_FILE", "_DIRECTORY", "_PATH", "_NUMBER", "_REGEX",
                 "_PERMISSION", "_SIZE", "_TIMESPAN", "_DATETIME"]
ORACLE_TOKEN = {
    "File": "_FILE", "Directory": "_DIRECTORY", "Path": "_PATH",
    "Quantity": "_NUMBER", "Permission": "_PERMISSION", "Size": "_SIZE",
    "Timespan": "_TIMESPAN", "Datetime": "_DATETIME",
}
KNOWN_BRACKETS = [k.value for k in GenArgKind]
UNKNOWN_BRACKETS = ["Gizmo", "Widget"]
UNKNOWN_TOKENS = ["_FOO", "_GIZMO"]
# Plain words, including near misses that are not placeholders.
LITERALS = ["ls", "-l", "a.txt", "x_FILE", "_FILEx", "__FILE", "[_FILE]",
            "[File", "File]", "_file", "{}", "|", "-"]
VALUES = ["v1", "two words", "_FILE", "[File]", "1"]

token_st = st.one_of(
    st.sampled_from(KNOWN_BRACKETS + UNKNOWN_BRACKETS).map(lambda n: ("bracket", n)),
    st.sampled_from(PARSER_TOKENS + UNKNOWN_TOKENS).map(lambda t: ("parser", t)),
    st.sampled_from(LITERALS).map(lambda w: ("literal", w)),
)


@st.composite
def fixtures_st(draw):
    pools = {}
    for name in KNOWN_BRACKETS + UNKNOWN_BRACKETS[:1]:
        roll = draw(st.integers(0, 9))
        if roll == 0:
            continue  # pool absent
        pools[name] = [] if roll == 1 else draw(
            st.lists(st.sampled_from(VALUES), min_size=1, max_size=3)
        )
    return pools


def _text(tokens) -> str:
    return " ".join(f"[{v}]" if tag == "bracket" else v for tag, v in tokens)


def _oracle_instantiate(tokens, fixtures) -> str:
    """A parser token the parser knows is refused before any draw, naming
    the first; then, token by token, each bracket takes its pool's next
    value. Other words, unknown parser-like tokens included, are literals."""
    for tag, v in tokens:
        if tag == "parser" and v in PARSER_TOKENS:
            raise V.MissingFixture(v)
    used: dict[str, int] = {}
    out = []
    for tag, v in tokens:
        if tag != "bracket":
            out.append(v)
            continue
        if not fixtures.get(v):
            raise V.MissingFixture(v)
        out.append(fixtures[v][used.get(v, 0) % len(fixtures[v])])
        used[v] = used.get(v, 0) + 1
    return " ".join(out)


def _oracle_to_parser(tokens) -> str:
    out = []
    for tag, v in tokens:
        if tag == "bracket":
            out.append(ORACLE_TOKEN.get(v, "_REGEX" if v in KNOWN_BRACKETS else f"[{v}]"))
        else:
            out.append(v)
    return " ".join(out)


def _reference_instantiate(template, fixtures) -> str:
    """instantiate as one re.sub with a per-match callback, the form it had
    before it split the text once; kept as a reference."""
    for word in template.split():
        if word in PLACEHOLDER_BY_TOKEN:
            raise V.MissingFixture(word)
    counters: dict[str, int] = {}

    def draw(m) -> str:
        name = m[1]
        values = fixtures.get(name)
        if not values:
            raise V.MissingFixture(name)
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        return values[idx % len(values)]

    return PLACEHOLDER_RE.sub(draw, template)


_REFERENCE_TOKEN = {k.value: k.parser.token for k in GenArgKind}


def _reference_to_parser(command: str) -> str:
    """to_parser_template as one re.sub; kept as a reference."""
    return PLACEHOLDER_RE.sub(lambda m: _REFERENCE_TOKEN.get(m[1], m[0]), command)


# Fragments joined with no separator (whitespace is one of them), so brackets
# touch words and each other and nest: x[File]y, [File][Path], [[File]],
# [Fi[File]le].
glued_st = st.lists(
    st.sampled_from(["[File]", "[Path]", "[Quantity]", "[Gizmo]", "[", "]",
                     "Fi", "le", "x", "_FILE", "_HOME", " ", "\t"]),
    max_size=12,
).map("".join)


class TestPlaceholderOracle:
    def test_literals_hold_no_placeholder(self):
        for word in LITERALS:
            assert PLACEHOLDER_RE.search(word) is None, word

    @settings(max_examples=200, deadline=None)
    @given(st.lists(token_st, max_size=12), fixtures_st())
    def test_instantiate(self, tokens, fixtures):
        try:
            expected = _oracle_instantiate(tokens, fixtures)
        except V.MissingFixture as exc:
            with pytest.raises(V.MissingFixture) as got:
                V.instantiate(_text(tokens), fixtures)
            assert got.value.kind == exc.kind
            return
        assert V.instantiate(_text(tokens), fixtures) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(token_st, max_size=12))
    def test_to_parser_template(self, tokens):
        once = to_parser_template(_text(tokens))
        assert once == _oracle_to_parser(tokens)
        assert to_parser_template(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(glued_st, st.lists(token_st, max_size=12).map(_text)), fixtures_st())
    @example("x[File]y [File][Path] [[File]] [Fi[File]le]", {"File": ["a", "b"], "Path": ["p"]})
    @example("[File][Path]", {"File": ["a"], "Path": []})
    @example("x[Gizmo]y", {})
    def test_instantiate_matches_reference(self, text, fixtures):
        try:
            expected = _reference_instantiate(text, fixtures)
        except V.MissingFixture as exc:
            with pytest.raises(V.MissingFixture) as got:
                V.instantiate(text, fixtures)
            assert got.value.kind == exc.kind
            return
        assert V.instantiate(text, fixtures) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(glued_st, st.lists(token_st, max_size=12).map(_text)))
    @example("x[File]y [File][Path] [[File]] [Fi[File]le] [Gizmo]")
    def test_to_parser_template_matches_reference(self, text):
        once = to_parser_template(text)
        assert once == _reference_to_parser(text)
        assert to_parser_template(once) == once


class TestDryRun:
    def test_parse_verdicts(self, tmp_path):
        config = V.SandboxConfig(workspace=tmp_path / "ws")
        results = V.run_batch(["ls -la", 'grep "unbalanced'], config)
        assert [r.verdict for r in results] == [True, False]
        assert results[0].exit_status == 0

    def test_all_parseable_rate_is_one(self, tmp_path):
        config = V.SandboxConfig(workspace=tmp_path / "ws")
        results = V.run_batch(["ls", "pwd", "du -s ."], config)
        assert all(r.verdict for r in results)


# ---------------------------------------------------------------------------
# The policy before every word was read one way, verbatim: a regex deny-list
# over the raw text, network names on node names and launcher words, a
# substitution count and a path check on parameter words. Every command it
# refuses must still be refused, except one writing to /dev/null.

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


def _deny_list_reason(command: str) -> str | None:
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


# Words drawn from what the deny-list refused: its shapes, network names,
# launchers, glued options and escaping paths, among harmless words. No
# fragment names /dev/null, the one target the deny-list refused (dd
# of=/dev/null) that the policy allows.
_POLICY_FRAGMENTS = [
    *sorted(_NETWORK_UTILITIES), "sudo", "shutdown", "reboot", "poweroff", "halt", "mkfs",
    "mkfs.ext4", "xargs", "env", "sh", "bash", "timeout", "nohup", "nice", "eval",
    "command", "time", "stdbuf", "setsid", "-c", "-i", "-n", "5",
    "ls", "cat", "grep", "sort", "rm", "-rf", "dd", "chmod", "chown", "777", "tar", "cp",
    "find", "-exec", "{}", "\\;", ".", "-name", "a.txt", "abc", "x", "-l", "*", "if=a.txt",
    "of", "-o", "-C", "/", "/*", "/etc", "/etc/passwd", "/dev/sda", "/dev/hda",
    "/dev/nvme0n1", "/dev/mem", "/dev/zero", "/bin/ls", "/usr/bin/nc", "../x", "a/../..",
    "..", "~root/.profile", "~root", "~", "~/a.txt", "-o/etc/passwd", "-C/etc",
    "--output=/etc/y", "of=/dev/sda", ">/dev/sda", ">", ">/dev/mem", "-f../x",
    ":(){ :|:& };:", "-ok", "-execdir", "+", "--o=/etc/x,y",
]
# What may join two fragments into one word, or stages into a pipeline
_POLICY_JOINS = ["", "=", ",", "/", "-", ".", ":", " ", "|", "\\", "{", "}"]


@st.composite
def _quoted_fragment(draw) -> str:
    text = draw(st.sampled_from(_POLICY_FRAGMENTS))
    how = draw(st.sampled_from(["", "", "'", '"', "\\", "inside"]))
    if how == "inside":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from(["''", '""', "\\"])) + text[cut:]
    return how + text + ("" if how == "\\" else how)


def _c_string(launcher_and_stage: tuple[str, str]) -> str:
    """A launcher with a whole stage as its single-quoted -c string."""
    launcher, stage = launcher_and_stage
    return launcher + " '" + stage.replace("'", "") + "'"


_policy_word = st.lists(st.one_of(_quoted_fragment(), st.sampled_from(_POLICY_JOINS)),
                        min_size=1, max_size=4).map("".join)
_policy_stage = st.lists(_policy_word, min_size=1, max_size=5).map(" ".join)
_policy_c_string = st.tuples(
    st.sampled_from(["sh -c", "bash -c", "xargs sh -c"]), _policy_stage).map(_c_string)
_policy_command = st.lists(st.one_of(_policy_stage, _policy_c_string),
                           min_size=1, max_size=3).map(" | ".join)


# A reference walk over a command's words, the one the policy read before
# bash_ast.stage_words: per walk_utilities() node, its name, flag tokens, flag
# arguments and parameters, so an -exec body comes after all of its node's
# own words. It reads no clause word (-exec, \;, +), splits a glued
# --flag=value in two and reads $(...) stages as nodes.
def _reference_words(node: bash_ast.UtilityNode) -> Iterator[str]:
    yield node.name
    for item in node.items:
        if isinstance(item, bash_ast.FlagNode):
            yield item.token
            item = item.arg
        if isinstance(item, bash_ast.ParamNode):
            yield item.literal


def _reference_reason(command: str) -> str | None:
    try:
        ast = parse(command)
    except ParseError as exc:
        return f"does not parse: {exc}"
    if "$" in command or "`" in command:
        return _EXPANSION
    if V._FORK_BOMB.search(command):
        return "fork bomb"
    words = (word for node in ast.walk_utilities() for word in _reference_words(node))
    return next(filter(None, map(V._word_reason, words)), None)


def _has_clause(command: str) -> bool:
    try:
        stages = parse(command).stages
    except ParseError:
        return False
    return any(isinstance(it, bash_ast.ExecClause) for stage in stages for it in stage.items)


class TestPolicy:
    @pytest.mark.parametrize("command, reason", [
        ("sh -c 'rm -rf /etc'", "path '/etc' escapes the workspace"),
        ("sort -o/etc/passwd a.txt", "path '/etc/passwd' escapes the workspace"),
        ("tar -C/etc -xf a.tar", "path '/etc' escapes the workspace"),
        ("cp a.txt $BASH", _EXPANSION),
        ("rm -rf ${HOME%/*/*}", _EXPANSION),
        ("c''url x", "utility 'curl' blocked"),
        ('"curl" x', "utility 'curl' blocked"),
        ("eval curl x", "utility 'curl' blocked"),
        ("command curl x", "utility 'curl' blocked"),
        ("x=1 curl x", "utility 'curl' blocked"),
        (">/dev/null curl x", "utility 'curl' blocked"),
        ("re''boot", "utility 'reboot' blocked"),
        ("{curl,-s} x", "utility 'curl' blocked"),
        ("mkfs.ext4 a.txt", "utility 'mkfs' blocked"),
        ("echo x >/dev/sda", "path '/dev/sda' escapes the workspace"),
        ("sh -c ':(){ :|:& };:'", "fork bomb"),
    ])
    def test_every_word_is_read(self, command, reason):
        # Each word is read without its quoting, flag tokens and names
        # included, wherever it stands: any word may be run (eval, command,
        # an assignment or redirect before the name, a brace list). Only
        # the policy is called; nothing here is run.
        assert V._blocked_reason(command) == reason

    @pytest.mark.parametrize("command", [
        "grep curl a.txt", "xargs grep curl", "echo $HOME", "grep -v '^$' x", "/bin/ls"])
    def test_documented_over_refusals(self, command):
        # a blocked name as data, any expansion and an absolute program name
        assert V._blocked_reason(command) is not None

    def test_shipped_kb_passes_the_policy(self, kb, fixtures):
        # every unpiped template, and a seeded few of each (head, tail) pair
        unpiped = [entry for spec in kb.specs() for entry in generate_unpiped(spec)]
        piped = [entry for head in kb.specs() for tail in head.pipe_successors
                 for entry in generate_piped(head, kb.get(tail), 2, 2)]
        assert {t.utilities for t in piped} == {
            (head.name, tail) for head in kb.specs() for tail in head.pipe_successors}
        for template in unpiped + piped:
            command = V.instantiate(template.cmd, fixtures)
            assert V._blocked_reason(command) is None, command

    @settings(max_examples=500, deadline=None)
    @given(_policy_command)
    @example("sort --o=/etc/x,y a.txt")
    @example("sort '--o=/etc/x,y' a.txt")
    @example("find . -ok ls {} + -execdir ls {} \\;")
    @example("find . -exec curl {} \\; -newer /etc/x")
    def test_reads_what_the_node_walk_read(self, command):
        # The same verdict as the walk over walk_utilities() nodes, and the
        # same note unless a clause moves a body's words before later ones.
        reason = V._blocked_reason(command)
        reference = _reference_reason(command)
        assert (reason is None) == (reference is None)
        if not _has_clause(command):
            assert reason == reference

    @pytest.mark.parametrize("command, reason", [
        ("find . -exec curl {} \\; -newer /etc/x", "utility 'curl' blocked"),
        ("find . -newer /etc/x -exec curl {} \\;", "path '/etc/x' escapes the workspace"),
        ("find . -ok rm ../x + -name curl", "path '../x' escapes the workspace"),
        ("sort --output=/etc/x,y a.txt", "path '/etc/x,y' escapes the workspace"),
        ("sort '--output=/etc/x,y' a.txt", "path '/etc/x' escapes the workspace"),
    ])
    def test_note_is_the_first_refused_word_in_writing_order(self, command, reason):
        # stage_words gives an -exec clause's words in place, so a refused
        # word in a body comes before one after the clause's closer; a glued
        # --flag=value is read as the parser splits it, its value whole
        assert V._blocked_reason(command) == reason

    @settings(max_examples=500, deadline=None)
    @given(_policy_command)
    @example("echo x'sudo'")
    @example("ls mkfsx")
    @example("cat '~,x'")
    def test_refuses_all_the_deny_list_refused(self, command):
        if _deny_list_reason(command) is not None:
            assert V._blocked_reason(command) is not None


class TestSubprocess:
    def _config(self, tmp_path, **kw):
        return V.SandboxConfig(
            workspace=tmp_path / "ws",
            backend="subprocess",
            allow_execution=True,
            **kw,
        )

    def test_requires_opt_in(self, tmp_path):
        config = V.SandboxConfig(workspace=tmp_path / "ws", backend="subprocess")
        with pytest.raises(V.SandboxSetupError, match="opt-in"):
            V.run_batch(["ls"], config)

    def test_benign_command_valid(self, tmp_path):
        results = V.run_batch(["ls"], self._config(tmp_path))
        assert results[0].verdict is True
        assert results[0].exit_status == 0

    def test_missing_utility_noted(self, tmp_path):
        [result] = V.run_batch(["bashsynth-no-such-utility -x"], self._config(tmp_path))
        assert (result.exit_status, result.verdict, result.note) == (
            127, False, "utility not installed")

    def test_missing_file_invalid(self, tmp_path):
        results = V.run_batch(["cat no_such_file"], self._config(tmp_path))
        assert results[0].verdict is False
        assert results[0].exit_status not in (0, V.TIMEOUT)

    def test_exit_0_before_the_kill_is_valid(self, tmp_path, monkeypatch):
        # Popen.wait polls, so an exit late in the last poll interval is seen
        # only at the deadline; a wall time above the timeout must not turn
        # a command that exited 0 unkilled into a failure.
        ticks = itertools.count(0.0, 10.0)
        monkeypatch.setattr(V.time, "perf_counter", lambda: next(ticks))
        [result] = V.run_batch(["true"], self._config(tmp_path, timeout=0.5))
        assert result.wall_time > 0.5
        assert (result.exit_status, result.verdict, result.note) == (0, True, "")

    def test_timeout_enforced(self, tmp_path):
        results = V.run_batch(["sleep 5"], self._config(tmp_path))
        r = results[0]
        assert r.exit_status == V.TIMEOUT
        assert r.verdict is False
        assert r.wall_time >= 0.5
        assert r.wall_time < 3.0  # process was killed, not awaited

    def test_workspace_fixture_files_present(self, tmp_path):
        results = V.run_batch(
            ["cat temp.txt", "ls abc", "cat tree/sub/two.txt"],
            self._config(tmp_path),
        )
        assert all(r.verdict for r in results)

    def test_workspace_isolation(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        sentinel.mkdir()
        (sentinel / "keep.txt").write_text("untouched")
        before = {
            p: p.read_text() for p in sentinel.rglob("*") if p.is_file()
        }
        V.run_batch(
            ["ls", "echo hi > made.txt", "mkdir subdir", "rm temp.txt"],
            self._config(tmp_path),
        )
        after = {p: p.read_text() for p in sentinel.rglob("*") if p.is_file()}
        assert before == after

    def test_results_in_input_order(self, tmp_path):
        commands = ["echo one", "cat no_such_file", "echo three"]
        results = V.run_batch(commands, self._config(tmp_path))
        assert [r.command for r in results] == commands

    def test_parallel_jobs_match_serial(self, tmp_path):
        commands = ["ls", "cat a.txt", "cat no_such_file", "pwd"]
        serial = V.run_batch(commands, self._config(tmp_path / "s"))
        parallel = V.run_batch(commands, self._config(tmp_path / "p", jobs=3))
        assert [r.verdict for r in serial] == [r.verdict for r in parallel]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_error_stops_queued_commands(self, tmp_path, monkeypatch, jobs):
        ran = []

        def run_one(command, config, manifest):
            ran.append(command)
            if command == "echo 3":
                raise V.SandboxSetupError("cannot provision workspace")
            time.sleep(0.01)
            return V.ValidationResult(command, 0, 0.0, True)

        monkeypatch.setattr(V, "_run_one", run_one)
        with pytest.raises(V.SandboxSetupError):
            V.run_batch([f"echo {i}" for i in range(50)], self._config(tmp_path, jobs=jobs))
        assert len(ran) < 15

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_no_run_directory_outlives_its_verdict(self, tmp_path, monkeypatch, jobs):
        made = []
        provision = V._provision

        def record(run_dir, manifest):
            made.append(run_dir)
            provision(run_dir, manifest)

        monkeypatch.setattr(V, "_provision", record)
        commands = ["ls", "cat no_such_file", "sleep 5", "curl x", "echo hi > made.txt"]
        results = V.run_batch(commands, self._config(tmp_path, timeout=0.2, jobs=jobs))
        assert (results[2].exit_status, results[3].exit_status) == (V.TIMEOUT, V.SPAWN_FAIL)
        assert [r.verdict for r in results] == [True, False, False, False, True]
        # each command that ran had a directory of its own in the root, and
        # none is left: not after a failure, a kill or a written file
        root = tmp_path / "ws"
        assert len(set(made)) == 4
        assert all(d.parent == root and d.name.startswith("run_") for d in made)
        assert list(root.iterdir()) == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores file modes")
    def test_run_directory_that_strips_its_modes_is_removed(self, tmp_path):
        # the command takes every permission from a directory of its run
        # directory; a plain rmtree could not list it and would leave both
        results = V.run_batch(["chmod 000 tree", "ls"], self._config(tmp_path))
        assert [r.verdict for r in results] == [True, True]
        assert list((tmp_path / "ws").iterdir()) == []

    def test_run_directory_error_is_a_setup_error(self, tmp_path, monkeypatch):
        def refuse(*args, **kw):
            raise PermissionError("denied")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        with pytest.raises(V.SandboxSetupError, match="cannot provision workspace"):
            V.run_batch(["ls"], self._config(tmp_path))

    def test_shell_is_found_on_the_sandbox_path(self, tmp_path, monkeypatch):
        # a bash earlier on the caller's PATH than the sandbox's is not run
        fake = tmp_path / "bin" / "bash"
        fake.parent.mkdir()
        fake.write_text("#!/bin/sh\nexit 7\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake.parent}:{os.environ.get('PATH', '')}")
        [result] = V.run_batch(["true"], self._config(tmp_path))
        assert (result.exit_status, result.verdict) == (0, True)

    def test_deny_list_blocks_destructive(self, tmp_path):
        commands = ["rm -rf /", "sudo reboot", "dd if=temp.txt of=/dev/sda"]
        # refused before anything runs: a policy that let one through would
        # run it here
        assert all(V._blocked_reason(c) is not None for c in commands)
        results = V.run_batch(commands, self._config(tmp_path))
        for r in results:
            assert r.exit_status == V.SPAWN_FAIL
            assert r.verdict is False
            assert r.note

    def test_network_utilities_blocked(self, tmp_path):
        assert V._blocked_reason("curl http://example.com") == "utility 'curl' blocked"
        blocked = V.run_batch(["curl http://example.com"], self._config(tmp_path))
        assert blocked[0].exit_status == V.SPAWN_FAIL
        assert blocked[0].note == "utility 'curl' blocked"

    @pytest.mark.parametrize(
        "command, utility",
        [("find . -exec curl x \\;", "curl"), ("echo $(wget x)", "wget"),
         ("ls | curl x", "curl"), ("/usr/bin/nc -h", "nc"),
         (_UNPARSEABLE, "ssh")],
    )
    def test_network_block_sees_nested_utilities(self, tmp_path, command, utility):
        reason = V._blocked_reason(command)
        if command == _UNPARSEABLE:
            assert reason == "does not parse: unbalanced quote"
        elif "$" in command:
            assert reason == _EXPANSION
        else:
            assert reason == f"utility {utility!r} blocked"
        [result] = V.run_batch([command], self._config(tmp_path))
        assert (result.exit_status, result.note) == (V.SPAWN_FAIL, reason)

    @pytest.mark.parametrize(
        "command",
        ["echo x$(curl http://example.com)", 'echo "$(wget x)"', "ls `curl x`",
         "echo a$(ssh h)b"],
    )
    def test_hidden_substitution_refused(self, tmp_path, command):
        # Each parses with no Substitution node for its $(...) or backtick;
        # any "$" or backtick is refused, so no substitution reaches the walk
        # over the words. The policy is checked before anything runs.
        assert V._blocked_reason(command) == _EXPANSION
        [result] = V.run_batch([command], self._config(tmp_path))
        assert result.exit_status == V.SPAWN_FAIL
        assert result.note == _EXPANSION

    def test_whole_word_substitutions_are_refused(self):
        # the policy cannot read what a substitution prints: here /etc/passwd
        for command in ["echo $(ls) $(pwd | wc -l)", r"cat $(printf '\57etc\57passwd')"]:
            assert V._blocked_reason(command) == _EXPANSION

    @pytest.mark.parametrize(
        "command, utility, launcher",
        [("find . | xargs curl -O", "curl", "xargs"), ("env wget x", "wget", "env"),
         ("sh -c curl", "curl", "sh"), ("bash -c 'curl x'", "curl", "bash"),
         ("timeout 5 nc -l 80", "nc", "timeout"), ("nohup /usr/bin/ping h", "ping", "nohup"),
         ("nice -n 5 ssh h", "ssh", "nice"), ("sh -c 'ls;rsync a b'", "rsync", "sh"),
         ("/usr/bin/env -i scp a b", "scp", "env"), ('xargs "cu"rl', "curl", "xargs"),
         ("env \\wget x", "wget", "env")],
    )
    def test_network_block_sees_launched_utilities(self, tmp_path, command, utility,
                                                   launcher):
        # The network utility is a parameter word of its launcher, or in the
        # launcher's -c string, not a utility node of the parse. An absolute
        # launcher (/usr/bin/env) is refused first, as a path.
        names = {node.name.rsplit("/", 1)[-1] for node in parse(command).walk_utilities()}
        assert launcher in names and utility not in names
        note = (f"path {command.split()[0]!r} escapes the workspace"
                if command.startswith("/") else f"utility {utility!r} blocked")
        assert V._blocked_reason(command) == note
        [result] = V.run_batch([command], self._config(tmp_path))
        assert (result.exit_status, result.note) == (V.SPAWN_FAIL, note)

    @pytest.mark.parametrize(
        "command", ["xargs -n 1", "find . | xargs ls\\", "env A=b sort", "sh -c 'ls -l'",
                    "nice grep -c x a.txt", "timeout 5 ls"])
    def test_launched_local_utilities_pass_the_policy(self, command):
        assert V._blocked_reason(command) is None

    @pytest.mark.parametrize(
        "command, word",
        [("cp a.txt /etc/x", "/etc/x"), ("sort -o /etc/y a", "/etc/y"),
         ("ls > /etc/z", "/etc/z"), ("cat ../../etc/shadow", "../../etc/shadow"),
         ("find / -name x", "/"), ("sort --output='/etc/y' a", "/etc/y"),
         ("cat ~root/.profile", "~root/.profile"), ("ls abc/../..", "abc/../.."),
         ("find . -exec cp {} /tmp \\;", "/tmp")],
    )
    def test_path_escapes_are_refused(self, tmp_path, command, word):
        # the run directory is the only confinement, and commands run as
        # whoever runs validate
        note = f"path {word!r} escapes the workspace"
        assert V._blocked_reason(command) == note
        [result] = V.run_batch([command], self._config(tmp_path))
        assert (result.exit_status, result.note) == (V.SPAWN_FAIL, note)

    @pytest.mark.parametrize(
        "command", ["ls > /dev/null", "cat ~/a.txt", "ls ~", "ls ./abc", "grep -e a.. a.txt",
                    "dd if=a.txt of=/dev/null", "ls >/dev/null"])
    def test_paths_inside_the_workspace_pass_the_policy(self, command):
        assert V._blocked_reason(command) is None

    def test_kb_xargs_templates_pass_the_policy(self, kb, fixtures):
        xargs = kb.get("xargs")
        templates = generate_unpiped(xargs) + [
            entry for head in kb.specs() if "xargs" in head.pipe_successors
            for entry in generate_piped(head, xargs)]
        assert any(len(t.utilities) > 1 for t in templates)
        for template in templates:
            command = V.instantiate(template.cmd, fixtures)
            assert V._blocked_reason(command) is None, command

    @pytest.mark.parametrize(
        "command, error",
        [("ls && curl x", "command lists"), ("ls; wget y", "command lists"),
         ("cat a &", "background jobs"), ("sort < in", "input redirection"),
         ("echo $(ls; wget x)", "command lists")],
    )
    def test_lists_jobs_and_input_redirects_are_refused(self, tmp_path, command, error):
        # Each once parsed as one stage, the operator read as a parameter,
        # so a network utility after it escaped the block.
        with pytest.raises(ParseError, match=error):
            parse(command)
        [result] = V.run_batch([command], self._config(tmp_path))
        assert result.exit_status == V.SPAWN_FAIL
        assert result.note.startswith("does not parse: ")
        assert error in result.note

    def test_user_files_in_the_workspace_are_untouched(self, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        (workspace / "notes.txt").write_bytes(b"mine\n")
        results = V.run_batch(["ls", "cat no_such_file", "echo hi > made.txt"],
                              self._config(tmp_path))
        assert [r.verdict for r in results] == [True, False, True]
        assert (workspace / "notes.txt").read_bytes() == b"mine\n"
        assert [p.name for p in workspace.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("escape", ["dirs", "files"])
    def test_manifest_paths_stay_in_the_run_directory(self, tmp_path, monkeypatch, escape):
        outside = tmp_path / "outside.txt"
        manifest = ({"dirs": ["abc", "../x"]} if escape == "dirs"
                    else {"dirs": ["abc"], "files": {"a.txt": "a\n", str(outside): "x\n"}})
        ran = []
        monkeypatch.setattr(V, "_run_one", lambda *args: ran.append(args))
        config = self._config(tmp_path, manifest=manifest, jobs=2)
        with pytest.raises(V.SandboxSetupError, match="manifest path escapes workspace"):
            V.run_batch(["ls", "pwd", "true"], config)
        # a refused manifest runs no command and provisions nothing, not
        # even the workspace root
        assert ran == []
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("escape", ["dirs ..", "dirs absolute", "files ..", "files absolute"])
    def test_refused_manifest_leaves_the_workspace_as_it_was(self, tmp_path, escape):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        (workspace / "notes.txt").write_bytes(b"mine\n")
        rel = "../escape" if escape.endswith("..") else str(tmp_path / "escape")
        manifest = {"dirs": [rel]} if escape.startswith("dirs") else {"files": {rel: "x\n"}}
        with pytest.raises(V.SandboxSetupError, match="manifest path escapes workspace"):
            V.run_batch(["ls"], self._config(tmp_path, manifest=manifest))
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "ws", "ws/notes.txt"]
        assert (workspace / "notes.txt").read_bytes() == b"mine\n"

    def test_own_workspace_is_cleared(self, tmp_path):
        # what a batch makes in the root is removed with its verdicts, so a
        # later batch in the same root starts from the manifest alone
        workspace = tmp_path / "ws"
        [made] = V.run_batch(["echo hi > made.txt"], self._config(tmp_path))
        assert made.verdict is True
        assert list(workspace.iterdir()) == []
        [result] = V.run_batch(["ls made.txt"], self._config(tmp_path))
        assert result.verdict is False
        assert list(workspace.iterdir()) == []

    def test_verdict_invariant(self, tmp_path):
        results = V.run_batch(
            ["ls", "sleep 5", "cat no_such_file", "true"], self._config(tmp_path)
        )
        for r in results:
            if r.verdict:
                assert r.exit_status == 0
                assert r.wall_time <= 0.5


def test_bad_config_rejected(tmp_path):
    for timeout in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="timeout must be a finite number above 0"):
            V.SandboxConfig(workspace=tmp_path, timeout=timeout)
    with pytest.raises(ValueError):
        V.SandboxConfig(workspace=tmp_path, backend="vm")
    with pytest.raises(ValueError):
        V.SandboxConfig(workspace=tmp_path, jobs=0)
