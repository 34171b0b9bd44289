from __future__ import annotations

import itertools
import json
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bashsynth import validator as V
from bashsynth.bash_ast import PLACEHOLDER_BY_TOKEN, ParseError, parse
from bashsynth.generator import generate_piped, generate_unpiped
from bashsynth.syntax_kb import PLACEHOLDER_RE, GenArgKind, to_parser_template


# Refused as unparseable before the network check could see its ssh.
_UNPARSEABLE = 'echo "open | ssh host'


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

        def run_one(index, command, config, manifest):
            ran.append(index)
            if index == 3:
                raise V.SandboxSetupError("cannot create workspace")
            time.sleep(0.01)
            return V.ValidationResult(command, 0, 0.0, True)

        monkeypatch.setattr(V, "_run_one", run_one)
        with pytest.raises(V.SandboxSetupError):
            V.run_batch(["true"] * 50, self._config(tmp_path, jobs=jobs))
        assert len(ran) < 15

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
        results = V.run_batch(
            ["rm -rf /", "sudo reboot", "dd if=temp.txt of=/dev/sda"],
            self._config(tmp_path),
        )
        for r in results:
            assert r.exit_status == V.SPAWN_FAIL
            assert r.verdict is False
            assert r.note

    def test_network_utilities_blocked(self, tmp_path):
        blocked = V.run_batch(["curl http://example.com"], self._config(tmp_path))
        assert blocked[0].exit_status == V.SPAWN_FAIL
        assert blocked[0].note == "network utility 'curl' blocked"

    @pytest.mark.parametrize(
        "command, utility",
        [("find . -exec curl x \\;", "curl"), ("echo $(wget x)", "wget"),
         ("ls | curl x", "curl"), ("/usr/bin/nc -h", "nc"),
         (_UNPARSEABLE, "ssh")],
    )
    def test_network_block_sees_nested_utilities(self, tmp_path, command, utility):
        [result] = V.run_batch([command], self._config(tmp_path))
        assert result.exit_status == V.SPAWN_FAIL
        if command == _UNPARSEABLE:
            assert result.note == "does not parse: unbalanced quote"
        else:
            assert result.note == f"network utility {utility!r} blocked"
        assert V._blocked_reason(command) == result.note

    @pytest.mark.parametrize(
        "command",
        ["echo x$(curl http://example.com)", 'echo "$(wget x)"', "ls `curl x`",
         "echo a$(ssh h)b"],
    )
    def test_hidden_substitution_refused(self, tmp_path, command):
        # Each parses with no Substitution node for its $(...) or backtick,
        # so no utility inside it reached the network block. The policy is
        # checked before anything runs.
        assert V._blocked_reason(command) == "command substitution inside a word"
        [result] = V.run_batch([command], self._config(tmp_path))
        assert result.exit_status == V.SPAWN_FAIL
        assert result.note == "command substitution inside a word"

    def test_whole_word_substitutions_pass_the_policy(self):
        assert V._blocked_reason("echo $(ls) $(pwd | wc -l)") is None

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
        # launcher's -c string, not a utility node of the parse.
        assert utility not in {node.name for node in parse(command).walk_utilities()}
        note = f"network utility {utility!r} blocked under {launcher!r}"
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
        "command", ["ls > /dev/null", "cat ~/a.txt", "ls ~", "ls ./abc", "grep -e a.. a.txt"])
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

    def test_foreign_workspace_refused(self, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        (workspace / "notes.txt").write_text("mine")
        with pytest.raises(V.SandboxSetupError, match="not a bashsynth workspace"):
            V.run_batch(["ls"], self._config(tmp_path))
        assert (workspace / "notes.txt").read_text() == "mine"
        assert sorted(p.name for p in workspace.iterdir()) == ["notes.txt"]

    @pytest.mark.parametrize("escape", ["dirs", "files"])
    def test_manifest_paths_stay_in_the_run_directory(self, tmp_path, monkeypatch, escape):
        outside = tmp_path / "outside.txt"
        manifest = ({"dirs": ["abc", "../x"]} if escape == "dirs"
                    else {"dirs": ["abc"], "files": {"a.txt": "a\n", str(outside): "x\n"}})
        ran = []
        monkeypatch.setattr(V, "_run_one", lambda index, *rest: ran.append(index))
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
        V.run_batch(["echo hi > made.txt"], self._config(tmp_path))
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        rel = "../escape" if escape.endswith("..") else str(tmp_path / "escape")
        manifest = {"dirs": [rel]} if escape.startswith("dirs") else {"files": {rel: "x\n"}}
        with pytest.raises(V.SandboxSetupError, match="manifest path escapes workspace"):
            V.run_batch(["ls"], self._config(tmp_path, manifest=manifest))
        # the earlier batch's workspace is neither cleared nor remade
        assert (workspace / V.WORKSPACE_MARKER).is_file()
        assert (workspace / "run_00000" / "made.txt").is_file()
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    def test_own_workspace_is_cleared(self, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()  # an empty directory is accepted
        V.run_batch(["echo hi > made.txt"], self._config(tmp_path))
        assert (workspace / V.WORKSPACE_MARKER).is_file()
        assert (workspace / "run_00000" / "made.txt").is_file()
        [result] = V.run_batch(["ls made.txt"], self._config(tmp_path))
        assert result.verdict is False  # the earlier run's files are gone
        assert (workspace / V.WORKSPACE_MARKER).is_file()

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
