from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bashsynth import validator as V
from bashsynth.bash_ast import ParseError, parse
from bashsynth.generator import generate_unpiped
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
    ])
    def test_manifest_refuses_malformed_shapes(self, tmp_path, data, key):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as exc:
            V.load_manifest(path)
        assert str(exc.value).startswith(f"{path}: {key}")


class TestInstantiate:
    def test_directory_slot(self, fixtures):
        assert V.instantiate("cd [Directory]", fixtures) == "cd abc"

    def test_file_slot(self, fixtures):
        assert V.instantiate("[File]", fixtures) == "temp.txt"

    def test_missing_fixture_names_kind(self):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("grep [Pattern] [File]", {"File": ["temp.txt"]})
        assert exc.value.kind == "Pattern"

    def test_round_robin_per_kind(self, fixtures):
        out = V.instantiate("diff [File] [File]", fixtures)
        assert out == "diff temp.txt a.txt"

    def test_parser_placeholders_also_fill(self, fixtures):
        with pytest.raises(V.MissingFixture) as exc:
            V.instantiate("find _PATH -name _REGEX", fixtures)
        assert exc.value.kind == "_PATH"

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
    """Token by token: each known placeholder takes its pool's next value."""
    used: dict[str, int] = {}
    out = []
    for tag, v in tokens:
        if tag == "bracket":
            pool = v
        elif tag == "parser":
            pool = v  # a parser token names its own pool
        else:
            pool = None
        if pool is None:
            out.append(v)
            continue
        if not fixtures.get(pool):
            raise V.MissingFixture(pool)
        out.append(fixtures[pool][used.get(pool, 0) % len(fixtures[pool])])
        used[pool] = used.get(pool, 0) + 1
    return " ".join(out)


def _oracle_to_parser(tokens) -> str:
    out = []
    for tag, v in tokens:
        if tag == "bracket":
            out.append(ORACLE_TOKEN.get(v, "_REGEX" if v in KNOWN_BRACKETS else f"[{v}]"))
        else:
            out.append(v)
    return " ".join(out)


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


class TestDryRun:
    def test_parse_verdicts(self, tmp_path):
        config = V.SandboxConfig(workspace=tmp_path / "ws")
        results = V.run_batch(["ls -la", 'grep "unbalanced'], config)
        assert [r.verdict for r in results] == [True, False]
        assert results[0].exit_status == 0

    def test_all_parseable_rate_is_one(self, tmp_path):
        config = V.SandboxConfig(workspace=tmp_path / "ws")
        results = V.run_batch(["ls", "pwd", "du -s ."], config)
        assert V.validity_rate(results).overall == 1.0


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

    def test_missing_file_invalid(self, tmp_path):
        results = V.run_batch(["cat no_such_file"], self._config(tmp_path))
        assert results[0].verdict is False
        assert results[0].exit_status not in (0, V.TIMEOUT)

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


class TestValidityRate:
    def test_per_utility_rates(self):
        results = [
            V.ValidationResult("find .", 0, 0.1, True),
            V.ValidationResult("find /none", 1, 0.1, False),
            V.ValidationResult("ls", 0, 0.1, True),
        ]
        table = V.validity_rate(results)
        assert table.per_utility["find"] == pytest.approx(0.5)
        assert table.per_utility["ls"] == 1.0
        assert table.overall == pytest.approx(2 / 3)

    def test_head_comes_from_the_parse(self):
        results = [
            V.ValidationResult("ls\t-l", 0, 0.1, True),
            V.ValidationResult("ls -a", 1, 0.1, False),
        ]
        assert V.validity_rate(results).per_utility == {"ls": 0.5}

    def test_unparseable_head_is_first_word(self):
        results = [V.ValidationResult('grep\t"open', 1, 0.0, False)]
        assert V.validity_rate(results).per_utility == {"grep": 0.0}

    def test_empty_input(self):
        table = V.validity_rate([])
        assert table.overall == 0.0
        assert table.per_utility == {}


def test_bad_config_rejected(tmp_path):
    with pytest.raises(ValueError):
        V.SandboxConfig(workspace=tmp_path, timeout=0)
    with pytest.raises(ValueError):
        V.SandboxConfig(workspace=tmp_path, backend="vm")
    with pytest.raises(ValueError):
        V.SandboxConfig(workspace=tmp_path, jobs=0)
