from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from bashsynth.bash_ast import PlaceholderKind
from bashsynth import syntax_kb as K

# The pure-Python loader is the fallback for a PyYAML built without libyaml.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

TAR_FIXTURE = """\
name: tar
template: [UTILITY, FLAGS, Path]
flags:
  - {token: "-c"}
  - {token: "-j"}
  - {token: "-f", arg: File}
pipe_successors: []
"""


def test_load_specs_fixture(tmp_path):
    path = tmp_path / "tar.yaml"
    path.write_text(TAR_FIXTURE)
    specs = K.load_specs(path)
    assert len(specs) == 1
    spec = specs[0]
    assert spec.name == "tar"
    assert len(spec.flags) == 3
    assert spec.flags[2].arg is K.GenArgKind.FILE


def refusal(path, monkeypatch) -> str:
    """The SchemaError message ``load_specs(path)`` raises, the same under
    every loader."""
    messages = set()
    for loader in LOADERS:
        monkeypatch.setattr(K, "_LOADER", loader)
        with pytest.raises(K.SchemaError) as exc:
            K.load_specs(path)
        messages.add(str(exc.value))
    assert len(messages) == 1, messages
    return messages.pop()


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert K.load_specs(path) == []


def test_duplicate_names_rejected(tmp_path, monkeypatch):
    path = tmp_path / "dupe.yaml"
    path.write_text("name: find\n---\nname: find\n")
    assert "duplicate" in refusal(path, monkeypatch)


def test_duplicate_names_across_files_rejected(tmp_path, monkeypatch):
    (tmp_path / "a.yaml").write_text("name: ls\n")
    (tmp_path / "b.yaml").write_text("name: cd\n---\nname: ls\n")
    assert refusal(tmp_path, monkeypatch) == (
        f"{tmp_path / 'b.yaml'}: duplicate utility spec: ls")


def test_schema_error_names_field(tmp_path, monkeypatch):
    path = tmp_path / "bad.yaml"
    path.write_text("name: ls\nflags:\n  - {arg: File}\n")
    assert "token" in refusal(path, monkeypatch)


def test_unknown_arg_kind_rejected(tmp_path, monkeypatch):
    path = tmp_path / "bad.yaml"
    path.write_text('name: ls\nflags:\n  - {token: "-x", arg: Gizmo}\n')
    assert "Gizmo" in refusal(path, monkeypatch)


MISTYPED = {
    "pipe_successors": "pipe_successors: sort",  # not the successors s, o, r, t
    "needs_review": "needs_review: 'no'",  # not True
    "name": "name: 123",  # not "123"
    "template": "template: UTILITY",
    "flags": "flags: [-a]",
    "token": "flags:\n  - {token: 1}",
    "arg": "flags:\n  - {token: -x, arg: [File]}",
}


@pytest.mark.parametrize("field, text", MISTYPED.items(), ids=list(MISTYPED))
def test_mistyped_field_rejected(tmp_path, monkeypatch, field, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text if field == "name" else f"name: find\n{text}\n")
    message = refusal(path, monkeypatch)
    assert message.startswith(f"{path}: document 0: ")
    assert f"'{field}' must be" in message


def test_duplicate_flags_rejected(tmp_path, monkeypatch):
    path = tmp_path / "bad.yaml"
    path.write_text('name: ls\nflags:\n  - {token: "-a"}\n  - {token: "-a"}\n')
    assert "duplicate flag" in refusal(path, monkeypatch)


def test_nesting_limit(tmp_path, monkeypatch):
    # the document's mapping is the first level, each "[" one more; the
    # blank line puts the refused list on line 3
    at_limit, past_limit = tmp_path / "at.yaml", tmp_path / "past.yaml"
    levels = K._MAX_DEPTH - 1
    at_limit.write_text("name: ls\ntemplate: " + "[" * levels + "]" * levels + "\n")
    levels += 1
    past_limit.write_text("name: ls\n\ntemplate: " + "[" * levels + "]" * levels + "\n")
    assert f"{at_limit}: document 0: 'template' must be" in refusal(at_limit, monkeypatch)
    assert refusal(past_limit, monkeypatch) == (
        f"{past_limit}:3: collections nested more than {K._MAX_DEPTH} deep")


@pytest.mark.parametrize("loader", [loader.__name__ for loader in LOADERS])
def test_deep_file_refused_without_crash(tmp_path, loader):
    # In a child process: libyaml's recursive composer crashes the
    # interpreter at this depth, which would end the whole test run.
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = f"""
import yaml
from bashsynth import syntax_kb as K
K._LOADER = yaml.{loader}
try:
    K.load_specs({str(path)!r})
except K.SchemaError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(K.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"{path}:1: collections nested more than {K._MAX_DEPTH} deep\n"


def test_merge_chain_refused(tmp_path, monkeypatch):
    # Every mapping sits at depth 3 at most, so the nesting limit passes the
    # file, but the constructor recurses once per merge key it follows.
    path = tmp_path / "merge.yaml"
    chain = ["&a0 {x: 1}"] + [f"&a{i} {{<<: *a{i - 1}}}" for i in range(1, 1501)]
    path.write_text("{k: [" + ", ".join(chain) + "], <<: *a1500}\n")
    assert refusal(path, monkeypatch).startswith(
        f"{path}: not valid YAML: maximum recursion depth")


def test_shipped_kb_same_under_every_loader(monkeypatch, kb):
    for loader in LOADERS:
        monkeypatch.setattr(K, "_LOADER", loader)
        assert K.load_specs(K.default_specs_path()) == list(kb.specs())


def test_save_load_round_trip(tmp_path, kb):
    path = tmp_path / "specs.yaml"
    K.save_specs(kb.specs(), path)
    assert K.load_specs(path) == list(kb.specs())


# Any text YAML can hold: no surrogates, which UTF-8 cannot encode.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_NAME = _TEXT.filter(lambda s: s and not any(c.isspace() for c in s))
_SPECS = st.lists(
    st.builds(
        K.UtilitySpec,
        name=_NAME,
        template=st.lists(st.sampled_from(["FLAGS", *(k.value for k in K.GenArgKind)]),
                          max_size=4).map(lambda slots: ("UTILITY", *slots)),
        flags=st.lists(st.builds(K.FlagSpec, token=_TEXT.map(lambda s: "-" + s),
                                 arg=st.none() | st.sampled_from(K.GenArgKind)),
                       max_size=4, unique_by=lambda f: f.token).map(tuple),
        pipe_successors=st.lists(_NAME, max_size=3).map(tuple),
        needs_review=st.booleans(),
    ),
    max_size=4, unique_by=lambda spec: spec.name,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=_SPECS)
def test_property_save_load_round_trip(tmp_path, monkeypatch, specs):
    path = tmp_path / "specs.yaml"
    K.save_specs(specs, path)
    for loader in LOADERS:
        monkeypatch.setattr(K, "_LOADER", loader)
        assert K.load_specs(path) == specs


def test_load_specs_from_directory(tmp_path):
    (tmp_path / "b.yaml").write_text("name: ls\n")
    (tmp_path / "a.yaml").write_text(TAR_FIXTURE)
    specs = K.load_specs(tmp_path)
    assert [s.name for s in specs] == ["tar", "ls"]


def test_shipped_kb_covers_38_utilities(kb):
    assert len(kb.utilities) == 38
    for name in ("find", "tar", "grep", "diff", "ls", "file", "du", "cp",
                 "xargs", "sort", "cd"):
        assert name in kb
    assert set(kb.get("find").pipe_successors) == {"xargs", "grep", "sort"}


class TestGenArgKind:
    def test_exactly_15_members(self):
        assert len(K.GenArgKind) == 15

    def test_mapping_total(self):
        for kind in K.GenArgKind:
            assert kind.parser in PlaceholderKind

    def test_pattern_maps_to_regex(self):
        assert K.GenArgKind.PATTERN.parser is PlaceholderKind.REGEX
        assert K.GenArgKind.FORMATTED_STRING.parser is PlaceholderKind.REGEX
        assert K.GenArgKind.SEPARATOR.parser is PlaceholderKind.REGEX

    def test_quantity_maps_to_number(self):
        assert K.GenArgKind.QUANTITY.parser is PlaceholderKind.NUMBER

    def test_name_identical_mappings(self):
        assert K.GenArgKind.FILE.parser is PlaceholderKind.FILE
        assert K.GenArgKind.DIRECTORY.parser is PlaceholderKind.DIRECTORY
        assert K.GenArgKind.PATH.parser is PlaceholderKind.PATH


class TestImportManpage:
    def test_flag_without_arg(self):
        spec = K.import_manpage(
            "OPTIONS\n  -r, --recursive\n      copy directories recursively\n", "cp"
        )
        tokens = {f.token for f in spec.flags}
        assert "-r" in tokens and "--recursive" in tokens
        assert all(f.arg is None for f in spec.flags)

    def test_metavar_keyword_infers_kind(self):
        spec = K.import_manpage(
            "OPTIONS\n  -f FILE  use archive FILE\n  -v  verbose\n", "tar"
        )
        by_token = {f.token: f.arg for f in spec.flags}
        assert by_token["-f"] is K.GenArgKind.FILE
        assert by_token["-v"] is None

    def test_no_flags_raises(self):
        with pytest.raises(K.ManpageImportError):
            K.import_manpage("DESCRIPTION\nnothing useful here\n", "true")

    def test_low_confidence_flagged_for_review(self):
        spec = K.import_manpage("OPTIONS\n  -x WIDGET  mystery argument\n", "odd")
        assert spec.needs_review


class TestToParserTemplate:
    def test_bracket_conversion(self):
        assert (
            K.to_parser_template("tar -c -j -f [File] [Path]")
            == "tar -c -j -f _FILE _PATH"
        )
        assert K.to_parser_template("cd [Directory]") == "cd _DIRECTORY"
        assert K.to_parser_template("find [Path] -inum [Quantity]") == (
            "find _PATH -inum _NUMBER"
        )

    def test_unknown_bracket_left_alone(self):
        assert K.to_parser_template("echo [Gizmo]") == "echo [Gizmo]"


def test_parser_hints_expose_flag_args(kb):
    hints = kb.parser_hints()
    assert hints["tar"].flag_args["-f"] is PlaceholderKind.FILE
    assert hints["cd"].positionals == (PlaceholderKind.DIRECTORY,)
    assert "-empty" in hints["find"].known_flags


def test_parser_hints_are_read_only(kb):
    hints = kb.parser_hints()
    with pytest.raises(TypeError):
        hints["tar"] = hints["ls"]
    with pytest.raises(TypeError):
        hints["tar"].flag_args["-f"] = PlaceholderKind.PATH
