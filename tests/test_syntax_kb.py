from __future__ import annotations

import pytest

from bashsynth.bash_ast import PlaceholderKind
from bashsynth import syntax_kb as K

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


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert K.load_specs(path) == []


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dupe.yaml"
    path.write_text("name: find\n---\nname: find\n")
    with pytest.raises(K.SchemaError, match="duplicate"):
        K.load_specs(path)


def test_schema_error_names_field(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: ls\nflags:\n  - {arg: File}\n")
    with pytest.raises(K.SchemaError, match="token"):
        K.load_specs(path)


def test_unknown_arg_kind_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text('name: ls\nflags:\n  - {token: "-x", arg: Gizmo}\n')
    with pytest.raises(K.SchemaError, match="Gizmo"):
        K.load_specs(path)


def test_duplicate_flags_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text('name: ls\nflags:\n  - {token: "-a"}\n  - {token: "-a"}\n')
    with pytest.raises(K.SchemaError, match="duplicate flag"):
        K.load_specs(path)


def test_save_load_round_trip(tmp_path, kb):
    path = tmp_path / "specs.yaml"
    K.save_specs(kb.specs(), path)
    assert K.load_specs(path) == list(kb.specs())


def test_load_specs_from_directory(tmp_path):
    (tmp_path / "b.yaml").write_text("name: ls\n")
    (tmp_path / "a.yaml").write_text(TAR_FIXTURE)
    specs = K.load_specs(tmp_path)
    assert [s.name for s in specs] == ["tar", "ls"]


def test_shipped_kb_covers_38_utilities(kb):
    assert len(kb) == 38
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
