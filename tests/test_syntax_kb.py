from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bashsynth.bash_ast import PlaceholderKind
from bashsynth.dataset_io import FormatError
from bashsynth import syntax_kb as K

TAR_FIXTURE = {
    "name": "tar",
    "template": ["UTILITY", "FLAGS", "Path"],
    "flags": [{"token": "-c"}, {"token": "-j"}, {"token": "-f", "arg": "File"}],
    "pipe_successors": [],
}


def write_specs(path, *entries) -> None:
    path.write_text(json.dumps({"specs": list(entries)}))


def test_load_specs_fixture(tmp_path):
    path = tmp_path / "tar.json"
    write_specs(path, TAR_FIXTURE)
    specs = K.load_specs(path)
    assert len(specs) == 1
    spec = specs[0]
    assert spec.name == "tar"
    assert len(spec.flags) == 3
    assert spec.flags[2].arg is K.GenArgKind.FILE


def refusal(path) -> str:
    """The FormatError message ``load_specs(path)`` raises."""
    with pytest.raises(FormatError) as exc:
        K.load_specs(path)
    return str(exc.value)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    write_specs(path)
    assert K.load_specs(path) == []
    path.write_text("")
    assert refusal(path).startswith(f"{path}: not JSON: ")


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dupe.json"
    write_specs(path, {"name": "find"}, {"name": "find"})
    assert "duplicate" in refusal(path)


def test_duplicate_names_across_files_rejected(tmp_path):
    write_specs(tmp_path / "a.json", {"name": "ls"})
    write_specs(tmp_path / "b.json", {"name": "cd"}, {"name": "ls"})
    assert refusal(tmp_path) == f"{tmp_path / 'b.json'}: duplicate utility spec: ls"


def test_schema_error_names_field(tmp_path):
    path = tmp_path / "bad.json"
    write_specs(path, {"name": "ls", "flags": [{"arg": "File"}]})
    assert "token" in refusal(path)


def test_unknown_arg_kind_rejected(tmp_path):
    path = tmp_path / "bad.json"
    write_specs(path, {"name": "ls", "flags": [{"token": "-x", "arg": "Gizmo"}]})
    assert "Gizmo" in refusal(path)


MISTYPED = {
    "pipe_successors": {"pipe_successors": "sort"},  # not the successors s, o, r, t
    "needs_review": {"needs_review": "no"},  # not True
    "name": {"name": 123},  # not "123"
    "template": {"template": "UTILITY"},
    "flags": {"flags": ["-a"]},
    "token": {"flags": [{"token": 1}]},
    "arg": {"flags": [{"token": "-x", "arg": ["File"]}]},
}


@pytest.mark.parametrize("field, entry", MISTYPED.items(), ids=list(MISTYPED))
def test_mistyped_field_rejected(tmp_path, field, entry):
    path = tmp_path / "bad.json"
    write_specs(path, {"name": "ls"}, entry if field == "name" else {"name": "find", **entry})
    message = refusal(path)
    assert message.startswith(f"{path}: specs[1]: ")
    assert f"'{field}' must be" in message


# A misspelled key, read as absent, would leave its field at the default:
# {"token": "-f", "ar": "File"} loaded as a flag without an argument.
MISSPELLED = {
    "file": ({"specs": [], "spec": [TAR_FIXTURE]}, "unknown field 'spec'"),
    "spec": ({"specs": [{**TAR_FIXTURE, "pipe_sucessors": ["xargs"]}]},
             "specs[0]: unknown field 'pipe_sucessors'"),
    "flag": ({"specs": [{"name": "tar", "flags": [{"token": "-f", "ar": "File"}]}]},
             "specs[0]: flags[0]: unknown field 'ar'"),
}


@pytest.mark.parametrize("doc, want", MISSPELLED.values(), ids=list(MISSPELLED))
def test_unknown_key_rejected(tmp_path, doc, want):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert refusal(path) == f"{path}: {want}"


def test_duplicate_key_rejected(tmp_path):
    # read as its last value, the repeated key would drop -f's argument
    path = tmp_path / "bad.json"
    path.write_text('{"specs": [{"name": "tar", "flags": '
                    '[{"token": "-f", "arg": "File", "arg": null}]}]}')
    assert refusal(path) == f"{path}: duplicate key 'arg'"


def test_duplicate_flags_rejected(tmp_path):
    path = tmp_path / "bad.json"
    write_specs(path, {"name": "ls", "flags": [{"token": "-a"}, {"token": "-a"}]})
    assert "duplicate flag" in refusal(path)


@pytest.mark.parametrize("token", ["-", "--key=1", "-a -l", "-x|wc", "-exec", "-[File]"])
def test_flag_token_must_be_a_flag_to_the_parser(tmp_path, token):
    # the parser reads `cat -` with no flag, `sort --key=1` as flag --key,
    # `ls -a -l` as two flags, `ls -x|wc` as a pipe and `find -exec` as a
    # clause, and validate fills `-[File]`, so template metadata naming
    # these tokens would disagree with the parse
    path = tmp_path / "bad.json"
    write_specs(path, {"name": "sort", "flags": [{"token": token}]})
    assert refusal(path) == (
        f"{path}: specs[0]: not a flag token as the parser reads it: {token!r}")


# Each of these would give a template whose metadata disagrees with its
# parse (a name the parser splits, pipes or reads as a flag, a word
# instantiate fills), or two equal templates (flags without a FLAGS slot
# to hold them, a successor listed twice), or names a successor with no spec
# (its pipelines would be dropped), or is malformed.
REFUSED_SPECS = {
    "piped name": ({"name": "cat|wc"}, "bad utility name: 'cat|wc'"),
    "quoted name": ({"name": "'ls'"}, "bad utility name: \"'ls'\""),
    "placeholder in a name": ({"name": "ls[File]"}, "bad utility name: 'ls[File]'"),
    "parser token name": ({"name": "_FILE"}, "bad utility name: '_FILE'"),
    "flag name": ({"name": "-x"}, "bad utility name: '-x'"),
    "empty name": ({"name": ""}, "bad utility name: ''"),
    "flags without FLAGS": ({"name": "cat", "template": ["UTILITY", "File"],
                             "flags": [{"token": "-n"}, {"token": "-b"}]},
                            "cat: template has flags but no FLAGS slot"),
    "two FLAGS": ({"name": "ls", "template": ["UTILITY", "FLAGS", "Path", "FLAGS"]},
                  "ls: template holds more than one FLAGS slot"),
    "repeated successor": ({"name": "find", "pipe_successors": ["sort", "sort"]},
                           "find: duplicate pipe successors"),
    "misspelt successor": ({"name": "find", "pipe_successors": ["find", "sotr"]},
                           "find: pipe successor 'sotr' has no spec"),
    "template without UTILITY first": ({"name": "ls", "template": ["FLAGS", "UTILITY"]},
                                       "ls: template must start with UTILITY"),
    "unknown slot": ({"name": "ls", "template": ["UTILITY", "Gizmo"]},
                     "ls: unknown template slot 'Gizmo'"),
    "entry not an object": (["ls"], "expected an object, got list"),
}


@pytest.mark.parametrize("entry, want", REFUSED_SPECS.values(), ids=list(REFUSED_SPECS))
def test_spec_refused(tmp_path, entry, want):
    path = tmp_path / "bad.json"
    write_specs(path, entry)
    assert refusal(path) == f"{path}: specs[0]: {want}"


def test_template_without_flags_needs_no_flags_slot(tmp_path):
    path = tmp_path / "cd.json"
    write_specs(path, {"name": "cd", "template": ["UTILITY", "Directory"]})
    assert K.load_specs(path) == [K.UtilitySpec("cd", ("UTILITY", "Directory"))]


def test_nesting_limit(tmp_path):
    # nesting the JSON decoder reads reaches the field checks; past the
    # interpreter's recursion limit the file is not JSON
    at_limit, past_limit = tmp_path / "at.json", tmp_path / "past.json"
    for path, levels in ((at_limit, 900), (past_limit, 100_000)):
        path.write_text('{"specs": [{"name": "ls", "template": '
                        + "[" * levels + "]" * levels + "}]}")
    assert refusal(at_limit).startswith(f"{at_limit}: specs[0]: 'template' must be")
    assert refusal(past_limit).startswith(
        f"{past_limit}: not JSON: maximum recursion depth")


def test_yaml_spec_file_refused_as_not_json(tmp_path):
    path = tmp_path / "tar.yaml"
    path.write_text("name: tar\ntemplate: [UTILITY, FLAGS, Path]\n")
    assert refusal(path).startswith(f"{path}: not JSON: ")


def test_save_load_round_trip(tmp_path, kb):
    path = tmp_path / "specs.json"
    K.save_specs(kb.specs(), path)
    assert K.load_specs(path) == list(kb.specs())


def test_shipped_kb_is_as_save_specs_writes_it(tmp_path, kb):
    # one utility per line, so a KB edit is a one-line diff
    path = tmp_path / "specs.json"
    K.save_specs(kb.specs(), path)
    assert path.read_bytes() == K.default_specs_path().read_bytes()
    assert len(path.read_text().splitlines()) == len(kb.utilities) + 2


# Any text UTF-8 can encode: no surrogates.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


def _accepted(build, *args) -> bool:
    try:
        build(*args)
    except K.SchemaError:
        return False
    return True


_NAME = _TEXT.filter(lambda s: _accepted(K.UtilitySpec, s))
_SLOTS = st.lists(st.sampled_from([k.value for k in K.GenArgKind]), max_size=4)


def _spec_strategy(template, flags):
    return st.builds(
        K.UtilitySpec,
        name=_NAME,
        template=template,
        flags=flags,
        needs_review=st.booleans(),
    )


def _with_successors(specs):
    # each successor names a drawn spec, as load_specs requires
    names = [spec.name for spec in specs]
    return st.tuples(*(
        st.lists(st.sampled_from(names), max_size=3, unique=True) for _ in specs
    )).map(lambda drawn: [dataclasses.replace(spec, pipe_successors=tuple(successors))
                          for spec, successors in zip(specs, drawn)])


# A template holds at most one FLAGS slot, and one whenever its spec has flags.
_SPECS = st.lists(
    _spec_strategy(
        st.tuples(_SLOTS, st.integers(0, 4)).map(
            lambda t: ("UTILITY", *t[0][:t[1]], "FLAGS", *t[0][t[1]:])),
        st.lists(st.builds(K.FlagSpec,
                           token=_TEXT.map(lambda s: "-" + s).filter(
                               lambda t: _accepted(K.FlagSpec, t)),
                           arg=st.none() | st.sampled_from(K.GenArgKind)),
                 max_size=4, unique_by=lambda f: f.token).map(tuple),
    ) | _spec_strategy(_SLOTS.map(lambda slots: ("UTILITY", *slots)), st.just(())),
    max_size=4, unique_by=lambda spec: spec.name,
).flatmap(_with_successors)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=_SPECS)
def test_property_save_load_round_trip(tmp_path, specs):
    path = tmp_path / "specs.json"
    K.save_specs(specs, path)
    assert K.load_specs(path) == specs


def test_load_specs_from_directory(tmp_path):
    # a successor may name a spec in another of the files
    write_specs(tmp_path / "b.json", {"name": "ls", "pipe_successors": ["tar"]})
    write_specs(tmp_path / "a.json", TAR_FIXTURE)
    # not spec files: a directory's *.json files are
    (tmp_path / "c.yaml").write_text("name: cd\n")
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

    def test_exec_clause_left_out_for_review(self):
        spec = K.import_manpage(
            "OPTIONS\n  -name PATTERN  base name\n  -exec CMD  run CMD\n  -empty\n",
            "find",
        )
        assert [f.token for f in spec.flags] == ["-name", "-empty"]
        assert spec.needs_review

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
