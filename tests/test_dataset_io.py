from __future__ import annotations

import json
import random
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from bashsynth import dataset_io as D

from conftest import MALFORMED_LINES


def _random_records(n: int, seed: int = 0) -> list[D.DatasetRecord]:
    rng = random.Random(seed)
    alphabet = string.ascii_letters + string.digits + " /._-"
    records = []
    for i in range(n):
        nl = "".join(rng.choices(alphabet, k=rng.randint(1, 40))).strip() or "x"
        cmd = "ls " + "".join(rng.choices(alphabet, k=rng.randint(1, 20))).strip()
        records.append(
            D.DatasetRecord(
                nl=nl,
                cmd=cmd,
                source=rng.choice(D.SOURCES),
                valid=rng.choice([None, True, False]),
            )
        )
    return records


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        records = _random_records(50)
        path = tmp_path / "data.jsonl"
        D.write_records(records, path)
        assert D.read_records(path) == records

    def test_missing_cmd_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nl": "list files"}\n')
        with pytest.raises(D.FormatError, match="cmd"):
            D.read_records(path)

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nl": "a", "cmd": "ls"}\nnot json\n')
        with pytest.raises(D.FormatError, match="bad.jsonl:2"):
            D.read_records(path)

    @pytest.mark.parametrize("reader, subcommand, good, bad", MALFORMED_LINES)
    def test_malformed_line_raises_format_error(self, tmp_path, reader, subcommand,
                                                good, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{good}\n\n{bad}\n")
        with pytest.raises(D.FormatError, match=f"^{re.escape(str(path))}:3: ") as info:
            getattr(D, reader)(path)
        assert (info.value.path, info.value.line) == (path, 3)

    def test_write_lines_takes_an_iterator(self, tmp_path):
        path = tmp_path / "out.jsonl"
        D.write_lines(({"cmd": c} for c in ("ls", "echo é")), path)
        assert path.read_bytes() == '{"cmd": "ls"}\n{"cmd": "echo é"}\n'.encode()
        D.write_lines(iter(()), path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("line, error", [
        ('{"cmd": "ls"} x', "Extra data"), ('{"cmd": "ls"}{}', "Extra data"),
        ('{"cmd": "ls"}\x0b', "Extra data"), ('{"cmd": "ls"}\u2028', "Extra data"),
        ('\ufeff{"cmd": "ls"}', "Unexpected UTF-8 BOM"), ('{"cmd": "ls"', "Expecting"),
    ])
    def test_line_is_one_json_value(self, tmp_path, line, error):
        # what json.loads refuses, with its words
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"cmd": "a"}}\n{line}\n', encoding="utf-8")
        with pytest.raises(D.FormatError, match=f"bad.jsonl:2: not a JSON line: {error}"):
            D.read_commands(path)

    def test_padded_lines_read(self, tmp_path):
        path = tmp_path / "padded.jsonl"
        path.write_text(' {"cmd": "a"}\n{"cmd": "b"} \t\r\n \n\t{"cmd": "c"}\r\n{"cmd": "d"}',
                        encoding="utf-8")
        assert D.read_commands(path) == ["a", "b", "c", "d"]

    def test_line_not_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"cmd": "ls"}\n{"cmd": "\xff"}\n')
        with pytest.raises(D.FormatError, match=r"bad.jsonl:2: .*can't decode byte 0xff"):
            D.read_commands(path)

    def test_read_predictions(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"nl": "x", "cmd": "ls", "source": "llm"}\n{"cmd": ""}\n'
                        '{"candidates": [{"cmd": "ls", "confidence": 0}, {"cmd": "du"}]}\n')
        assert D.read_predictions(path) == [
            [("ls", 1.0)], [("", 1.0)], [("ls", 0.0), ("du", 1.0)]
        ]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert D.read_records(path) == []

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            D.DatasetRecord(nl="", cmd="ls")
        with pytest.raises(ValueError):
            D.DatasetRecord(nl="x", cmd="")
        with pytest.raises(ValueError):
            D.DatasetRecord(nl="x", cmd="ls", source="scraped")

    @given(
        pairs=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=20).filter(str.strip),
                st.text(min_size=1, max_size=20).filter(str.strip),
            ),
            max_size=20,
        )
    )
    def test_property_round_trip(self, pairs, tmp_path_factory):
        records = [D.DatasetRecord(nl=a, cmd=b) for a, b in pairs]
        path = tmp_path_factory.mktemp("rt") / "data.jsonl"
        D.write_records(records, path)
        assert D.read_records(path) == records


# Every escape the JSON string encoder makes (quotes, backslashes, control
# characters), U+2028/U+2029 (which JSON leaves unescaped), non-ASCII and
# astral characters. Lone surrogates are left out: no UTF-8 file holds one.
_TRICKY = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029éあ\U0001f600'),
    st.characters(blacklist_categories=("Cs",))), max_size=12)
_TEMPLATE_FIELDS = ("id", "cmd", "utilities", "flags", "pipe_partner")

template_entries = st.builds(
    D.TemplateEntry,
    id=_TRICKY.filter(bool), cmd=_TRICKY.filter(bool),
    utilities=st.lists(_TRICKY, max_size=3).map(tuple),
    flags=st.lists(_TRICKY, max_size=4).map(tuple),
    pipe_partner=st.none() | _TRICKY,
)
# Values check_fields refuses for some template field and accepts for another.
_ODD_VALUES = ["", "x", True, False, None, 0, 1.5, {"a": "b"}, [], [""], [["ls"]],
               ["ls", 1], ["ls", None], ["ls", True], [{"x": "y"}]]
_JSON_VALUES = st.none() | st.booleans() | st.integers() | _TRICKY | st.lists(_TRICKY)


@st.composite
def template_lines(draw):
    """The line of a template object with some fields dropped or given odd
    values, extra keys, shuffled keys and padding whitespace."""
    obj = draw(template_entries).as_dict()
    for key in draw(st.lists(st.sampled_from(_TEMPLATE_FIELDS), unique=True, max_size=3)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(st.sampled_from(_ODD_VALUES))
    obj.update(draw(st.dictionaries(
        st.text(max_size=4).filter(lambda k: k not in _TEMPLATE_FIELDS), _JSON_VALUES,
        max_size=2)))
    obj = dict(draw(st.permutations(list(obj.items()))))
    pad = st.text(" \t", max_size=2)
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    return f"{draw(pad)}{text}{draw(pad | st.just(chr(13)))}\n"


class TestTemplateLines:
    @given(entries=st.lists(template_entries, max_size=5))
    @example(entries=[D.TemplateEntry("i", "c", ("",), ("", "-x"), "")])
    def test_write_is_encode_line(self, entries, tmp_path_factory):
        path = tmp_path_factory.mktemp("tl") / "templates.jsonl"
        D.write_templates(entries, path)
        expected = "".join(D.encode_line(e.as_dict()) for e in entries)
        assert path.read_bytes() == expected.encode("utf-8")
        assert D.read_templates(path) == entries

    def _agrees_with_check_fields(self, line, path):
        obj = json.loads(line)
        path.write_text(f"\n{line}", encoding="utf-8")
        try:
            id_, cmd, utilities, flags, partner = D.check_fields(obj, D._TEMPLATE, path, 2)
        except D.FormatError as exc:
            with pytest.raises(D.FormatError) as info:
                D.read_templates(path)
            assert (str(info.value), info.value.line) == (str(exc), 2)
        else:
            assert D.read_templates(path) == [D.TemplateEntry(
                id_, cmd, tuple(utilities), tuple(flags), partner)]

    @given(line=template_lines())
    def test_read_checks_as_check_fields(self, line, tmp_path_factory):
        self._agrees_with_check_fields(line, tmp_path_factory.mktemp("tl") / "t.jsonl")

    def test_read_checks_each_field_as_check_fields(self, tmp_path):
        # each field dropped or given each odd value, alone
        base = {"id": "x", "cmd": "ls", "utilities": ["ls"], "flags": ["-l"],
                "pipe_partner": None}
        for key in _TEMPLATE_FIELDS:
            dropped = {k: v for k, v in base.items() if k != key}
            self._agrees_with_check_fields(json.dumps(dropped), tmp_path / "t.jsonl")
            for value in _ODD_VALUES:
                line = json.dumps({**base, key: value})
                self._agrees_with_check_fields(line, tmp_path / "t.jsonl")


class TestTemplates:
    def test_round_trip(self, tmp_path, kb):
        from bashsynth.generator import generate_unpiped

        commands = generate_unpiped(kb.get("grep"), limit=12, seed=4)
        path = tmp_path / "templates.jsonl"
        D.write_templates(commands, path)
        entries = D.read_templates(path)
        assert [e.cmd for e in entries] == [c.render() for c in commands]
        assert [e.id for e in entries] == [c.id for c in commands]

    def test_read_shares_equal_metadata(self, tmp_path):
        written = [
            D.TemplateEntry(f"t{i}", f"find [Path] -name [File] | {tail}",
                            ("find", tail), ("-name",), tail)
            for i, tail in enumerate(["grep", "sort", "grep", "sort"])
        ] + [D.TemplateEntry("t4", "ls -la", ("ls",), ("-la", "-name"))]
        path = tmp_path / "templates.jsonl"
        D.write_templates(written, path)
        entries = D.read_templates(path)
        assert entries == written
        grep, sort, grep2, sort2, ls = entries
        assert grep.utilities is grep2.utilities
        assert sort.utilities is sort2.utilities
        assert grep.utilities[0] is sort.utilities[0]
        assert grep.pipe_partner is grep2.pipe_partner is grep2.utilities[1]
        assert grep.flags[0] is sort.flags[0] is ls.flags[1]
        assert ls.pipe_partner is None

    def test_read_holds_little_per_entry(self, tmp_path, kb):
        from bashsynth.generator import generate_piped

        pairs = [(kb.get(head), kb.get(tail)) for head in kb.utilities
                 for tail in kb.get(head).pipe_successors if tail in kb]
        written = [entry for head, tail in pairs
                   for entry in generate_piped(head, tail, None, 2)][:5000]
        assert len(written) == 5000
        path = tmp_path / "templates.jsonl"
        D.write_templates(written, path)
        del written
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entries = D.read_templates(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(entries) == 5000
        assert held / len(entries) < 500


class TestStats:
    def test_small_example(self):
        report = D.stats(["ls", "find . | sort"])
        assert report.total == 2
        assert report.piped == 1
        assert set(report.utility_counts) == {"ls", "find", "sort"}
        assert report.distinct_utilities == 3

    def test_totals_add_up(self, corpus_lines, hints):
        report = D.stats(corpus_lines, hints)
        assert report.total == len(corpus_lines)
        assert report.parseable + report.unparseable == report.total
        assert report.unparseable == 0

    def test_unparseable_counted_separately(self):
        report = D.stats(["ls", 'grep "broken'])
        assert report.unparseable == 1
        assert report.parseable == 1

    def test_flag_count_histogram(self):
        report = D.stats(["ls -l -a", "ls"])
        assert report.flag_count_hist == {2: 1, 0: 1}

    def test_as_dict_is_json_serializable(self, corpus_lines):
        json.dumps(D.stats(corpus_lines[:10]).as_dict())


class TestSplit:
    def test_80_20(self):
        records = _random_records(10)
        train, test = D.split_records(records, 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_seed_reproducible(self):
        records = _random_records(100)
        assert D.split_records(records, 0.8, seed=9) == D.split_records(
            records, 0.8, seed=9
        )
        assert D.split_records(records, 0.8, seed=9) != D.split_records(
            records, 0.8, seed=10
        )

    def test_disjoint_and_exhaustive(self):
        records = _random_records(57)
        train, test = D.split_records(records, 0.8, seed=3)
        joined = sorted(
            (r.nl, r.cmd) for r in train + test
        )
        assert joined == sorted((r.nl, r.cmd) for r in records)
        assert len(train) + len(test) == len(records)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            D.split_records(_random_records(4), 0.0)
        with pytest.raises(ValueError):
            D.split_records(_random_records(4), 1.0)
