from __future__ import annotations

from hypothesis import given, strategies as st

from bashsynth import nl_prep as N
from bashsynth.bash_ast import PlaceholderKind, fill, parse


class TestExtractParams:
    def test_quoted_strings(self):
        assert N.extract_params('search in "bar" for "foo"') == [
            (PlaceholderKind.REGEX, "bar"),
            (PlaceholderKind.REGEX, "foo"),
        ]

    def test_path_token(self):
        assert N.extract_params("compress /home/user into a bz2 file") == [
            (PlaceholderKind.PATH, "/home/user"),
        ]

    def test_plain_english_yields_nothing(self):
        sentence = "remove all files in the current directory with a specific inode number"
        assert N.extract_params(sentence) == []

    def test_numbers_and_files(self):
        out = N.extract_params("show the first 10 lines of report.txt")
        assert (PlaceholderKind.NUMBER, "10") in out
        assert (PlaceholderKind.FILE, "report.txt") in out

    def test_order_of_appearance(self):
        out = N.extract_params('copy "data" into /tmp and keep 3 versions')
        assert [literal for _, literal in out] == ["data", "/tmp", "3"]

    def test_quoted_number_typed_as_number(self):
        assert N.extract_params('use "12" as the count') == [
            (PlaceholderKind.NUMBER, "12")
        ]


def test_preprocess_and_extract_one_sentence():
    sentence = 'Find "foo" in the file bar.txt'
    assert (PlaceholderKind.FILE, "bar.txt") in N.extract_params(sentence)


class TestFillIntegration:
    def test_extracted_kinds_feed_fill(self):
        values = N.extract_params('find the word "foo" in /var/log')
        filled, unfilled = fill(parse("grep _REGEX _PATH"), values)
        assert filled == "grep foo /var/log"
        assert unfilled == 0

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ./\"'", max_size=60))
    def test_property_fill_never_raises(self, sentence):
        values = N.extract_params(sentence)
        filled, unfilled = fill(parse("find _PATH -name _REGEX -inum _NUMBER"), values)
        assert unfilled >= 0
        assert filled.startswith("find")
