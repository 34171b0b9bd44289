from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bashsynth import bash_ast as B
from bashsynth.bash_ast import ParamContext, ParseError, PlaceholderKind, UtilityHints


def _oracle_scan_tokens(source: str) -> tuple[list[str], int]:
    """The per-character tokenizer that the regex one replaced, kept as the
    reference. Also returns the deepest $(...)/paren nesting it reached."""
    tokens: list[str] = []
    buf: list[str] = []
    quote = ""
    depth = deepest = 0
    i, n = 0, len(source)

    def flush() -> None:
        if buf:
            tokens.append("".join(buf))
            buf.clear()

    while i < n:
        ch = source[i]
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = ""
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            buf.append(ch)
            i += 1
            continue
        if ch == "\\" and i + 1 < n:
            buf.append(ch)
            buf.append(source[i + 1])
            i += 2
            continue
        if ch == "$" and i + 1 < n and source[i + 1] == "(":
            depth += 1
            deepest = max(deepest, depth)
            buf.append("$(")
            i += 2
            continue
        if depth:
            if ch == "(":
                depth += 1
                deepest = max(deepest, depth)
            elif ch == ")":
                depth -= 1
            buf.append(ch)
            i += 1
            continue
        if ch in "()":
            raise ParseError("subshell groups are not supported")
        if ch in ";&<":
            raise ParseError("command lists, jobs and input redirects are not supported")
        if ch == "|":
            flush()
            tokens.append("|")
            i += 1
            continue
        if ch.isspace():
            flush()
            i += 1
            continue
        buf.append(ch)
        i += 1

    if quote:
        raise ParseError("unbalanced quote")
    if depth:
        raise ParseError("unbalanced command substitution")
    flush()
    return tokens, deepest


class TestParse:
    def test_single_stage(self):
        ast = B.parse("grep -w foo bar")
        assert len(ast.stages) == 1
        stage = ast.stages[0]
        assert stage.name == "grep"
        assert [f.token for f in stage.flags] == ["-w"]
        assert [p.literal for p in stage.params] == ["foo", "bar"]

    def test_piped(self):
        ast = B.parse("cat bar | grep -w foo")
        assert [s.name for s in ast.stages] == ["cat", "grep"]
        assert [p.literal for p in ast.stages[0].params] == ["bar"]
        assert ast.stages[0].flags == ()

    def test_empty_input(self):
        with pytest.raises(ParseError):
            B.parse("")
        with pytest.raises(ParseError):
            B.parse("   ")

    def test_unbalanced_quote(self):
        with pytest.raises(ParseError):
            B.parse('grep "foo bar')

    def test_stage_without_utility(self):
        with pytest.raises(ParseError):
            B.parse("ls |")
        with pytest.raises(ParseError):
            B.parse("| grep foo")
        with pytest.raises(ParseError):
            B.parse("ls | | wc")

    def test_quoted_or_escaped_operators_parse(self):
        ast = B.parse("find . -exec grep ';' {} \\; | grep \"a&b\" 'c<d'")
        assert [s.name for s in ast.stages] == ["find", "grep"]
        assert [p.literal for p in ast.stages[1].params] == ['"a&b"', "'c<d'"]

    def test_flag_first_token_rejected(self):
        with pytest.raises(ParseError):
            B.parse("-la /tmp")

    def test_multiline_rejected(self):
        with pytest.raises(ParseError):
            B.parse("ls\npwd")

    def test_exec_clause(self):
        ast = B.parse("find . -exec rm {} \\;")
        stage = ast.stages[0]
        assert stage.nested[0].name == "rm"
        assert "-exec" in {f.token for f in stage.flags}

    def test_exec_nesting_rejected(self):
        with pytest.raises(ParseError):
            B.parse("find . -exec find . -exec rm {} \\; \\;")

    def test_substitution(self):
        ast = B.parse("echo $(date -u)")
        assert ast.stages[0].nested[0].name == "date"

    def test_substitution_nesting_rejected(self):
        with pytest.raises(ParseError):
            B.parse("echo $(echo $(date))")

    def test_glued_nested_substitution_rejected(self):
        # Glued inside a word, these once parsed as one plain parameter.
        for source in ("echo x$(a $(b))", "echo x$((1 + 2))", "x$(a (b))"):
            with pytest.raises(ParseError):
                B.parse(source)

    def test_subshell_rejected(self):
        with pytest.raises(ParseError):
            B.parse("(cd abc)")

    def test_quoted_param_kept_whole(self):
        ast = B.parse("grep 'foo bar' baz.txt")
        assert ast.stages[0].params[0].literal == "'foo bar'"

    def test_glued_long_flag(self):
        ast = B.parse("grep --color=auto foo a.txt")
        flag = ast.stages[0].items[0]
        assert flag.token == "--color"
        assert flag.arg.literal == "auto"
        assert B.render(ast) == "grep --color=auto foo a.txt"

    def test_flag_arg_attachment_with_hints(self, hints):
        ast = B.parse("head -n 10 access.log", hints)
        flag = ast.stages[0].items[0]
        assert flag.token == "-n"
        assert flag.arg.literal == "10"
        assert flag.arg.category is PlaceholderKind.NUMBER

    def test_cluster_binds_trailing_arg(self, hints):
        ast = B.parse("tar -cjf backup.bz2 mydir", hints)
        stage = ast.stages[0]
        assert [f.token for f in stage.flags] == ["-cjf"]
        assert stage.items[0].arg.literal == "backup.bz2"
        assert stage.params[0].literal == "mydir"


class TestCategorize:
    def test_path(self):
        assert B.categorize("/usr/bin") is PlaceholderKind.PATH

    def test_number(self):
        assert B.categorize("12345") is PlaceholderKind.NUMBER

    def test_regex_fallback(self):
        # no earlier rule fires: not digits, no date shape, no slash,
        # "*b" is not a valid extension
        assert B.categorize("a.*b") is PlaceholderKind.REGEX

    def test_dot_is_path(self):
        assert B.categorize(".") is PlaceholderKind.PATH
        assert B.categorize("..") is PlaceholderKind.PATH

    def test_file_extension(self):
        assert B.categorize("backup.bz2") is PlaceholderKind.FILE
        assert B.categorize("/var/log/syslog.1") is PlaceholderKind.FILE

    def test_declared_kind_wins(self):
        ctx = ParamContext(declared=PlaceholderKind.DIRECTORY)
        assert B.categorize("abc", ctx) is PlaceholderKind.DIRECTORY

    def test_permission_in_chmod_context(self):
        assert (
            B.categorize("755", ParamContext(utility="chmod"))
            is PlaceholderKind.PERMISSION
        )
        # outside a permission context digits stay numbers
        assert B.categorize("755") is PlaceholderKind.NUMBER

    def test_size_and_timespan_need_flag_context(self):
        assert B.categorize("10k", ParamContext(flag="-size")) is PlaceholderKind.SIZE
        assert B.categorize("10k") is PlaceholderKind.REGEX
        assert (
            B.categorize("5d", ParamContext(flag="-mtime")) is PlaceholderKind.TIMESPAN
        )

    def test_datetime(self):
        assert B.categorize("2020-01-01") is PlaceholderKind.DATETIME
        assert B.categorize("12:30:01") is PlaceholderKind.DATETIME

    def test_trailing_slash_is_directory(self):
        assert B.categorize("abc/") is PlaceholderKind.DIRECTORY

    def test_placeholder_token_keeps_kind(self):
        assert B.categorize("_PATH") is PlaceholderKind.PATH

    def test_deterministic(self):
        ctx = ParamContext(utility="find", flag="-size")
        assert B.categorize("1k", ctx) is B.categorize("1k", ctx)


class TestTemplatize:
    def test_tar_example(self, hints):
        ast = B.parse("tar -cjf backup.bz2 mydir", hints)
        assert B.render(B.templatize(ast)) == "tar -cjf _FILE _PATH"

    def test_bracket_literal_is_a_parameter(self, hints):
        once = B.templatize(B.parse("grep [aeiou] a.txt", hints))
        assert B.render(once) == "grep _REGEX _FILE"
        assert B.templatize(once) == once

    def test_no_params(self):
        ast = B.parse("ls")
        assert B.render(B.templatize(ast)) == "ls"

    def test_idempotent(self, corpus_lines, hints):
        for line in corpus_lines:
            once = B.templatize(B.parse(line, hints))
            assert B.templatize(once) == once

    def test_preserves_utilities_and_flags(self, corpus_lines, hints):
        for line in corpus_lines:
            ast = B.parse(line, hints)
            templ = B.templatize(ast)
            for before, after in zip(ast.walk_utilities(), templ.walk_utilities()):
                assert before.name == after.name
                assert [f.token for f in before.flags] == [f.token for f in after.flags]

    def test_braces_preserved(self):
        ast = B.parse("find . -exec rm {} \\;")
        assert "{}" in B.render(B.templatize(ast))


class TestFill:
    def test_partial_fill(self):
        ast = B.parse("find _PATH -inum _NUMBER -exec rm {} \\;")
        filled, unfilled = B.fill(ast, [(PlaceholderKind.PATH, ".")])
        assert filled == "find . -inum _NUMBER -exec rm {} \\;"
        assert unfilled == 1

    def test_full_fill(self):
        filled, unfilled = B.fill(
            B.parse("cd _DIRECTORY"), [(PlaceholderKind.DIRECTORY, "abc")]
        )
        assert (filled, unfilled) == ("cd abc", 0)

    def test_nothing_to_fill(self):
        assert B.fill(B.parse("ls"), []) == ("ls", 0)

    def test_kind_mismatch_left_in_place(self):
        filled, unfilled = B.fill(
            B.parse("cd _DIRECTORY"), [(PlaceholderKind.NUMBER, "7")]
        )
        assert (filled, unfilled) == ("cd _DIRECTORY", 1)

    def test_left_to_right_consumption(self):
        ast = B.parse("cp _FILE _FILE")
        filled, unfilled = B.fill(
            ast, [(PlaceholderKind.FILE, "a.txt"), (PlaceholderKind.FILE, "b.txt")]
        )
        assert (filled, unfilled) == ("cp a.txt b.txt", 0)

    def test_value_with_space_is_quoted(self):
        filled, _ = B.fill(
            B.parse("grep _REGEX temp.txt"), [(PlaceholderKind.REGEX, "foo bar")]
        )
        assert filled == "grep 'foo bar' temp.txt"

    def test_fill_then_templatize_recovers_template(self, hints):
        template = B.parse("cd _DIRECTORY", hints)
        filled, unfilled = B.fill(template, [(PlaceholderKind.DIRECTORY, "abc")])
        assert unfilled == 0
        assert B.templatize(B.parse(filled, hints)) == B.templatize(template)


class TestRoundTrip:
    def test_corpus_round_trip_with_hints(self, corpus_lines, hints):
        for line in corpus_lines:
            ast = B.parse(line, hints)
            again = B.parse(B.render(ast), hints)
            assert again == ast, line

    def test_corpus_round_trip_bare(self, corpus_lines):
        for line in corpus_lines:
            ast = B.parse(line)
            assert B.parse(B.render(ast)) == ast, line


class TestVocabulary:
    def test_raw(self):
        corpus = [B.parse("ls /a"), B.parse("ls /b")]
        assert B.vocabulary(corpus) == {"ls", "/a", "/b"}

    def test_templatized(self):
        corpus = [B.parse("ls /a"), B.parse("ls /b")]
        assert B.vocabulary(corpus, templatized=True) == {"ls", "_PATH"}

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            B.vocabulary([])

    def test_templatized_never_larger(self, corpus_lines, hints):
        corpus = [B.parse(line, hints) for line in corpus_lines]
        raw = B.vocabulary(corpus)
        templ = B.vocabulary(corpus, templatized=True)
        assert len(templ) <= len(raw)


_WORD = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789./_-", min_size=1, max_size=8
).filter(lambda w: not w.startswith("-") and w not in ("|",))


@given(
    utility=st.sampled_from(["ls", "grep", "find", "sort", "cat"]),
    flags=st.lists(st.sampled_from(["-a", "-l", "-r", "-n", "-v"]), max_size=3),
    params=st.lists(_WORD, max_size=3),
)
def test_property_render_parse_stable(utility, flags, params):
    source = " ".join([utility, *flags, *params])
    ast = B.parse(source)
    rendered = B.render(ast)
    assert B.parse(rendered) == ast
    assert B.render(B.parse(rendered)) == rendered


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/*", min_size=1, max_size=12))
def test_property_categorize_total(literal):
    assert B.categorize(literal) in PlaceholderKind


# Single characters of the alphabet a - | ( ) ' " \ $ { } ; & < space tab,
# plus "$(" as one draw so that substitutions, nested or not, come up often.
_TOKENIZER_CHUNKS = [*"a-|()'\"\\${};&< \t", "$("]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_TOKENIZER_CHUNKS), max_size=20).map("".join))
@example("x$(a $(b))")
@example("$(a(b)")
@example("a\\")
@example("a\\; 'b;c' \"&<\" $(d; e)")
def test_property_tokenizer_matches_oracle(text):
    try:
        expected, deepest = _oracle_scan_tokens(text)
    except ParseError:
        expected, deepest = None, 0
    try:
        got = B._scan_tokens(text)
    except ParseError:
        got = None
    if deepest > 1:
        # A $(...) whose body holds a further "(" or "$(": parse rejected
        # it before, unless it was glued inside a word; now it always does.
        assert got is None
    else:
        assert got == expected


@pytest.mark.parametrize(
    "text",
    [
        "$(" * 10_000,
        "echo " + "$(a " * 5_000,
        "$" * 20_000,
        "'" * 20_001,
        '"' * 20_001,
        "echo " + "'a" * 10_000,
        "$('" * 7_000,
        "\\" * 20_001,
        "|" * 20_000,
        "a|" * 10_000,
    ],
)
def test_hostile_input_is_linear(text):
    start = time.perf_counter()
    try:
        B.parse(text)
    except ParseError:
        pass
    assert time.perf_counter() - start < 1.0


class TestStageCache:
    # Three hints objects that parse this text three different ways.
    TEXT = "head -n 10 access.log | sort"

    @pytest.fixture
    def variants(self, hints):
        fresh = {"head": UtilityHints(positionals=(PlaceholderKind.DIRECTORY,))}
        return [None, hints, fresh]

    def _uncached(self, text, hints):
        B._stage_cache.clear()
        return B.parse(text, hints)

    def test_hints_alternation_matches_uncached_parse(self, variants, corpus_lines):
        texts = [self.TEXT, *corpus_lines[:50]]
        expected = {
            (text, i): self._uncached(text, h)
            for text in texts
            for i, h in enumerate(variants)
        }
        heads = [expected[(self.TEXT, i)].stages[0] for i in range(3)]
        assert len(set(heads)) == 3
        B._stage_cache.clear()
        for _ in range(2):
            for text in texts:
                for i, h in enumerate(variants):
                    assert B.parse(text, h) == expected[(text, i)], (text, i)

    def test_repeated_stage_is_shared(self, hints):
        first = B.parse("cat a.txt | sort -r", hints)
        second = B.parse("ls -l | sort -r", hints)
        assert first.stages[1] is second.stages[1]

    def test_failed_stage_not_cached(self):
        B._stage_cache.clear()
        with pytest.raises(ParseError):
            B.parse("ls | -la /tmp")
        assert [key[1] for key in B._stage_cache] == [("ls",)]

    def test_bound(self):
        B._stage_cache.clear()
        for i in range(B._STAGE_CACHE_SIZE + 100):
            B.parse(f"ls d{i} | wc -l")
            assert len(B._stage_cache) <= B._STAGE_CACHE_SIZE

    def test_threads_with_different_hints(self, variants, corpus_lines, monkeypatch):
        texts = [self.TEXT, *corpus_lines[:40]]
        expected = [
            [self._uncached(text, h) for text in texts] for h in variants
        ]
        errors: list[str] = []
        # A small bound makes the threads clear the cache under each other.
        monkeypatch.setattr(B, "_STAGE_CACHE_SIZE", 16)

        def work(which: int) -> None:
            h = variants[which]
            for _ in range(20):
                for text, want in zip(texts, expected[which]):
                    if B.parse(text, h) != want:
                        errors.append(f"{which}: {text}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            B._stage_cache.clear()
            threads = [
                threading.Thread(target=work, args=(i % len(variants),))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(B._stage_cache) <= 16 + len(threads)
