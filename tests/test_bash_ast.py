from __future__ import annotations

import dataclasses
import re
import shlex
import shutil
import subprocess
import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from bashsynth import bash_ast as B
from bashsynth import generator, metrics, validator
from bashsynth.bash_ast import ParamNode, ParseError, PlaceholderKind, UtilityHints


def _params(stage: B.UtilityNode) -> list[ParamNode]:
    return [it for it in stage.items if isinstance(it, ParamNode)]


def _oracle_scan_tokens(source: str) -> tuple[list[str], int]:
    """The per-character tokenizer that the regex one replaced, kept as the
    reference. Also returns the deepest $(...)/paren nesting it reached.
    An unquoted "#" that starts a word after a space, a tab or a "|" starts
    a comment, which is dropped; after other whitespace it is refused."""
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
            if quote == '"' and ch == "\\" and i + 1 < n:
                # a backslash escapes the next character inside "..."
                buf.append(ch)
                buf.append(source[i + 1])
                i += 2
                continue
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
        if ch == "#" and not buf:
            # a comment, to the end; bash starts one only after these
            if i and source[i - 1] not in " \t|":
                raise ParseError("a comment must follow a space, a tab or a pipe")
            break
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


# Inside "...", a backslash escapes the next character: each command and
# the parameters it parses to, then a text whose last quote is escaped.
_ESCAPED_QUOTES = [
    (r'echo "a\"b"', [r'"a\"b"']),
    (r'grep "say \"hi\"" a.txt', [r'"say \"hi\""', "a.txt"]),
    (r'echo "a\\" "b"', [r'"a\\"', '"b"']),
]
_OPEN_ESCAPED_QUOTE = r'x "\} + *\"'

# An unquoted "#" that starts a word starts a comment, which runs to the end
# of the text: each command and the text the parser reads, then "#"s that
# start no comment (inside a word, quoted, escaped).
_COMMENTS = [
    ("ls a.txt #comment", "ls a.txt"),
    ("ls x #'", "ls x"),
    ("ls #;curl x", "ls"),
    ("ls | sort #x | wc", "ls | sort"),
    ("echo a#b", "echo a#b"),
    ("echo 'a #b'", "echo 'a #b'"),
    (r"ls \#x", r"ls \#x"),
    ("grep -v '^#' config.ini", "grep -v '^#' config.ini"),
]


class TestParse:
    def test_single_stage(self):
        ast = B.parse("grep -w foo bar")
        assert len(ast.stages) == 1
        stage = ast.stages[0]
        assert stage.name == "grep"
        assert [f.token for f in stage.flags] == ["-w"]
        assert [p.literal for p in _params(stage)] == ["foo", "bar"]

    def test_piped(self):
        ast = B.parse("cat bar | grep -w foo")
        assert [s.name for s in ast.stages] == ["cat", "grep"]
        assert [p.literal for p in _params(ast.stages[0])] == ["bar"]
        assert ast.stages[0].flags == ()

    def test_empty_input(self):
        with pytest.raises(ParseError):
            B.parse("")
        with pytest.raises(ParseError):
            B.parse("   ")
        with pytest.raises(ParseError, match="empty command substitution"):
            B.parse("echo $( )")

    def test_unbalanced_quote(self):
        with pytest.raises(ParseError):
            B.parse('grep "foo bar')

    @pytest.mark.parametrize("command, params", _ESCAPED_QUOTES)
    def test_backslash_escapes_inside_double_quotes(self, command, params):
        ast = B.parse(command)
        (stage,) = ast.stages
        assert [p.literal for p in _params(stage)] == params
        assert B.render(ast) == command

    def test_escaped_closing_quote_leaves_the_quote_open(self):
        # bash -n refuses this text as an unterminated quote too
        with pytest.raises(ParseError, match="unbalanced quote"):
            B.parse(_OPEN_ESCAPED_QUOTE)

    @pytest.mark.parametrize("command, read", _COMMENTS)
    def test_comment_runs_to_the_end(self, command, read):
        ast = B.parse(command)
        assert ast == B.parse(read)
        assert B.render(ast) == read

    def test_comment_is_no_parameter_or_stage(self):
        (stage,) = B.parse("ls a.txt #comment").stages
        assert [p.literal for p in _params(stage)] == ["a.txt"]
        assert [s.name for s in B.parse("ls | sort #x | wc").stages] == ["ls", "sort"]

    @pytest.mark.parametrize("command", ["ls\u3000#x; curl x", "ls\r#x | curl x"])
    def test_comment_after_whitespace_bash_keeps_in_a_word_is_refused(self, command):
        # bash splits words only at spaces and tabs: to it "ls\u3000#x" is one
        # word and "curl x" runs, so no comment may hide it from the policy
        with pytest.raises(ParseError, match="a comment must follow a space, a tab or a pipe"):
            B.parse(command)
        assert validator._blocked_reason(command).startswith("does not parse: ")

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
        assert [p.literal for p in _params(ast.stages[1])] == ['"a&b"', "'c<d'"]

    def test_flag_first_token_rejected(self):
        with pytest.raises(ParseError):
            B.parse("-la /tmp")

    def test_multiline_rejected(self):
        with pytest.raises(ParseError):
            B.parse("ls\npwd")

    def test_exec_clause(self):
        ast = B.parse("find . -exec rm {} \\;")
        stage = ast.stages[0]
        assert [n.name for n in ast.walk_utilities()] == ["find", "rm"]
        assert "-exec" in {f.token for f in stage.flags}
        # an unterminated body runs to the end and has no closer
        (clause,) = B.parse("find . -exec ls").stages[0].items[1:]
        assert (clause.body.name, clause.closer) == ("ls", "")

    def test_exec_nesting_rejected(self):
        for source in ("find . -exec find . -exec rm {} \\; \\;",
                       "find . -exec echo $(ls) \\;"):
            with pytest.raises(ParseError, match="nesting deeper than one level"):
                B.parse(source)

    def test_substitution(self):
        ast = B.parse("echo $(date -u)")
        assert [n.name for n in ast.walk_utilities()] == ["echo", "date"]
        # joined to other text on either side, $(...) is part of one parameter
        for word in ("x$(ls)", "$(ls)foo", "$(ls)$(pwd)"):
            ast = B.parse(f"echo {word}")
            (stage,) = ast.stages
            assert [p.literal for p in _params(stage)] == [word]
            assert [n.name for n in ast.walk_utilities()] == ["echo"]

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
        assert _params(ast.stages[0])[0].literal == "'foo bar'"

    def test_glued_long_flag(self):
        ast = B.parse("grep --color=auto foo a.txt")
        flag = ast.stages[0].items[0]
        assert flag.token == "--color"
        assert flag.arg.literal == "auto"
        assert B.render(ast) == "grep --color=auto foo a.txt"

    def test_stage_words_are_the_rendered_words(self):
        # the one walk render, fill and the sandbox policy read: a clause's
        # flag, body and closer in place, --flag=value and $(...) whole
        ast = B.parse("find . -exec grep --color=auto x {} \\; -name $(ls)")
        (stage,) = ast.stages
        words = list(B.stage_words(stage))
        assert words == ["find", ".", "-exec", "grep", "--color=auto", "x", "{}", "\\;",
                         "-name", "$(ls)"]
        assert " ".join(words) == B.render(ast)
        assert stage.flag_tokens() == {"-exec", "-name"} == {f.token for f in stage.flags}

    @pytest.mark.parametrize("source, parses", [
        ("echo $(ls #x)", False),
        ("echo a$(ls #x)", False),
        ('echo "$(ls #x)"', False),
        ("echo \"'$(ls #x)'\"", False),
        ("echo '$(ls #x)'", True),
        ('echo a$(ls "#x")', True),
        ('echo "$(ls a#b)"', True),
        ('echo "\\$(ls #x)"', True),
        ("ls # $(ls #x)", True),
    ])
    def test_comment_in_substitution_hides_its_closer(self, source, parses):
        # bash reads a comment in $(...) to the end of the line, whether the
        # $(...) is a word of its own, joined to other text or double-quoted
        if parses:
            B.parse(source)
        else:
            with pytest.raises(ParseError, match="hides its closing parenthesis"):
                B.parse(source)

    @pytest.mark.parametrize("token", ["-", "--key=1", "-a", "--key", "--", "-cjf", "-o=x"])
    def test_flag_token_is_what_the_parser_reads_as_that_flag(self, token):
        [stage] = B.parse(f"sort {token} a.txt").stages
        assert B.is_flag_token(token) == ([f.token for f in stage.flags] == [token])
        if not B.is_flag_token(token):
            with pytest.raises(ValueError, match="not a flag token"):
                B.FlagNode(token)

    @pytest.mark.parametrize("word", ["ls", "-x", "--color=auto", "a>b", "-{}", "+", "é"])
    def test_plain_word_is_read_as_written(self, word):
        assert B.is_plain_word(word)
        assert B.render(B.parse(f"x {word}")) == f"x {word}"

    def test_empty_exec_body_rejected(self):
        with pytest.raises(ParseError, match="empty -exec body"):
            B.parse("find . -exec \\;")

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
        assert _params(stage)[0].literal == "mydir"

    def test_cluster_binds_nothing_when_an_inner_member_takes_an_argument(self):
        # -f takes a File, so -fj cannot hand it one: the cluster is read as
        # one flag of its own and the next word is a positional
        hints = {"tar": UtilityHints(frozenset({"-f", "-j"}), {"-f": PlaceholderKind.FILE})}
        assert B._expand_cluster("-fj", hints["tar"]) is None
        (stage,) = B.parse("tar -fj a.tar", hints).stages
        assert stage.items == (B.FlagNode("-fj"), ParamNode("a.tar", PlaceholderKind.FILE))


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
        assert (
            B.categorize("abc", declared=PlaceholderKind.DIRECTORY)
            is PlaceholderKind.DIRECTORY
        )

    def test_permission_in_chmod_context(self):
        assert (
            B.categorize("755", utility="chmod")
            is PlaceholderKind.PERMISSION
        )
        # outside a permission context digits stay numbers
        assert B.categorize("755") is PlaceholderKind.NUMBER

    def test_size_and_timespan_need_flag_context(self):
        assert B.categorize("10k", flag="-size") is PlaceholderKind.SIZE
        assert B.categorize("10k") is PlaceholderKind.REGEX
        assert (
            B.categorize("5d", flag="-mtime") is PlaceholderKind.TIMESPAN
        )

    def test_datetime(self):
        assert B.categorize("2020-01-01") is PlaceholderKind.DATETIME
        assert B.categorize("12:30:01") is PlaceholderKind.DATETIME

    def test_trailing_slash_is_directory(self):
        assert B.categorize("abc/") is PlaceholderKind.DIRECTORY

    def test_placeholder_token_keeps_kind(self):
        assert B.categorize("_PATH") is PlaceholderKind.PATH

    def test_deterministic(self):
        ctx = {"utility": "find", "flag": "-size"}
        assert B.categorize("1k", **ctx) is B.categorize("1k", **ctx)


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

    def test_values_queue_per_kind(self):
        ast = B.parse("cp _FILE _PATH _FILE")
        values = [(PlaceholderKind.FILE, "a.txt"), (PlaceholderKind.PATH, "dir"),
                  (PlaceholderKind.FILE, "b.txt"), (PlaceholderKind.PATH, "spare")]
        assert B.fill(ast, values) == ("cp a.txt dir b.txt", 0)

    @pytest.mark.parametrize("value, word", [
        ("*.txt", "*.txt"), ("/tmp/x", "/tmp/x"), ("10k", "10k"),
        ("", "''"), ("-v", "'-v'"), ("#x", "'#x'"),
        ("a|b", "'a|b'"), ("x;rm", "'x;rm'"), ("a>b", "'a>b'"),
        ("a'b c\"d", "'a'\\''b c\"d'"),
        ("it's $(reboot) now", "'it'\\''s $(reboot) now'"),
    ])
    def test_value_fills_as_one_shell_word(self, value, word):
        template = B.templatize(B.parse("grep foo a.txt"))
        filled = B.fill(template, [(PlaceholderKind.REGEX, value)])
        assert filled == (f"grep {word} _FILE", 1)

    # Printable single-line text, weighted towards shell metacharacters.
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(
        st.sampled_from(list(" \t'\"\\$`|&;<>()-#*?~{}[]!=")),
        st.characters(blacklist_categories=("Cs", "Cc")),
    )))
    @example("a|b")
    @example("x;rm")
    @example("a'b c\"d")
    @example("it's $(reboot) now")
    def test_filled_value_parses_back_to_itself(self, value):
        template = B.templatize(B.parse("grep foo a.txt"))
        filled, unfilled = B.fill(template, [(PlaceholderKind.REGEX, value)])
        assert unfilled == 1
        (stage,) = B.parse(filled).stages
        assert shlex.split(_params(stage)[0].literal) == [value]
        assert _params(stage)[1].literal == "_FILE"

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
    def test_templatized_never_larger(self, corpus_lines, hints):
        corpus = [B.parse(line, hints) for line in corpus_lines]
        raw = {word for ast in corpus for word in B.render(ast).split()}
        templ = {
            word for ast in corpus for word in B.render(B.templatize(ast)).split()
        }
        assert len(templ) <= len(raw)


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not installed")
def test_parse_accepts_what_bash_accepts(corpus_lines):
    # bash -n reads the text and runs none of it
    escaped = [command for command, _ in _ESCAPED_QUOTES] + [_OPEN_ESCAPED_QUOTE]
    comments = [command for command, _ in _COMMENTS]
    # in $(...) a comment runs past the closing parenthesis
    substituted = ["echo $(ls #x)", 'echo $(ls "#x")', "echo $(ls a#b)",
                   "echo a$(ls #x)", 'echo "$(ls #x)"', "echo '$(ls #x)'",
                   'echo a$(ls "#x")', 'echo "$(ls a#b)"', "echo \"'$(ls #x)'\"",
                   'echo "\\$(ls #x)"', "ls # $(ls #x)"]
    disagree = []
    for command in [*corpus_lines, *escaped, *comments, *substituted]:
        try:
            B.parse(command)
            parses = True
        except ParseError:
            parses = False
        checked = subprocess.run(["bash", "--norc", "--noprofile", "-n", "-c", command],
                                 stdin=subprocess.DEVNULL, capture_output=True)
        if parses != (checked.returncode == 0):
            disagree.append(command)
    assert disagree == []


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


@pytest.fixture(scope="module")
def fixtures():
    return validator.load_fixture_values()


def _params_in_order(stages) -> list[tuple[PlaceholderKind, str]]:
    """(kind, literal) of each parameter in the order templatize and fill
    visit them: items, flag arguments, -exec bodies, $(...) stages."""
    out: list[tuple[PlaceholderKind, str]] = []
    for node in stages:
        for it in node.items:
            if isinstance(it, B.ExecClause):
                out.extend(_params_in_order([it.body]))
            elif isinstance(it, B.Substitution):
                out.extend(_params_in_order(it.stages))
            else:
                param = it.arg if isinstance(it, B.FlagNode) else it
                if param is not None and param.literal not in B.PRESERVED_LITERALS:
                    out.append((param.category, param.literal))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_kb_commands_round_trip(kb, hints, fixtures, data):
    # A shipped-KB template, unpiped or one sampled from an allowed pipe
    # pair, filled from the shipped fixtures as validate fills it.
    head = kb.get(data.draw(st.sampled_from(kb.utilities), label="head"))
    tail = data.draw(st.sampled_from(
        [None, *head.pipe_successors]), label="tail")
    if tail is None:
        templates = generator.generate_unpiped(head)
    else:
        seed = data.draw(st.integers(0, 2**16), label="seed")
        templates = generator.generate_piped(head, kb.get(tail), 1, 1, seed)
    template = data.draw(st.sampled_from(templates), label="template")
    ast = B.parse(validator.instantiate(template.cmd, fixtures), hints)
    assert B.parse(B.render(ast), hints) == ast
    template_ast = B.templatize(ast)
    assert B.templatize(template_ast) == template_ast
    assert B.fill(template_ast, _params_in_order(ast.stages)) == (B.render(ast), 0)


# ---------------------------------------------------------------------------
# Random commands with nesting, which the shipped KB never generates:
# -exec bodies closed by \; or +, whole-word $(...) stages, glued
# --flag=value and flag arguments bound through hints.

NESTING_HINTS = {
    "find": UtilityHints(
        known_flags=frozenset({"-name", "-size", "-mtime", "-perm", "-type"}),
        flag_args={"-name": PlaceholderKind.REGEX, "-size": PlaceholderKind.SIZE,
                   "-mtime": PlaceholderKind.TIMESPAN,
                   "-perm": PlaceholderKind.PERMISSION},
        positionals=(PlaceholderKind.PATH,),
    ),
    "grep": UtilityHints(
        known_flags=frozenset({"-e", "-f", "-i", "-r"}),
        flag_args={"-e": PlaceholderKind.REGEX, "-f": PlaceholderKind.FILE},
        positionals=(PlaceholderKind.REGEX, PlaceholderKind.FILE),
    ),
    "tar": UtilityHints(
        known_flags=frozenset({"-c", "-j", "-f", "-x"}),
        flag_args={"-f": PlaceholderKind.FILE},
    ),
}

_LITERAL = st.one_of(
    st.text(alphabet="ab09./~_:", min_size=1, max_size=6),
    st.sampled_from([*B.PLACEHOLDER_BY_TOKEN, *B.PRESERVED_LITERALS, "'a b'",
                     '"x|y"', "10k", "5d", "0755", "2020-01-01", "abc/", "a.txt"]),
)


def _stage_words(top: bool) -> st.SearchStrategy[list[str]]:
    """The words of one stage; a top-level stage may also hold -exec
    clauses and substitutions, whose stages may not."""
    items = [
        _LITERAL.map(lambda w: [w]),
        st.sampled_from(["-i", "-r", "-l", "-cjf", "--verbose"]).map(lambda f: [f]),
        st.tuples(st.sampled_from(["-name", "-size", "-mtime", "-perm", "-e", "-f"]),
                  _LITERAL).map(list),
        st.tuples(st.sampled_from(["--block-size", "--mode", "--directory", "--size"]),
                  _LITERAL).map(lambda t: [f"{t[0]}={t[1]}"]),
    ]
    if top:
        inner = _stage_words(top=False)
        items += [
            st.tuples(st.sampled_from(["-exec", "-execdir", "-ok"]), inner,
                      st.sampled_from(["\\;", "+"])).map(lambda t: [t[0], *t[1], t[2]]),
            st.lists(inner, min_size=1, max_size=2).map(
                lambda stages: ["$(" + " | ".join(map(" ".join, stages)) + ")"]),
        ]
    return st.tuples(
        st.sampled_from(["find", "grep", "tar", "ls", "xargs"]),
        st.lists(st.one_of(items), max_size=5),
    ).map(lambda t: [t[0], *(w for item in t[1] for w in item)])


nested_commands = st.lists(_stage_words(top=True), min_size=1, max_size=3).map(
    lambda stages: " | ".join(map(" ".join, stages)))


def _oracle_map_params(node, fn):
    """A copy of the node with ``fn`` applied to every parameter, flag
    arguments, -exec bodies and $(...) stages included."""
    items = []
    for it in node.items:
        if isinstance(it, ParamNode):
            items.append(fn(it))
        elif isinstance(it, B.FlagNode):
            items.append(it if it.arg is None else B.FlagNode(it.token, fn(it.arg), it.glued))
        elif isinstance(it, B.ExecClause):
            items.append(B.ExecClause(it.flag, _oracle_map_params(it.body, fn), it.closer))
        else:
            items.append(B.Substitution(tuple(_oracle_map_params(s, fn) for s in it.stages)))
    return B.UtilityNode(node.name, tuple(items))


def _oracle_fill(ast, values):
    """fill as a rebuild of every node followed by render."""
    queues = {}
    for kind, literal in values:
        queues.setdefault(kind, deque()).append(literal)
    unfilled = 0

    def consume(p):
        nonlocal unfilled
        kind = B.PLACEHOLDER_BY_TOKEN.get(p.literal)
        if kind is not None and queues.get(kind):
            return ParamNode(B.quote(queues[kind].popleft()), kind)
        unfilled += kind is not None
        return p

    stages = tuple(_oracle_map_params(s, consume) for s in ast.stages)
    return B.render(B.BashAst(stages)), unfilled


def _oracle_templatize(ast):
    def swap(p):
        if p.literal in B.PRESERVED_LITERALS:
            return p
        return ParamNode(p.category.token, p.category)

    return B.BashAst(tuple(_oracle_map_params(s, swap) for s in ast.stages))


_FILL_VALUES = st.lists(
    st.tuples(st.sampled_from(PlaceholderKind), st.text("ab '$|#-", max_size=4)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(text=nested_commands, values=_FILL_VALUES)
@example(
    text="find _PATH -exec grep -e _REGEX {} \\; --mode=_PERMISSION "
         "$(ls _PATH | tar -f _FILE) -exec rm _PATH +",
    values=[(PlaceholderKind.PATH, "a"), (PlaceholderKind.REGEX, "x y"),
            (PlaceholderKind.PATH, "b"), (PlaceholderKind.FILE, "c.txt"),
            (PlaceholderKind.PERMISSION, "0755"), (PlaceholderKind.PATH, "-d")],
)
def test_property_fill_and_templatize_on_nested_commands(text, values):
    ast = B.parse(text, NESTING_HINTS)
    template = B.templatize(ast)
    assert template == _oracle_templatize(ast)
    assert B.templatize(template) == template
    for tree in (ast, template):
        assert B.fill(tree, values) == _oracle_fill(tree, values)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/*", min_size=1, max_size=12))
def test_property_categorize_total(literal):
    assert B.categorize(literal) in PlaceholderKind


# categorize's rule list with its three date patterns and its two searches
# of the last path segment, kept as the reference.
_ORACLE_DATE_PATTERNS = (
    re.compile(r"\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2})?)?"),
    re.compile(r"\d{1,2}/\d{1,2}/\d{2,4}"),
    re.compile(r"\d{1,2}:\d{2}(:\d{2})?"),
)
_ORACLE_SIZE_LITERAL = re.compile(r"[+-]?\d+[kKmMgGtT][bB]?")
_ORACLE_TIMESPAN_LITERAL = re.compile(r"[+-]?\d+[smhdw]")
_ORACLE_EXTENSION = re.compile(r"\.[A-Za-z0-9]{1,7}$")
_ORACLE_PERMISSION_UTILITIES = frozenset({"chmod", "umask"})
_ORACLE_PERMISSION_FLAGS = frozenset({"-m", "--mode", "-perm"})
_ORACLE_SIZE_FLAGS = frozenset({"-size", "--size", "--block-size"})
_ORACLE_TIME_FLAGS = frozenset({"-mtime", "-atime", "-ctime", "-mmin", "-amin", "-cmin"})
_ORACLE_DIRECTORY_FLAGS = frozenset({"-C", "--directory", "--target-directory"})


def _oracle_last_segment(literal: str) -> str:
    return literal.rsplit("/", 1)[-1]


def _oracle_categorize(literal: str, *, utility: str = "", flag: str = "") -> PlaceholderKind:
    if not literal:
        return PlaceholderKind.REGEX
    if literal in B.PLACEHOLDER_BY_TOKEN:
        return B.PLACEHOLDER_BY_TOKEN[literal]

    if literal.isascii() and literal.isdigit():
        if (
            (utility in _ORACLE_PERMISSION_UTILITIES or flag in _ORACLE_PERMISSION_FLAGS)
            and 3 <= len(literal) <= 4
            and all(c in "01234567" for c in literal)
        ):
            return PlaceholderKind.PERMISSION
        return PlaceholderKind.NUMBER

    size_context = flag in _ORACLE_SIZE_FLAGS or "size" in flag
    if size_context and _ORACLE_SIZE_LITERAL.fullmatch(literal):
        return PlaceholderKind.SIZE

    time_context = flag in _ORACLE_TIME_FLAGS or "time" in flag
    if time_context and _ORACLE_TIMESPAN_LITERAL.fullmatch(literal):
        return PlaceholderKind.TIMESPAN

    if any(p.fullmatch(literal) for p in _ORACLE_DATE_PATTERNS):
        return PlaceholderKind.DATETIME

    if literal in (".", "..", "~") or (
        "/" in literal and not _ORACLE_EXTENSION.search(_oracle_last_segment(literal))
    ):
        if flag in _ORACLE_DIRECTORY_FLAGS or literal.endswith("/"):
            return PlaceholderKind.DIRECTORY
        return PlaceholderKind.PATH

    if _ORACLE_EXTENSION.search(_oracle_last_segment(literal)):
        return PlaceholderKind.FILE

    return PlaceholderKind.REGEX


# Digits (whole years too, so dates come up), Arabic-Indic digits (which
# the rules' \d matches, so "\u0661\u0662:\u0663\u0664" is a DATETIME), letters,
# date and path punctuation, and the size and time suffixes.
_CATEGORIZE_CHUNKS = [*"0123456789", "12", "2020", "\u0663", "\u0661\u0662", *"abxyzAZ",
                      *"-/:._~ T", *"kKmMbBsmhdw"]


@settings(max_examples=1000)
@given(
    literal=st.lists(st.sampled_from(_CATEGORIZE_CHUNKS), max_size=12).map("".join),
    flag=st.sampled_from(["", "-size", "--block-size", "-mtime", "-perm", "--mode", "-C"]),
    utility=st.sampled_from(["", "chmod", "umask"]),
)
@example(literal="2020-01-01 12:30", flag="", utility="")
@example(literal="1/2/2020", flag="", utility="")
@example(literal="12:30", flag="", utility="")
@example(literal="a.b/c", flag="", utility="")
@example(literal="d/f.txt", flag="", utility="")
@example(literal="~", flag="", utility="")
@example(literal="abc/", flag="", utility="")
@example(literal="0755", flag="", utility="chmod")
@example(literal="10k", flag="-size", utility="")
@example(literal="\u0661\u0662:\u0663\u0664", flag="", utility="")
def test_property_categorize_matches_rule_list(literal, flag, utility):
    assert (B.categorize(literal, utility=utility, flag=flag)
            is _oracle_categorize(literal, utility=utility, flag=flag))


# Single characters of the alphabet a - | ( ) ' " \ $ { } ; & < # space tab,
# plus "$(" as one draw so that substitutions, nested or not, come up often,
# and whitespace beyond ASCII's that str.split() and the regex's \s both
# break at. _scan_tokens runs the regex on every drawn text;
# test_property_plain_text_tokens_match_regex ties the plain-text stage
# split to the regex.
_WHITESPACE = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_TOKENIZER_CHUNKS = [*"a-|()'\"\\${};&<# \t", "$(", *_WHITESPACE]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_TOKENIZER_CHUNKS), max_size=20).map("".join))
@example("x$(a $(b))")
@example("$(a(b)")
@example("a\\")
@example("a\\; 'b;c' \"&<\" $(d; e)")
@example("a #b' | c")
@example("a|#b")
@example("a\u3000#b")
@example("a#b $(c #d)")
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


@settings(max_examples=500)
@given(st.lists(st.sampled_from([*_TOKENIZER_CHUNKS, "-", "exec", "ok", "dir", ">", "{}"]),
                max_size=4).map("".join))
@example("-execdir")
@example("-okdir")
@example("-x|wc")
@example("-a\u3000-l")
def test_property_plain_word_matches_oracle(word):
    oracle = (word != "" and not word.startswith("#")
              and not any(c.isspace() or c in "|()'\"\\$;&<" for c in word)
              and word not in {"-exec", "-ok", "-execdir", "-okdir", "{}", ">", "-"})
    assert B.is_plain_word(word) == oracle
    if oracle:
        # the tokenizer's grammar reads it as one word too
        assert B._split_stages(B._scan_tokens(word)) == [(word,)]


# Text without ( ) ' " \ $ ; & <, with pipes glued to words and any whitespace.
_PLAIN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["a", "|", "a|b", "||", " ", "\t", "#", *_WHITESPACE]),
        st.characters(exclude_characters="()'\"\\$;&<", exclude_categories=("Cs",)),
    ),
    max_size=20,
).map("".join)


def _stages_or_error(split, text):
    try:
        return split(text)
    except ParseError as exc:
        return str(exc)


def _regex_stages(text):
    # the regex's own gaps and tokens, read by the comment rule: a "#" in a
    # gap follows whitespace bash does not split at, and a token that starts
    # with "#" is a comment
    parts = B._TOKEN_RE.split(text)
    if "#" in "".join(parts[::2]):
        raise ParseError("a comment must follow a space, a tab or a pipe")
    tokens = parts[1::2]
    if tokens and tokens[-1].startswith("#"):
        tokens.pop()
    stages = B._split_stages(tokens)
    if not all(stages):
        raise ParseError("pipeline stage with no utility token")
    return stages


@settings(max_examples=500)
@given(_PLAIN_TEXT)
@example("a|b | c")
@example("\u3000a\x1c|\x85b")
@example("a || b")
@example("a #b | c")
@example("a\x85#b")
def test_property_plain_text_tokens_match_regex(text):
    assert not set(B._NOT_PLAIN) & set(text)
    assert (_stages_or_error(B._scan_stages, text)
            == _stages_or_error(_regex_stages, text))


@pytest.mark.parametrize(
    "text",
    [
        "$(" * 10_000,
        "echo " + "$(a " * 5_000,
        "$" * 20_000,
        "'" * 20_001,
        '"' * 20_001,
        '"' + '\\"' * 10_000,
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

    def test_views_follow_the_node_not_the_text(self):
        # one stage text, parsed under two hints objects that give head's
        # positionals different kinds, so the two trees differ only in
        # categories; a view keyed by the text would serve one tree's
        # template for the other
        text = "find . -exec head -n 10 a.log \\; | head -n 10 access.log"
        variants = [
            {"head": UtilityHints(positionals=(kind,))}
            for kind in (PlaceholderKind.DIRECTORY, PlaceholderKind.FILE)
        ]
        B._stage_cache.clear()
        asts = [B.parse(text, h) for h in variants]
        oracles = [_oracle_templatize(ast) for ast in asts]
        assert oracles[0] != oracles[1]
        assert B.render(oracles[0]) == (
            "find _PATH -exec head -n _DIRECTORY _FILE \\; | head -n _DIRECTORY _FILE")
        candidates = [(B.parse("find . -exec head -n 1 b \\; | head c"), 0.5),
                      ("cat -n x", 1.0)]
        scored = metrics.score_pair(asts[0], candidates)
        assert scored.per_candidate == (2 / 3, -1.0)
        for _ in range(2):
            for h, ast, oracle in zip(variants, asts, oracles):
                again = B.parse(text, h)
                assert again.stages[0] is ast.stages[0]
                assert B.templatize(again) == oracle
                assert B.templatize(ast) == oracle
                assert metrics.score_pair(again, candidates) == scored

    def test_views_leave_fields_equality_hash_and_repr(self, hints):
        text = "find . -name '*.txt' -exec grep -l foo {} \\; | xargs echo $(date -u)"
        viewed = B.parse(text, hints)
        for node in viewed.walk_utilities():
            assert node.signature and node.template
        B._stage_cache.clear()
        fresh = B.parse(text, hints)
        for node, new in zip(viewed.walk_utilities(), fresh.walk_utilities()):
            assert new is not node
            assert {"signature", "template"} <= vars(node).keys()
            assert not {"signature", "template"} & vars(new).keys()
            assert node == new
            assert hash(node) == hash(new)
            assert repr(node) == repr(new)
        assert [f.name for f in dataclasses.fields(B.UtilityNode)] == ["name", "items"]

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

    def test_threads_read_views_of_fresh_nodes(self, hints, corpus_lines):
        # Eight threads make the first reads of the same uncached nodes at
        # once, the reads that take cached_property's lock on 3.10/3.11.
        texts = [self.TEXT, *corpus_lines[:60]]

        def nodes() -> list[B.UtilityNode]:
            B._stage_cache.clear()
            return [n for text in texts for n in B.parse(text, hints).walk_utilities()]

        expected = [(n.signature, n.template) for n in nodes()]
        fresh = nodes()
        assert not any({"signature", "template"} & vars(n).keys() for n in fresh)
        start = threading.Barrier(8)
        seen: list[list] = [[] for _ in range(8)]

        def work(which: int) -> None:
            start.wait(timeout=60)
            seen[which] = [(n.signature, n.template) for n in fresh]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got == expected for got in seen)
