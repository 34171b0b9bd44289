from __future__ import annotations

import math

import pytest

from bashsynth import bash_ast
from bashsynth import generator as G
from bashsynth.syntax_kb import (
    PLACEHOLDER_RE, FlagSpec, GenArgKind, UtilitySpec, to_parser_template
)


def _spec(name: str, n_flags: int, successors=()) -> UtilitySpec:
    flags = tuple(FlagSpec(f"-{chr(ord('a') + i)}") for i in range(n_flags))
    return UtilitySpec(
        name, ("UTILITY", "FLAGS", "Path"), flags, tuple(successors)
    )


def _expected_count(n_flags: int) -> int:
    return sum(math.comb(n_flags, k) for k in range(0, 4))


class TestGenerateUnpiped:
    def test_three_flag_spec_yields_8(self):
        assert len(G.generate_unpiped(_spec("tar", 3))) == 8

    def test_ten_flag_spec_yields_176(self):
        commands = G.generate_unpiped(_spec("ls", 10))
        assert len(commands) == 176
        assert _expected_count(10) == 176

    def test_limit_zero(self):
        assert G.generate_unpiped(_spec("ls", 5), limit=0) == []

    def test_limit_caps_output(self):
        assert len(G.generate_unpiped(_spec("ls", 5), limit=7, seed=3)) == 7

    def test_flag_argument_slots_filled(self):
        spec = UtilitySpec(
            "tar",
            ("UTILITY", "FLAGS", "Path"),
            (FlagSpec("-c"), FlagSpec("-j"), FlagSpec("-f", GenArgKind.FILE)),
        )
        rendered = {c.render() for c in G.generate_unpiped(spec)}
        assert "tar [Path]" in rendered
        assert "tar -f [File] [Path]" in rendered
        # enumeration orders flags lexicographically within a subset
        assert "tar -c -f [File] -j [Path]" in rendered

    def test_no_duplicates(self):
        commands = G.generate_unpiped(_spec("ls", 8))
        rendered = [c.render() for c in commands]
        assert len(rendered) == len(set(rendered))

    def test_deterministic_under_seed(self):
        spec = _spec("ls", 9)
        a = [c.render() for c in G.generate_unpiped(spec, limit=20, seed=11)]
        b = [c.render() for c in G.generate_unpiped(spec, limit=20, seed=11)]
        assert a == b
        c = [x.render() for x in G.generate_unpiped(spec, limit=20, seed=12)]
        assert a != c

    def test_every_template_parses(self, kb):
        for name in ("find", "grep", "tar", "sort"):
            for cmd in G.generate_unpiped(kb.get(name)):
                ast = bash_ast.parse(cmd.render())
                assert len(ast.stages) == 1

    def test_flag_count_never_exceeds_three(self, kb):
        for cmd in G.generate_unpiped(kb.get("find")):
            assert len(cmd.flags) <= 3


def _declared_slots(node: bash_ast.UtilityNode, hints) -> list[tuple]:
    """Each positional parameter and each flag argument of a parsed stage,
    with the kind the hints declare for that slot (None when undeclared)."""
    h = hints[node.name]
    out = []
    positional = 0
    for it in node.items:
        if isinstance(it, bash_ast.ParamNode):
            declared = h.positionals[positional] if positional < len(h.positionals) else None
            out.append((it, declared))
            positional += 1
        elif isinstance(it, bash_ast.FlagNode) and it.arg is not None:
            out.append((it.arg, h.flag_args.get(it.token)))
    return out


class TestPlaceholderKinds:
    def test_match_parsed_parser_form_for_whole_kb(self, kb, hints):
        checked = 0
        for spec in kb.specs():
            for cmd in G.generate_unpiped(spec):
                text = to_parser_template(cmd.cmd)
                (stage,) = bash_ast.parse(text, hints).stages
                slots = _declared_slots(stage, hints)
                # every placeholder sits in a declared slot, and every
                # declared positional slot holds one
                assert len(slots) == len(PLACEHOLDER_RE.findall(cmd.cmd)), text
                params = [it for it in stage.items if isinstance(it, bash_ast.ParamNode)]
                assert len(params) == len(spec.positional_kinds), text
                for param, declared in slots:
                    assert param.literal in bash_ast.PLACEHOLDER_BY_TOKEN, text
                    assert declared is not None, text
                    assert param.category == declared, text
                    assert bash_ast.PLACEHOLDER_BY_TOKEN[param.literal] == declared, text
                checked += 1
        assert checked == 1770


class TestGeneratePiped:
    def test_cross_product_cardinality(self):
        head = _spec("find", 4, successors=("xargs",))
        tail = _spec("xargs", 4)
        commands = G.generate_piped(head, tail, 2, 3, seed=0)
        assert len(commands) == 6
        for cmd in commands:
            assert cmd.utilities == ("find", "xargs")
            assert cmd.pipe_partner == "xargs"
            assert set(cmd.flags) <= set(cmd.cmd.split())
            assert len(bash_ast.parse(cmd.cmd).stages) == 2

    def test_disallowed_successor(self):
        head = _spec("find", 2, successors=("xargs",))
        tail = _spec("grep", 2)
        with pytest.raises(G.PipeError):
            G.generate_piped(head, tail, 2, 2)

    def test_single_pipe_only(self, kb):
        commands = G.generate_piped(kb.get("find"), kb.get("sort"), 3, 3, seed=5)
        for cmd in commands:
            rendered = cmd.render()
            assert rendered.count("|") == 1
            assert len(bash_ast.parse(rendered).stages) == 2

    def test_ids_unique(self, kb):
        commands = G.generate_piped(kb.get("find"), kb.get("xargs"), 5, 5, seed=2)
        ids = [c.id for c in commands]
        assert len(ids) == len(set(ids))


class TestDedup:
    def test_removes_duplicates_in_order(self):
        result = G.dedup(["a", "b", "a"])
        assert result.commands == ["a", "b"]
        assert result.duplicates == 1

    def test_all_distinct_is_identity(self):
        result = G.dedup(["x", "y", "z"])
        assert result.commands == ["x", "y", "z"]
        assert result.duplicates == 0

    def test_generated_commands_keyed_by_rendering(self, kb):
        commands = G.generate_unpiped(kb.get("ls"))
        doubled = commands + commands
        result = G.dedup(doubled)
        assert len(result.commands) == len(commands)
        assert result.duplicates == len(commands)

    def test_empty(self):
        result = G.dedup([])
        assert result.commands == []
        assert result.duplicates == 0
