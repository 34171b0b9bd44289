from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bashsynth import bash_ast, cli
from bashsynth import dataset_io as D
from bashsynth import llm_bridge as L
from bashsynth.cli import EXEC_OPT_IN_ENV, main
from bashsynth.scaler import default_profile_path, load_profile, profile_of

from conftest import COMMANDS, MALFORMED_LINES, SlowTransport, make_replay_entries


def _write_dataset(path: Path, rows: list[tuple[str, str]]) -> None:
    D.write_records(
        [D.DatasetRecord(nl=nl, cmd=cmd, source="original") for nl, cmd in rows], path
    )


def test_score_identity_prints_100(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    _write_dataset(ref, [("list", "ls -la"), ("search", "grep -w foo bar")])
    assert main(["score", "--ref", str(ref), "--pred", str(ref)]) == 0
    assert capsys.readouterr().out.strip() == "100.00%"


def test_score_json_format(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    _write_dataset(ref, [("list", "ls")])
    pred = tmp_path / "pred.jsonl"
    pred.write_text(
        json.dumps({"candidates": [{"cmd": "ls", "confidence": 1.0}]}) + "\n"
    )
    assert main(["score", "--ref", str(ref), "--pred", str(pred), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"accuracy_pct": 100.0, "pairs": 1}


def test_generate_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    args = ["generate", "--utility", "grep", "--limit", "40", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.jsonl.manifest.json").exists()


def test_validate_exec_refused_without_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(EXEC_OPT_IN_ENV, raising=False)
    templates = tmp_path / "templates.jsonl"
    main(["generate", "--utility", "ls", "--limit", "5", "--out", str(templates)])
    code = main(
        ["validate", "--in", str(templates), "--out", str(tmp_path / "r.jsonl"),
         "--exec", "--workspace", str(tmp_path / "ws")]
    )
    assert code == 2
    assert "refusing" in capsys.readouterr().err


def test_validate_exec_with_opt_in(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(EXEC_OPT_IN_ENV, "1")
    templates = tmp_path / "templates.jsonl"
    main(["generate", "--utility", "ls", "--limit", "4", "--out", str(templates)])
    out = tmp_path / "results.jsonl"
    code = main(
        ["validate", "--in", str(templates), "--out", str(out), "--exec",
         "--workspace", str(tmp_path / "ws"),
         "--survivors", str(tmp_path / "valid.jsonl")]
    )
    assert code == 0
    results = [json.loads(l) for l in out.read_text().splitlines()]
    assert results and all("verdict" in r for r in results)
    assert "validity rate: " in capsys.readouterr().out


def test_validate_refuses_parser_form_templates(tmp_path, capsys):
    templates = tmp_path / "templates.jsonl"
    scaled = tmp_path / "scaled.jsonl"
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"proportions": {"find": 0.5}}))
    assert main(["generate", "--utility", "find", "--utility", "ls", "--limit", "20",
                 "--out", str(templates)]) == 0
    assert main(["scale", "--in", str(templates), "--out", str(scaled),
                 "--profile", str(profile)]) == 0
    capsys.readouterr()
    code = main(["validate", "--in", str(scaled), "--out", str(tmp_path / "r.jsonl"),
                 "--workspace", str(tmp_path / "ws")])
    assert code == 1
    assert re.fullmatch(
        r"error: [0-9a-f]{12}: '_[A-Z]+' is a parser placeholder: validate fills "
        r"generate's bracket templates \(\[File\]\), not scale output\n",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize("stage, flag, text", [
    ("validate", "--fixtures", '{"File": "temp.txt"}'),
    ("validate", "--sandbox-manifest", '{"dirs": "abc"}'),
    ("scale", "--profile", "[1]"),
    ("validate", "--fixtures", '{"File": [1, null]}'),
    ("validate", "--sandbox-manifest", '{"files": {"a.txt": null}}'),
    ("scale", "--profile", '{"pipe_fraction": true}'),
    ("scale", "--profile", "{"),
])
def test_malformed_json_input_exits_1(tmp_path, capsys, stage, flag, text):
    templates = tmp_path / "templates.jsonl"
    assert main(["generate", "--utility", "ls", "--limit", "2",
                 "--out", str(templates)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    code = main([stage, "--in", str(templates), "--out", str(tmp_path / "o.jsonl"),
                 flag, str(bad)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_generate_refuses_mistyped_spec(tmp_path, capsys):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps({"specs": [
        {"name": "find", "template": ["UTILITY", "Path", "FLAGS"], "pipe_successors": "sort"},
    ]}))
    code = main(["generate", "--specs", str(specs), "--piped", "--out", str(tmp_path / "t")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {specs}: specs[0]: 'pipe_successors' must be a list of strings"
    )


def test_generate_refuses_spec_word_the_parser_splits(tmp_path, capsys):
    # "ls -x|wc [Path]" parses as ls piped to wc, not as ls with flag -x|wc
    specs, out = tmp_path / "specs.json", tmp_path / "t.jsonl"
    specs.write_text(json.dumps({"specs": [
        {"name": "ls", "template": ["UTILITY", "FLAGS", "Path"],
         "flags": [{"token": "-a"}, {"token": "-x|wc"}]},
    ]}))
    assert main(["generate", "--specs", str(specs), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {specs}: specs[0]: not a flag token as the parser reads it: '-x|wc'\n")
    assert not out.exists()


def test_generate_refuses_successor_without_spec(tmp_path, capsys):
    # a misspelt successor once dropped its pipelines without a word
    specs, out = tmp_path / "specs.json", tmp_path / "t.jsonl"
    specs.write_text(json.dumps({"specs": [
        {"name": "find", "template": ["UTILITY", "Path", "FLAGS"],
         "flags": [{"token": "-empty"}], "pipe_successors": ["wc", "wcc"]},
        {"name": "wc", "flags": [{"token": "-l"}]},
    ]}))
    assert main(["generate", "--specs", str(specs), "--piped", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {specs}: specs[0]: find: pipe successor 'wcc' has no spec\n")
    assert not out.exists()


def test_generate_repeated_utility_written_once(tmp_path):
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert main(["generate", "--utility", "ls", "--piped", "--out", str(once)]) == 0
    assert main(["generate", "--utility", "ls", "--utility", "ls", "--piped",
                 "--out", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()


@pytest.mark.parametrize("option", ["--limit", "--head-limit", "--tail-limit"])
def test_negative_limit_refused_before_output_is_opened(tmp_path, capsys, option):
    # generate writes as it generates, so the refusal must come first: a
    # negative limit once truncated --out and wrote part of it
    kept, absent = tmp_path / "kept.jsonl", tmp_path / "absent.jsonl"
    kept.write_text("earlier run\n")
    for out in (kept, absent):
        code = main(["generate", "--utility", "find", "--piped", option, "-1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {option} must be >= 0, not -1\n"
    assert kept.read_text() == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]


def _imported_by(module: str, check: str) -> subprocess.CompletedProcess:
    # -S: no site .pth hook may preload a module the check looks for
    code = f"import sys, {module}; loaded = set(sys.modules); sys.exit({check} or None)"
    env = {**os.environ, "PYTHONPATH": str(Path(bash_ast.__file__).parents[1])}
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_imports_no_requests_or_yaml():
    # HTTP goes through the standard library and every input is JSON: the
    # package has no runtime dependency.
    # The HTTP stack, the thread pools and the run directories' tempfile load
    # with their first use, and shipped data is found beside the package, so
    # no other run pays for them.
    child = _imported_by("bashsynth.cli", "sorted(loaded & {"
                         "'requests', 'yaml', 'http.client', 'urllib.request', "
                         "'concurrent.futures', 'tempfile', 'importlib.resources'})")
    assert child.returncode == 0, child.stderr


def test_bash_ast_imports_no_other_bashsynth_module():
    # the package root holds only __version__, so a module loads what it runs
    child = _imported_by("bashsynth.bash_ast", "sorted(m for m in loaded if "
                         "m.startswith('bashsynth.') and m != 'bashsynth.bash_ast')")
    assert child.returncode == 0, child.stderr


def test_validate_checks_config_before_reading_input(tmp_path, capsys):
    # a bad --jobs is refused before the (here missing) input is read
    code = main(["validate", "--in", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "r.jsonl"), "--jobs", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"


def test_validate_exec_leaves_user_files_in_the_workspace(tmp_path, monkeypatch):
    monkeypatch.setenv(EXEC_OPT_IN_ENV, "1")
    templates = tmp_path / "templates.jsonl"
    main(["generate", "--utility", "ls", "--limit", "2", "--out", str(templates)])
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / "notes.txt").write_bytes(b"keep me\n")
    code = main(["validate", "--in", str(templates), "--out", str(tmp_path / "r.jsonl"),
                 "--exec", "--workspace", str(workspace)])
    assert code == 0
    assert (workspace / "notes.txt").read_bytes() == b"keep me\n"
    assert [p.name for p in workspace.iterdir()] == ["notes.txt"]


def test_validate_exec_refuses_escaping_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(EXEC_OPT_IN_ENV, "1")
    templates = tmp_path / "templates.jsonl"
    main(["generate", "--utility", "ls", "--limit", "2", "--out", str(templates)])
    workspace, escape = tmp_path / "ws", tmp_path / "escape.json"
    escape.write_text('{"dirs": ["../escape"]}')
    argv = ["validate", "--in", str(templates), "--out", str(tmp_path / "r.jsonl"),
            "--exec", "--workspace", str(workspace), "--sandbox-manifest", str(escape)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: manifest path escapes workspace: ../escape\n"
    # refused before the workspace root is made
    assert not workspace.exists()
    assert not (tmp_path / "escape").exists()


def test_stage_composability(tmp_path, capsys):
    """generate -> validate (dry) -> scale -> split -> stats, no manual edits."""
    templates = tmp_path / "templates.jsonl"
    assert main(
        ["generate", "--utility", "find", "--utility", "ls", "--piped",
         "--limit", "60", "--head-limit", "6", "--tail-limit", "6",
         "--seed", "3", "--out", str(templates)]
    ) == 0

    results = tmp_path / "results.jsonl"
    survivors = tmp_path / "survivors.jsonl"
    assert main(
        ["validate", "--in", str(templates), "--out", str(results),
         "--survivors", str(survivors), "--workspace", str(tmp_path / "ws")]
    ) == 0

    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"proportions": {"find": 0.6}}))
    scaled = tmp_path / "scaled.jsonl"
    assert main(
        ["scale", "--in", str(survivors), "--out", str(scaled),
         "--profile", str(profile), "--seed", "1"]
    ) == 0
    entries = D.read_templates(scaled)
    assert entries and all("_" in e.cmd or "[" not in e.cmd for e in entries)
    assert abs(profile_of(entries).proportions["find"] - 0.6) <= 0.02

    # the shipped profile holds both dimensions: head share and pipe fraction
    default_scaled = tmp_path / "default_scaled.jsonl"
    assert main(
        ["scale", "--in", str(survivors), "--out", str(default_scaled), "--seed", "1"]
    ) == 0
    realized = profile_of(D.read_templates(default_scaled))
    target = load_profile(default_profile_path())
    assert abs(realized.proportions["find"] - target.proportions["find"]) <= 0.02
    assert abs(realized.pipe_fraction - target.pipe_fraction) <= 0.02

    # scaled templates become records once NL arrives; fake it for the rest
    dataset = tmp_path / "dataset.jsonl"
    D.write_records(
        [
            D.DatasetRecord(nl=f"sentence {i}", cmd=e.cmd, source="generated")
            for i, e in enumerate(entries)
        ],
        dataset,
    )
    assert main(
        ["split", "--in", str(dataset), "--train", str(tmp_path / "train.jsonl"),
         "--test", str(tmp_path / "test.jsonl"), "--seed", "5"]
    ) == 0
    train = D.read_records(tmp_path / "train.jsonl")
    test = D.read_records(tmp_path / "test.jsonl")
    assert len(train) + len(test) == len(entries)

    capsys.readouterr()  # drain earlier stage chatter
    assert main(["stats", "--in", str(dataset), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == len(entries)


def test_validate_writes_note(tmp_path):
    templates = tmp_path / "templates.jsonl"
    D.write_templates(
        [D.TemplateEntry(id="x", cmd='grep "broken', utilities=("grep",))], templates
    )
    out = tmp_path / "results.jsonl"
    assert main(
        ["validate", "--in", str(templates), "--out", str(out),
         "--workspace", str(tmp_path / "ws")]
    ) == 0
    (result,) = [json.loads(l) for l in out.read_text().splitlines()]
    assert result["verdict"] is False
    assert result["note"].startswith("dry_run:")


def test_validate_results_are_utf8_lines(tmp_path):
    templates = tmp_path / "templates.jsonl"
    D.write_templates([D.TemplateEntry(id="x", cmd="echo é", utilities=("echo",))],
                      templates)
    out = tmp_path / "results.jsonl"
    args = ["validate", "--out", str(out), "--workspace", str(tmp_path / "ws")]
    assert main(args + ["--in", str(templates)]) == 0
    assert '"command": "echo é"' in out.read_text(encoding="utf-8")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(args + ["--in", str(empty)]) == 0
    assert out.read_bytes() == b""


def test_validate_parses_each_command_once(tmp_path, capsys, monkeypatch):
    templates = tmp_path / "templates.jsonl"
    cmds = ["ls -la", "sort -r [File]", 'grep "broken']
    D.write_templates(
        [D.TemplateEntry(id=str(i), cmd=c, utilities=(c.split()[0],))
         for i, c in enumerate(cmds)],
        templates,
    )
    parsed: list[str] = []
    real_parse = bash_ast.parse
    monkeypatch.setattr(
        bash_ast, "parse", lambda text, *a: parsed.append(text) or real_parse(text, *a)
    )
    assert main(
        ["validate", "--in", str(templates), "--out", str(tmp_path / "r.jsonl"),
         "--workspace", str(tmp_path / "ws")]
    ) == 0
    assert len(parsed) == len(cmds)
    assert "parse rate: 66.7% over 3 commands" in capsys.readouterr().out


def test_scale_infeasible_pipe_fraction_exits_1(tmp_path, capsys):
    templates = tmp_path / "templates.jsonl"
    D.write_templates(
        [D.TemplateEntry(id=str(i), cmd=f"ls /d{i}", utilities=("ls",))
         for i in range(20)],
        templates,
    )
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"proportions": {}, "pipe_fraction": 0.5}))
    code = main(["scale", "--in", str(templates), "--out", str(tmp_path / "s.jsonl"),
                 "--profile", str(profile)])
    assert code == 1
    assert "pipe_fraction" in capsys.readouterr().err


def test_stats_json(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    _write_dataset(dataset, [("a", "ls"), ("b", "find . | sort")])
    assert main(["stats", "--in", str(dataset), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 2
    assert report["piped"] == 1


def test_stats_reads_template_files(tmp_path, capsys):
    templates = tmp_path / "templates.jsonl"
    assert main(
        ["generate", "--utility", "find", "--utility", "sort", "--piped",
         "--limit", "20", "--head-limit", "4", "--tail-limit", "4",
         "--out", str(templates)]
    ) == 0
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"proportions": {"find": 0.5}}))
    scaled = tmp_path / "scaled.jsonl"
    assert main(
        ["scale", "--in", str(templates), "--out", str(scaled), "--profile", str(profile)]
    ) == 0
    for path in (templates, scaled):
        entries = D.read_templates(path)
        capsys.readouterr()
        assert main(["stats", "--in", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == report["parseable"] == len(entries)
        assert report["piped"] == sum(len(e.utilities) > 1 for e in entries) > 0


def test_stats_rejects_line_without_command(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    path.write_text('{"cmd": "ls"}\n{"nl": "list files"}\n')
    assert main(["stats", "--in", str(path)]) == 1
    assert f"{path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("reader, subcommand, good, bad", MALFORMED_LINES)
def test_malformed_line_exits_1_naming_path_and_line(
    tmp_path, capsys, reader, subcommand, good, bad
):
    bad_file = tmp_path / "bad.jsonl"
    bad_file.write_text(f"{good}\n{bad}\n")
    ref = tmp_path / "ref.jsonl"
    _write_dataset(ref, [("list", "ls"), ("list", "ls")])
    templates = tmp_path / "templates.jsonl"
    D.write_templates([D.TemplateEntry(id="x", cmd="ls", utilities=("ls",))], templates)
    out = str(tmp_path / "out.jsonl")
    argv = {
        "score": ["score", "--ref", str(ref), "--pred", str(bad_file)],
        "backtranslate": ["backtranslate", "--in", str(templates), "--out", out,
                          "--replay", str(bad_file)],
        "scale": ["scale", "--in", str(bad_file), "--out", out],
        "split": ["split", "--in", str(bad_file), "--train", out,
                  "--test", str(tmp_path / "test.jsonl")],
    }[subcommand]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad_file}:2: ")


@pytest.mark.parametrize("subcommand", ["templatize", "fill", "score"])
def test_unparseable_record_exits_1_naming_path_and_record(tmp_path, capsys, subcommand):
    records = tmp_path / "records.jsonl"
    _write_dataset(records, [("list", "ls"), ("search", 'grep "broken')])
    pred = tmp_path / "pred.jsonl"
    _write_dataset(pred, [("list", "ls"), ("list", "ls")])
    out = str(tmp_path / "out.jsonl")
    argv = {
        "templatize": ["templatize", "--in", str(records), "--out", out],
        "fill": ["fill", "--in", str(records), "--out", out],
        "score": ["score", "--ref", str(records), "--pred", str(pred)],
    }[subcommand]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {records}: record 2: unbalanced quote\n"


def test_unparseable_prediction_scores_minus_one(tmp_path, capsys):
    ref = tmp_path / "ref.jsonl"
    _write_dataset(ref, [("list", "ls")])
    pred = tmp_path / "pred.jsonl"
    _write_dataset(pred, [("search", 'grep "broken')])
    assert main(["score", "--ref", str(ref), "--pred", str(pred)]) == 0
    assert capsys.readouterr().out.strip() == "-100.00%"


_PIPED_SHA256 = "dedebfa4442973ddc8183accafe5de0bc6bbe5a35c5e352c9e045a1e74d2134a"


@pytest.fixture(scope="module")
def piped_templates(tmp_path_factory):
    """Every utility and pipe pair of the shipped KB, 8 tail templates each."""
    out = tmp_path_factory.mktemp("piped") / "t.jsonl"
    assert main(
        ["generate", "--piped", "--tail-limit", "8", "--seed", "3", "--out", str(out)]
    ) == 0
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_piped_bytes_pinned(piped_templates):
    data = piped_templates.read_bytes()
    assert data.count(b"\n") == 27210
    assert hashlib.sha256(data).hexdigest() == _PIPED_SHA256


def test_validate_and_scale_bytes_pinned(piped_templates, tmp_path):
    """The dry-run results line holds its fields in declaration order, and
    every template parses, so the survivors are the input."""
    results, survivors, scaled = (tmp_path / n for n in ("r.jsonl", "s.jsonl", "x.jsonl"))
    assert main(["validate", "--in", str(piped_templates), "--out", str(results),
                 "--survivors", str(survivors), "--workspace", str(tmp_path / "ws")]) == 0
    assert main(["scale", "--in", str(survivors), "--seed", "7", "--out", str(scaled)]) == 0
    assert _sha256(results) == (
        "452a207f308b85d44eb7c2a5b982b6697fc706ece05a167227be6ae9562e2528"
    )
    assert _sha256(survivors) == _PIPED_SHA256
    assert scaled.read_bytes().count(b"\n") == 1797
    assert _sha256(scaled) == (
        "7588bb62d66d6503b71c1eca6c83e34cdd890449c4354a8d5b1e6632440d7989"
    )


def test_templatize_subcommand(tmp_path):
    dataset = tmp_path / "data.jsonl"
    _write_dataset(dataset, [("compress", "tar -cjf backup.bz2 mydir")])
    out = tmp_path / "templ.jsonl"
    assert main(["templatize", "--in", str(dataset), "--out", str(out)]) == 0
    assert D.read_records(out)[0].cmd == "tar -cjf _FILE _PATH"


def test_fill_subcommand(tmp_path):
    dataset = tmp_path / "data.jsonl"
    _write_dataset(dataset, [('go to "abc"', "cd _DIRECTORY")])
    out = tmp_path / "filled.jsonl"
    assert main(["fill", "--in", str(dataset), "--out", str(out)]) == 0
    # quoted "abc" extracts as REGEX, so the DIRECTORY slot stays; the
    # example path form does fill
    dataset2 = tmp_path / "data2.jsonl"
    _write_dataset(dataset2, [("compress /home/user now", "tar -cjf _FILE _PATH")])
    out2 = tmp_path / "filled2.jsonl"
    assert main(["fill", "--in", str(dataset2), "--out", str(out2)]) == 0
    assert D.read_records(out2)[0].cmd == "tar -cjf _FILE /home/user"


def test_llm_pipeline_offline(tmp_path, capsys):
    log = tmp_path / "replay.jsonl"
    log.write_text(
        "\n".join(json.dumps(e, ensure_ascii=False) for e in make_replay_entries())
        + "\n"
    )
    out = tmp_path / "records.jsonl"
    audit = tmp_path / "audit.jsonl"
    code = main(
        ["llm-pipeline", "--n", "10", "--out", str(out), "--replay", str(log),
         "--audit-log", str(audit)]
    )
    assert code == 0
    records = D.read_records(out)
    assert len(records) == 5
    assert len(audit.read_text().splitlines()) == 15
    assert (tmp_path / "records.jsonl.manifest.json").exists()


def test_backtranslate_offline(tmp_path):
    entries = [
        {
            "request": {
                "model": "default",
                "messages": [
                    {"role": "user", "content": "Translate to English: ls -la"}
                ],
                "temperature": 0.0,
            },
            "response": "list everything",
        }
    ]
    log = tmp_path / "replay.jsonl"
    log.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    templates = tmp_path / "templates.jsonl"
    D.write_templates(
        [D.TemplateEntry(id="x", cmd="ls -la", utilities=("ls",))], templates
    )
    out = tmp_path / "records.jsonl"
    code = main(
        ["backtranslate", "--in", str(templates), "--out", str(out),
         "--replay", str(log)]
    )
    assert code == 0
    assert D.read_records(out)[0].nl == "list everything"


def _translate_entry(cmd: str, nl: str) -> dict:
    return {
        "request": {
            "model": "default",
            "messages": [{"role": "user", "content": f"Translate to English: {cmd}"}],
            "temperature": 0.0,
        },
        "response": nl,
    }


def _write_log(path: Path, entries: list[dict]) -> None:
    path.write_text("\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n")


def test_backtranslate_concurrent_keeps_input_order(tmp_path, monkeypatch):
    transport = SlowTransport()
    monkeypatch.setattr(L, "HttpTransport", lambda config: transport)
    templates = tmp_path / "templates.jsonl"
    D.write_templates(
        [D.TemplateEntry(id=str(i), cmd=c, utilities=("echo",))
         for i, c in enumerate(COMMANDS)],
        templates,
    )
    out = tmp_path / "records.jsonl"
    code = main(["backtranslate", "--in", str(templates), "--out", str(out),
                 "--endpoint", "http://localhost:9/v1"])
    assert code == 0
    assert [(r.cmd, r.nl) for r in D.read_records(out)] == [
        (c, f"nl: {c}") for c in COMMANDS
    ]
    assert transport.peak == L.LlmConfig().concurrency


def test_backtranslate_failure_keeps_partial_out(tmp_path, monkeypatch):
    monkeypatch.setattr(L.time, "sleep", lambda seconds: None)
    log = tmp_path / "replay.jsonl"
    _write_log(log, [_translate_entry("ls -la", "list everything"),
                     _translate_entry("du -sh x", "size of x")])
    templates = tmp_path / "templates.jsonl"
    D.write_templates(
        [D.TemplateEntry(id=str(i), cmd=c, utilities=(c.split()[0],))
         for i, c in enumerate(["ls -la", "sort b.txt", "du -sh x"])],
        templates,
    )
    out = tmp_path / "records.jsonl"
    audit = tmp_path / "audit.jsonl"
    code = main(["backtranslate", "--in", str(templates), "--out", str(out),
                 "--replay", str(log), "--audit-log", str(audit)])
    assert code == 1
    assert [(r.cmd, r.nl) for r in D.read_records(out)] == [("ls -la", "list everything")]
    assert not (tmp_path / "records.jsonl.manifest.json").exists()
    errors = [json.loads(line)["error"] for line in audit.read_text().splitlines()]
    assert errors[0] is None and len(errors) == 4 and all(errors[1:])


def test_llm_pipeline_failure_writes_audit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(L.time, "sleep", lambda seconds: None)
    entries = [e for e in make_replay_entries()
               if e["request"]["messages"][0]["content"]
               != "Translate to English: grep -w foo a.txt"]
    log = tmp_path / "replay.jsonl"
    _write_log(log, entries)
    out = tmp_path / "records.jsonl"
    audit = tmp_path / "audit.jsonl"
    code = main(["llm-pipeline", "--n", "10", "--out", str(out), "--replay", str(log),
                 "--audit-log", str(audit)])
    assert code == 1
    assert "retries exhausted" in capsys.readouterr().err
    assert [r.cmd for r in D.read_records(out)] == ["ls -la", "find . -name '*.txt'"]
    lines = [json.loads(line) for line in audit.read_text().splitlines()]
    # 10 generations, 2 translations, then 3 failed attempts at the third
    assert [e["task"] for e in lines] == ["generate"] * 10 + ["backtranslate"] * 5
    assert [e["error"] is not None for e in lines[10:]] == [False, False, True, True, True]
    assert not (tmp_path / "records.jsonl.manifest.json").exists()


def _without_latency(path: Path) -> list[dict]:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in line.items() if k != "latency"} for line in lines]


def test_replay_run_log_replays_identically(tmp_path):
    fixture = tmp_path / "fixture.jsonl"
    _write_log(fixture, make_replay_entries())
    runs = []
    for name, replay in (("a", fixture), ("b", tmp_path / "a.log")):
        out, log = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.log"
        code = main(["llm-pipeline", "--n", "10", "--out", str(out),
                     "--replay", str(replay), "--audit-log", str(log)])
        assert code == 0
        runs.append((out.read_bytes(), _without_latency(log)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 15


def test_replay_and_audit_log_may_name_one_file(tmp_path):
    # The replay reads the log before the session truncates it to rewrite it.
    fixture, log = tmp_path / "fixture.jsonl", tmp_path / "run.log"
    _write_log(fixture, make_replay_entries())
    runs = []
    for name, replay in (("a", fixture), ("b", log)):
        out = tmp_path / f"{name}.jsonl"
        code = main(["llm-pipeline", "--n", "10", "--out", str(out),
                     "--replay", str(replay), "--audit-log", str(log)])
        assert code == 0
        runs.append((out.read_bytes(), _without_latency(log)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 15


def test_llm_pipeline_log_replays_live_order(tmp_path, monkeypatch):
    commands = [f"echo {i}" for i in range(6)]
    monkeypatch.setattr(L, "HttpTransport", lambda config: SlowTransport(commands))
    live, log = tmp_path / "live.jsonl", tmp_path / "live.log"
    assert main(["llm-pipeline", "--n", "6", "--out", str(live), "--audit-log", str(log),
                 "--endpoint", "http://localhost:9/v1"]) == 0
    replay = tmp_path / "replay.jsonl"
    assert main(["llm-pipeline", "--n", "6", "--out", str(replay),
                 "--replay", str(log)]) == 0
    assert sorted(r.cmd for r in D.read_records(live)) == commands
    assert replay.read_bytes() == live.read_bytes()


def test_rpm_below_one_exits_1(tmp_path, capsys):
    log = tmp_path / "replay.jsonl"
    _write_log(log, [_translate_entry("ls -la", "list everything")])
    templates = tmp_path / "templates.jsonl"
    D.write_templates([D.TemplateEntry(id="x", cmd="ls -la", utilities=("ls",))], templates)
    out = tmp_path / "records.jsonl"
    code = main(["backtranslate", "--in", str(templates), "--out", str(out),
                 "--replay", str(log), "--rpm", "0"])
    assert code == 1
    assert "requests_per_minute must be >= 1" in capsys.readouterr().err
    assert not out.exists()


_MAN_PAGE = "OPTIONS\n  -r, --recursive\n      copy directories recursively\n"


def test_import_man_subcommand(tmp_path):
    man = tmp_path / "cp.txt"
    man.write_text(_MAN_PAGE)
    out = tmp_path / "cp.json"
    assert main(["import-man", "--man", str(man), "--utility", "cp", "--out", str(out)]) == 0
    from bashsynth.syntax_kb import load_specs

    spec = load_specs(out)[0]
    assert spec.name == "cp"
    assert "-r" in {f.token for f in spec.flags}


def test_unknown_utility_errors(tmp_path, capsys):
    code = main(["generate", "--utility", "frobnicate", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown utility" in capsys.readouterr().err


def test_missing_input_file_errors(tmp_path, capsys):
    code = main(["stats", "--in", str(tmp_path / "absent.jsonl")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_every_output_has_manifest(tmp_path):
    out = tmp_path / "t.jsonl"
    main(["generate", "--utility", "cd", "--out", str(out)])
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "generate"
    assert manifest["tool_version"]
    assert manifest["timestamp"]


@pytest.mark.parametrize("subcommand", [
    "generate", "validate", "scale", "split", "templatize", "fill", "import-man",
    "backtranslate", "llm-pipeline", "stats", "score",
])
def test_each_output_gets_its_subcommands_manifest(tmp_path, subcommand):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    templates, records = inputs / "templates.jsonl", inputs / "records.jsonl"
    cmds = ["ls -la", "sort [File]"]
    D.write_templates([D.TemplateEntry(id=str(i), cmd=c, utilities=(c.split()[0],))
                       for i, c in enumerate(cmds)], templates)
    _write_dataset(records, [("list", "ls -la"), ("sort /tmp/a.txt", "sort _FILE")])
    # the shipped profile (find 0.6344, pipes 0.3136) keeps all 16: 10 find, 5 piped
    pool = inputs / "pool.jsonl"
    D.write_templates([D.TemplateEntry(id=str(i), cmd=c, utilities=tuple(
        stage.split()[0] for stage in c.split("|")))
        for i, c in enumerate(["find [Path]"] * 5 + ["find [Path] | sort"] * 5
                              + ["ls -la"] * 6)], pool)
    man = inputs / "cp.txt"
    man.write_text(_MAN_PAGE)
    translations, pipeline = inputs / "translations.jsonl", inputs / "pipeline.jsonl"
    _write_log(translations, [_translate_entry(c, f"nl {c}") for c in cmds])
    _write_log(pipeline, make_replay_entries())

    def o(name: str) -> str:
        return str(out / name)

    # the files each run reads, the shipped ones its options default to included
    specs, profile, *sandbox = (str(D.shipped(name)) for name in (
        "specs/core.json", "profiles/original.json", "sandbox/values.json",
        "sandbox/manifest.json"))
    argv, outputs, read = {
        "generate": (["--utility", "ls", "--limit", "3", "--out", o("t.jsonl")],
                     ["t.jsonl"], [specs]),
        "validate": (["--in", str(templates), "--out", o("r.jsonl"),
                      "--survivors", o("s.jsonl"), "--workspace", str(tmp_path / "ws")],
                     ["r.jsonl", "s.jsonl"], [str(templates), *sandbox]),
        "scale": (["--in", str(pool), "--out", o("s.jsonl")], ["s.jsonl"],
                  [str(pool), profile]),
        "split": (["--in", str(records), "--train", o("a.jsonl"), "--test", o("b.jsonl")],
                  ["a.jsonl", "b.jsonl"], [str(records)]),
        "templatize": (["--in", str(records), "--out", o("t.jsonl")], ["t.jsonl"],
                       [str(records), specs]),
        "fill": (["--in", str(records), "--out", o("f.jsonl")], ["f.jsonl"],
                 [str(records), specs]),
        "import-man": (["--man", str(man), "--utility", "cp", "--out", o("cp.json")],
                       ["cp.json"], [str(man)]),
        "backtranslate": (["--in", str(templates), "--out", o("d.jsonl"),
                           "--replay", str(translations)], ["d.jsonl"],
                          [str(templates), str(translations)]),
        "llm-pipeline": (["--n", "10", "--out", o("d.jsonl"), "--replay", str(pipeline)],
                         ["d.jsonl"], [str(pipeline)]),
        "stats": (["--in", str(records)], [], []),
        "score": (["--ref", str(records), "--pred", str(records)], [], []),
    }[subcommand]
    assert main([subcommand, *argv]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*.manifest.json")) == sorted(
        f"{name}.manifest.json" for name in outputs)
    for name in outputs:
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert (manifest["subcommand"], manifest["output"]) == (subcommand, o(name))
        assert manifest["inputs"] == read


def test_manifest_overrides_hold_values_off_their_builtin_defaults(tmp_path):
    # Only a value that differs from its option's default without --config
    # is an override: from the command line (--utility, --tolerance) or the
    # config file (limit). piped, which the config sets to its default,
    # stays out, and so do the inputs, the outputs and the seed, which have
    # fields of their own.
    templates, profile = tmp_path / "t.jsonl", tmp_path / "profile.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "limit": 2, "piped": False}))
    assert main(["--config", str(config), "generate", "--utility", "ls",
                 "--out", str(templates)]) == 0
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["overrides"] == {"utility": ["ls"], "limit": 2}
    profile.write_text('{"proportions": {}}')
    out = tmp_path / "s.jsonl"
    assert main(["--config", str(config), "scale", "--in", str(templates),
                 "--out", str(out), "--profile", str(profile), "--tolerance", "0.5"]) == 0
    manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
    assert manifest["overrides"] == {"tolerance": 0.5}
    assert manifest["inputs"] == [str(templates), str(profile), str(config)]
    assert (manifest["subcommand"], manifest["output"], manifest["seed"]) == (
        "scale", str(out), 3)


def test_outputs_of_one_run_share_one_manifest(tmp_path):
    templates = tmp_path / "t.jsonl"
    D.write_templates([D.TemplateEntry(id="0", cmd="ls -la", utilities=("ls",))], templates)
    results, survivors = tmp_path / "r.jsonl", tmp_path / "s.jsonl"
    assert main(["validate", "--in", str(templates), "--out", str(results),
                 "--survivors", str(survivors), "--workspace", str(tmp_path / "ws")]) == 0
    manifests = [json.loads(Path(f"{p}.manifest.json").read_text())
                 for p in (results, survivors)]
    assert [m.pop("output") for m in manifests] == [str(results), str(survivors)]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("case", [
    "unknown utility", "exec without opt-in", "exec without opt-in at --timeout 2",
    "backtranslate without endpoint",
    "llm-pipeline without endpoint", "infeasible profile", "count mismatch",
    "man page without flags", "parser-form validate", "deep config", "deep profile",
    "deep fixtures", "deep specs", "non-UTF-8 specs",
    "specs directory without a spec file", "duplicate config key", "unknown config keys",
    "generate without --out", "non-integer --limit", "unknown subcommand",
    "--config without a file", "dashed config key", "nan tolerance", "nan timeout",
    "abbreviated --limit", "abbreviated --workspace and --timeout", "stray positional",
    "unknown top-level option",
])
def test_refusal_prints_one_error_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.delenv(EXEC_OPT_IN_ENV, raising=False)
    templates, parser_form = tmp_path / "templates.jsonl", tmp_path / "parser.jsonl"
    D.write_templates([D.TemplateEntry(id="x", cmd="ls -la", utilities=("ls",))], templates)
    D.write_templates([D.TemplateEntry(id="y", cmd="ls _FILE", utilities=("ls",))],
                      parser_form)
    ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
    _write_dataset(ref, [("list", "ls"), ("list", "ls")])
    _write_dataset(pred, [("list", "ls")])
    profile, man = tmp_path / "profile.json", tmp_path / "cp.txt"
    profile.write_text(json.dumps({"proportions": {}, "pipe_fraction": 0.5}))
    man.write_text("nothing here\n")
    # nested past the interpreter's recursion limit
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100_000 + "]" * 100_000)
    latin1_json = tmp_path / "latin1.json"
    latin1_json.write_bytes('{"specs": [{"name": "l\xe9"}]}'.encode("latin-1"))
    # a directory of YAML specs, the format before JSON, holds no spec file
    yaml_dir = tmp_path / "yaml_specs"
    yaml_dir.mkdir()
    (yaml_dir / "core.yaml").write_text("name: ls\n")
    duplicate, unknown = tmp_path / "duplicate.json", tmp_path / "unknown.json"
    duplicate.write_text('{"seed": 1, "seed": 2}')
    unknown.write_text('{"seed": 1, "zz": 1, "no_such_key": 1}')
    # one key in two spellings: only the underscore one is a config key
    dashed = tmp_path / "dashed.json"
    dashed.write_text('{"head_limit": 1, "head-limit": 5}')
    out = str(tmp_path / "out.jsonl")
    code, want, argv = {
        "unknown utility": (2, "unknown utility 'frobnicate'",
                            ["generate", "--utility", "frobnicate", "--out", out]),
        "exec without opt-in": (2, f"refusing to execute commands: set {EXEC_OPT_IN_ENV}=1",
                                ["validate", "--in", str(templates), "--out", out, "--exec",
                                 "--workspace", str(tmp_path / "ws")]),
        # the refusal names the timeout the run would have used
        "exec without opt-in at --timeout 2": (
            2, "(isolated workspace, safety policy, 2.0s timeout)",
            ["validate", "--in", str(templates), "--out", out, "--exec", "--timeout", "2",
             "--workspace", str(tmp_path / "ws")]),
        "backtranslate without endpoint": (2, "--endpoint or --replay is required",
                                           ["backtranslate", "--in", str(templates),
                                            "--out", out]),
        "llm-pipeline without endpoint": (2, "--endpoint or --replay is required",
                                          ["llm-pipeline", "--n", "2", "--out", out]),
        "infeasible profile": (1, "infeasible profile: pipe_fraction: ",
                               ["scale", "--in", str(templates), "--out", out,
                                "--profile", str(profile)]),
        "count mismatch": (1, "2 reference records vs 1 predictions",
                           ["score", "--ref", str(ref), "--pred", str(pred)]),
        "man page without flags": (1, "cp: no flag definitions found",
                                   ["import-man", "--man", str(man), "--utility", "cp",
                                    "--out", out]),
        "parser-form validate": (1, "y: '_FILE' is a parser placeholder: ",
                                 ["validate", "--in", str(parser_form), "--out", out]),
        "deep config": (2, f"{deep_json}: not JSON: maximum recursion depth",
                        ["--config", str(deep_json), "stats", "--in", str(templates)]),
        "deep profile": (1, f"{deep_json}: not JSON: maximum recursion depth",
                         ["scale", "--in", str(templates), "--out", out,
                          "--profile", str(deep_json)]),
        "deep fixtures": (1, f"{deep_json}: not JSON: maximum recursion depth",
                          ["validate", "--in", str(templates), "--out", out,
                           "--fixtures", str(deep_json)]),
        "deep specs": (1, f"{deep_json}: not JSON: maximum recursion depth",
                       ["generate", "--specs", str(deep_json), "--out", out]),
        "non-UTF-8 specs": (1, f"{latin1_json}: not JSON: 'utf-8' codec can't decode",
                            ["generate", "--specs", str(latin1_json), "--out", out]),
        "specs directory without a spec file": (
            1, f"{yaml_dir}: directory holds no *.json spec file",
            ["generate", "--specs", str(yaml_dir), "--out", out]),
        "duplicate config key": (2, f"{duplicate}: duplicate key 'seed'",
                                 ["--config", str(duplicate), "stats", "--in", str(templates)]),
        "unknown config keys": (2, "config: unknown fields 'no_such_key', 'zz'",
                                ["--config", str(unknown), "stats", "--in", str(templates)]),
        # argparse's refusals name the subcommand and print no usage text
        "generate without --out": (
            2, "bashsynth generate: the following arguments are required: --out",
            ["generate"]),
        "non-integer --limit": (2, "bashsynth generate: argument --limit: invalid int value",
                                ["generate", "--limit", "abc", "--out", out]),
        "unknown subcommand": (2, "bashsynth: argument subcommand: invalid choice: 'frob'",
                               ["frob"]),
        "--config without a file": (2, "bashsynth: argument --config: expected one argument",
                                    ["stats", "--in", str(templates), "--config"]),
        "dashed config key": (2, "config: unknown field 'head-limit'",
                              ["--config", str(dashed), "generate", "--out", out]),
        "nan tolerance": (1, "tolerance must be a finite number >= 0, not nan",
                          ["scale", "--in", str(templates), "--out", out,
                           "--tolerance", "nan"]),
        "nan timeout": (1, "timeout must be a finite number above 0, not nan",
                        ["validate", "--in", str(templates), "--out", out,
                         "--timeout", "nan"]),
        # an abbreviation would change meaning once an option shares its prefix
        "abbreviated --limit": (2, "bashsynth generate: unrecognized arguments: --lim 3",
                                ["generate", "--utility", "ls", "--lim", "3", "--out", out]),
        "abbreviated --workspace and --timeout": (
            2, "bashsynth validate: unrecognized arguments: --work",
            ["validate", "--in", str(templates), "--out", out,
             "--work", str(tmp_path / "ws"), "--tim", "0.2"]),
        "stray positional": (2, "bashsynth generate: unrecognized arguments: extra",
                             ["generate", "--out", out, "extra"]),
        "unknown top-level option": (2, "bashsynth: unrecognized arguments: --bogus",
                                     ["--bogus", "generate", "--out", out]),
    }[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and want in err
    assert not list(tmp_path.glob("*.manifest.json"))


def test_config_file_sets_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limit": 5, "seed": 99}))
    out_cfg = tmp_path / "cfg.jsonl"
    out_cli = tmp_path / "cli.jsonl"
    assert main(["--config", str(config), "generate", "--utility", "grep",
                 "--out", str(out_cfg)]) == 0
    assert main(["generate", "--utility", "grep", "--limit", "5", "--seed", "99",
                 "--out", str(out_cli)]) == 0
    assert out_cfg.read_bytes() == out_cli.read_bytes()
    # --config=FILE, and --config after the subcommand, read the same file
    for argv in (["--config=" + str(config), "generate"],
                 ["generate", "--config", str(config)]):
        out = tmp_path / "again.jsonl"
        assert main([*argv, "--utility", "grep", "--out", str(out)]) == 0
        assert out.read_bytes() == out_cli.read_bytes()

    # explicit flags win over the config file
    out_flag = tmp_path / "flag.jsonl"
    assert main(["--config", str(config), "generate", "--utility", "grep",
                 "--limit", "2", "--out", str(out_flag)]) == 0
    assert len(D.read_templates(out_flag)) == 2


def test_main_builds_one_parser(tmp_path, monkeypatch):
    # The manifest's overrides come from the defaults the one parser
    # recorded before --config applied, not from a second parser.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limit": 2, "piped": False}))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build(*a))
    out = tmp_path / "t.jsonl"
    assert main(["--config", str(config), "generate", "--utility", "ls",
                 "--out", str(out)]) == 0
    assert len(built) == 1
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["overrides"] == {"utility": ["ls"], "limit": 2}


def test_config_unknown_keys_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"parser_form": False, "no_such_key": 1}))
    out = tmp_path / "t.jsonl"
    code = main(["--config", str(config), "generate", "--utility", "cd",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "no_such_key" in err and "parser_form" in err
    assert not out.exists()
    assert not (tmp_path / "t.jsonl.manifest.json").exists()


def test_manifest_overrides_are_config_keys(tmp_path):
    # A manifest's overrides, given back as a config, is accepted and gives
    # the same overrides. Only parsing happens: nothing executes.
    files = ["--in", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "r.jsonl")]
    args = cli.build_parser().parse_args(["validate", *files, "--exec", "--jobs", "2"])
    overrides = cli._manifest(args)["overrides"]
    assert overrides == {"exec": True, "jobs": 2}
    again = cli.build_parser(overrides).parse_args(["validate", *files])
    assert cli._manifest(again)["overrides"] == overrides


def test_run_opens_no_shipped_data_file_its_manifest_leaves_out(tmp_path):
    # Every file under the package's data/ that a run opens is one of the
    # manifest's inputs. The audit hook cannot be removed, so it runs in a
    # child interpreter, installed before bashsynth is imported.
    templates, out = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
    assert main(["generate", "--utility", "find", "--utility", "ls", "--piped",
                 "--limit", "60", "--head-limit", "6", "--tail-limit", "6",
                 "--out", str(templates)]) == 0
    code = f"""
import json, os, sys
opened = set()
def hook(event, args):
    if event == "open" and not isinstance(args[0], int):
        path = os.path.realpath(os.fsdecode(args[0]))
        if "/bashsynth/data/" in path.replace(os.sep, "/"):
            opened.add(path)
sys.addaudithook(hook)
from bashsynth import cli
assert cli.main(["scale", "--in", {str(templates)!r}, "--out", {str(out)!r}]) == 0
print(json.dumps(sorted(opened)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(bash_ast.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    opened = json.loads(child.stdout.splitlines()[-1])
    assert opened, "the run read no shipped file: the hook saw nothing"
    manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
    inputs = {os.path.realpath(path) for path in manifest["inputs"]}
    assert [path for path in opened if path not in inputs] == []


def test_config_keys_are_flag_names(tmp_path, capsys):
    templates = tmp_path / "t.jsonl"
    assert main(["generate", "--utility", "cd", "--out", str(templates)]) == 0
    config = tmp_path / "config.json"
    # --in, not its destination infile, and --exec, whose destination is
    # its name; a config value also stands in for a required option
    config.write_text(json.dumps({"in": str(templates), "exec": False, "timeout": 1}))
    count = len(D.read_templates(templates))
    capsys.readouterr()
    assert main(["--config", str(config), "stats"]) == 0
    assert f"total: {count}\n" in capsys.readouterr().out
    out = tmp_path / "r.jsonl"
    assert main(["--config", str(config), "validate", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == count


@pytest.mark.parametrize("key, value, want", [
    ("piped", "no", "true or false"),
    ("limit", [1], "an integer"),
    ("limit", True, "an integer"),
    ("seed", 1.5, "an integer"),
    ("timeout", "1", "a number"),
    ("utility", "ls", "a list of strings"),
    ("format", "xml", "one of text, json"),
    ("specs", 3, "a string"),
])
def test_config_value_must_have_its_option_type(tmp_path, capsys, key, value, want):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "t.jsonl"
    code = main(["--config", str(config), "generate", "--utility", "ls",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: config: {key!r} must be {want}, not {value!r}\n")
    assert not out.exists()


def test_os_errors_exit_with_one_line(tmp_path, capsys):
    directory = tmp_path / "d"
    directory.mkdir()
    assert main(["stats", "--in", str(directory)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["--config", str(directory), "stats", "--in", str(directory)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_option_is_read_by_its_handler():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        if "_make_session(" in source:
            source += inspect.getsource(cli._make_session)
        unread += [f"{name} {action.option_strings[-1]}" for action in sub._actions
                   if action.dest != "help"
                   and not re.search(rf"\bargs\.{action.dest}\b", source)]
    assert unread == []
