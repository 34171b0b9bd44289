from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bashsynth import bash_ast
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
    assert "no fixture values for argument kind '_" in capsys.readouterr().err


@pytest.mark.parametrize("stage, flag, text", [
    ("validate", "--fixtures", '{"File": "temp.txt"}'),
    ("validate", "--sandbox-manifest", '{"dirs": "abc"}'),
    ("scale", "--profile", "[1]"),
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


def test_validate_exec_refuses_foreign_workspace(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(EXEC_OPT_IN_ENV, "1")
    templates = tmp_path / "templates.jsonl"
    main(["generate", "--utility", "ls", "--limit", "2", "--out", str(templates)])
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / "notes.txt").write_text("keep me")
    code = main(["validate", "--in", str(templates), "--out", str(tmp_path / "r.jsonl"),
                 "--exec", "--workspace", str(workspace)])
    assert code == 1
    assert "not a bashsynth workspace" in capsys.readouterr().err
    assert (workspace / "notes.txt").read_text() == "keep me"


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


def test_generate_piped_bytes_pinned(tmp_path):
    """Every utility and pipe pair of the shipped KB, 8 tail templates each."""
    out = tmp_path / "t.jsonl"
    assert main(
        ["generate", "--piped", "--tail-limit", "8", "--seed", "3", "--out", str(out)]
    ) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 27210
    assert hashlib.sha256(data).hexdigest() == (
        "dedebfa4442973ddc8183accafe5de0bc6bbe5a35c5e352c9e045a1e74d2134a"
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


def test_import_man_subcommand(tmp_path):
    man = tmp_path / "cp.txt"
    man.write_text("OPTIONS\n  -r, --recursive\n      copy directories recursively\n")
    out = tmp_path / "cp.yaml"
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

    # explicit flags win over the config file
    out_flag = tmp_path / "flag.jsonl"
    assert main(["--config", str(config), "generate", "--utility", "grep",
                 "--limit", "2", "--out", str(out_flag)]) == 0
    assert len(D.read_templates(out_flag)) == 2


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
