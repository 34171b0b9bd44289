"""Command-line front end wiring the pipeline stages.

Each subcommand reads and writes the line-delimited formats from
dataset_io, so stages compose: generate -> validate -> scale ->
backtranslate -> split -> score/stats. Every output file gets a sibling
``<name>.manifest.json`` recording how it was produced.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import bash_ast, dataset_io, generator, llm_bridge, metrics, nl_prep
from . import scaler as scaler_mod
from . import syntax_kb, validator

EXEC_OPT_IN_ENV = "BASHSYNTH_ALLOW_EXEC"


_INPUT_ARGS = ("infile", "ref", "pred", "man", "replay", "specs", "profile",
               "fixtures", "sandbox_manifest")


def _write_manifest(out_path: Path, subcommand: str, args: argparse.Namespace) -> None:
    overrides = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    }
    inputs = [
        str(getattr(args, name))
        for name in _INPUT_ARGS
        if getattr(args, name, None) is not None
    ]
    manifest = {
        "subcommand": subcommand,
        "inputs": inputs,
        "output": str(out_path),
        "seed": getattr(args, "seed", None),
        "overrides": overrides,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _load_kb(path: str | None) -> syntax_kb.SyntaxKb:
    return syntax_kb.SyntaxKb.load(path)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    kb = _load_kb(args.specs)
    names = args.utility or list(kb.utilities)
    commands: list[generator.GeneratedCommand] = []
    for name in names:
        spec = kb.get(name)
        if spec is None:
            print(f"error: unknown utility {name!r}", file=sys.stderr)
            return 2
        commands.extend(generator.generate_unpiped(spec, args.limit, args.seed))
        if args.piped:
            for successor in spec.pipe_successors:
                tail = kb.get(successor)
                if tail is None:
                    continue
                commands.extend(
                    generator.generate_piped(
                        spec, tail, args.head_limit, args.tail_limit, args.seed
                    )
                )
    result = generator.dedup(commands)
    dataset_io.write_templates(result.commands, args.out)
    _write_manifest(Path(args.out), "generate", args)
    print(f"wrote {len(result.commands)} templates to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if args.exec_:
        if os.environ.get(EXEC_OPT_IN_ENV) != "1":
            print(
                "refusing to execute commands: set "
                f"{EXEC_OPT_IN_ENV}=1 to confirm you understand that generated "
                "commands run on this machine (isolated workspace, deny-list, "
                f"{validator.DEFAULT_TIMEOUT_SECONDS}s timeout)",
                file=sys.stderr,
            )
            return 2
        backend = "subprocess"
    else:
        backend = "dry_run"

    entries = dataset_io.read_templates(args.infile)
    fixtures = validator.load_fixture_values(args.fixtures)
    manifest = validator.load_manifest(args.sandbox_manifest)

    concrete = []
    for entry in entries:
        try:
            concrete.append(validator.instantiate(entry.cmd, fixtures))
        except validator.MissingFixture as exc:
            print(f"error: {entry.id}: {exc}", file=sys.stderr)
            return 1

    config = validator.SandboxConfig(
        workspace=Path(args.workspace),
        timeout=args.timeout,
        backend=backend,
        allow_execution=args.exec_,
        manifest=manifest,
        jobs=args.jobs,
    )
    results = validator.run_batch(concrete, config)

    lines = [
        json.dumps(
            {
                "command": r.command,
                "exit_status": r.exit_status,
                "wall_time": round(r.wall_time, 4),
                "verdict": r.verdict,
            }
        )
        for r in results
    ]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(Path(args.out), "validate", args)

    if args.survivors:
        keep = [e for e, r in zip(entries, results) if r.verdict]
        dataset_io.write_templates(keep, args.survivors)
        _write_manifest(Path(args.survivors), "validate", args)

    table = validator.validity_rate(results)
    print(f"validity rate: {table.overall:.1%} over {len(results)} commands")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    entries = dataset_io.read_templates(args.infile)
    entries = [
        dataset_io.TemplateEntry(
            id=e.id,
            cmd=syntax_kb.to_parser_template(e.cmd),
            utilities=e.utilities,
            flags=e.flags,
            pipe_partner=e.pipe_partner,
        )
        for e in entries
    ]
    profile = scaler_mod.load_profile(args.profile or scaler_mod.default_profile_path())
    try:
        scaled = scaler_mod.scale(
            entries, profile, seed=args.seed, tolerance=args.tolerance
        )
    except scaler_mod.InfeasibleProfile as exc:
        print(f"error: infeasible profile: {exc}", file=sys.stderr)
        return 1
    dataset_io.write_templates(scaled, args.out)
    _write_manifest(Path(args.out), "scale", args)
    print(f"kept {len(scaled)} of {len(entries)} templates")
    return 0


def _make_session(args: argparse.Namespace) -> llm_bridge.LlmSession:
    config = llm_bridge.LlmConfig(
        endpoint=args.endpoint or "",
        model=args.model,
        requests_per_minute=args.rpm,
    )
    transport = None
    if args.replay:
        transport = llm_bridge.ReplayTransport(args.replay)
    elif args.record:
        transport = llm_bridge.RecordingTransport(
            llm_bridge.HttpTransport(config), args.record
        )
    elif not args.endpoint:
        print("error: --endpoint or --replay is required", file=sys.stderr)
        raise SystemExit(2)
    return llm_bridge.LlmSession(config, transport)


def cmd_backtranslate(args: argparse.Namespace) -> int:
    session = _make_session(args)
    entries = dataset_io.read_templates(args.infile)
    records = []
    for entry in entries:
        records.append(
            dataset_io.DatasetRecord(
                nl=session.backtranslate(entry.cmd), cmd=entry.cmd, source="llm"
            )
        )
    dataset_io.write_records(records, args.out)
    _write_manifest(Path(args.out), "backtranslate", args)
    if args.audit_log:
        session.write_audit(args.audit_log)
    print(f"backtranslated {len(records)} commands")
    return 0


def cmd_llm_pipeline(args: argparse.Namespace) -> int:
    session = _make_session(args)
    records = session.pipeline(args.n, out_path=args.out)
    _write_manifest(Path(args.out), "llm-pipeline", args)
    if args.audit_log:
        session.write_audit(args.audit_log)
    print(f"pipeline produced {len(records)} records from {args.n} prompts")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    records = dataset_io.read_records(args.infile)
    train, test = dataset_io.split_records(records, args.fraction, args.seed)
    dataset_io.write_records(train, args.train)
    dataset_io.write_records(test, args.test)
    _write_manifest(Path(args.train), "split", args)
    _write_manifest(Path(args.test), "split", args)
    print(f"split {len(records)} records into {len(train)} train / {len(test)} test")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    kb = _load_kb(args.specs)
    hints = kb.parser_hints()
    refs = dataset_io.read_records(args.ref)

    pred_lines = Path(args.pred).read_text(encoding="utf-8").split("\n")
    preds = [json.loads(line) for line in pred_lines if line.strip()]
    if len(refs) != len(preds):
        print(
            f"error: {len(refs)} reference records vs {len(preds)} predictions",
            file=sys.stderr,
        )
        return 1

    pairs = []
    for ref, pred in zip(refs, preds):
        if "candidates" in pred:
            candidates = [
                (c["cmd"], float(c.get("confidence", 1.0)))
                for c in pred["candidates"]
            ]
        else:
            candidates = [(str(pred["cmd"]), 1.0)]
        pairs.append(metrics.score_pair(ref.cmd, candidates, hints))

    accuracy = metrics.dataset_accuracy(pairs)
    if args.format == "json":
        print(json.dumps({"accuracy_pct": accuracy, "pairs": len(pairs)}))
    else:
        print(f"{accuracy:.2f}%")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    kb = _load_kb(args.specs)
    records = dataset_io.read_records(args.infile)
    report = dataset_io.stats(records, kb.parser_hints())
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        d = report.as_dict()
        for key in ("total", "parseable", "unparseable", "piped", "distinct_utilities"):
            print(f"{key}: {d[key]}")
        for utility, count in list(report.utility_counts.items())[:20]:
            print(f"  {utility}: {count}")
    return 0


def cmd_templatize(args: argparse.Namespace) -> int:
    kb = _load_kb(args.specs)
    hints = kb.parser_hints()
    records = dataset_io.read_records(args.infile)
    out = []
    for record in records:
        ast = bash_ast.parse(record.cmd, hints)
        out.append(
            dataset_io.DatasetRecord(
                nl=record.nl,
                cmd=bash_ast.render(bash_ast.templatize(ast)),
                source=record.source,
                valid=record.valid,
            )
        )
    dataset_io.write_records(out, args.out)
    _write_manifest(Path(args.out), "templatize", args)
    print(f"templatized {len(out)} records")
    return 0


def cmd_fill(args: argparse.Namespace) -> int:
    kb = _load_kb(args.specs)
    hints = kb.parser_hints()
    records = dataset_io.read_records(args.infile)
    filled_records = []
    total_unfilled = 0
    for record in records:
        ast = bash_ast.parse(record.cmd, hints)
        values = nl_prep.extract_params(record.nl)
        filled, unfilled = bash_ast.fill(ast, values)
        total_unfilled += unfilled
        filled_records.append(
            dataset_io.DatasetRecord(
                nl=record.nl, cmd=filled, source=record.source, valid=record.valid
            )
        )
    dataset_io.write_records(filled_records, args.out)
    _write_manifest(Path(args.out), "fill", args)
    print(f"filled {len(filled_records)} records, {total_unfilled} placeholders left")
    return 0


def cmd_import_man(args: argparse.Namespace) -> int:
    text = Path(args.man).read_text(encoding="utf-8")
    try:
        spec = syntax_kb.import_manpage(text, args.utility)
    except syntax_kb.ManpageImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    syntax_kb.save_specs([spec], args.out)
    _write_manifest(Path(args.out), "import-man", args)
    review = " (needs review)" if spec.needs_review else ""
    print(f"imported {len(spec.flags)} flags for {spec.name}{review}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bashsynth",
        description="Synthesize, validate, scale, and score Bash command datasets.",
        epilog="--config FILE loads a JSON object whose keys mirror flag names "
        "(dashes as underscores) and act as defaults; explicit flags win. "
        "Secrets come from the environment, never from flags or config.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    config_defaults = {
        key.replace("-", "_"): value
        for key, value in (config or {}).items()
        if key not in ("func", "subcommand")
    }

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--specs", default=None, help="utility spec file or directory")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="enumerate command templates from specs")
    add_common(p)
    p.add_argument("--utility", action="append", help="limit to this utility (repeatable)")
    p.add_argument("--limit", type=int, default=None, help="templates per utility")
    p.add_argument("--piped", action="store_true", help="also generate pipe combinations")
    p.add_argument("--head-limit", type=int, default=None)
    p.add_argument("--tail-limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="instantiate templates and check execution")
    add_common(p, seed=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--survivors", default=None, help="write valid templates here")
    p.add_argument("--exec", dest="exec_", action="store_true",
                   help=f"really execute (requires {EXEC_OPT_IN_ENV}=1)")
    p.add_argument("--workspace", default=".bashsynth_sandbox")
    p.add_argument("--timeout", type=float, default=validator.DEFAULT_TIMEOUT_SECONDS)
    p.add_argument("--fixtures", default=None, help="fixture values JSON")
    p.add_argument("--sandbox-manifest", default=None, help="workspace manifest JSON")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scale", help="match templates to a utility distribution")
    add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile", default=None, help="distribution profile JSON")
    p.add_argument("--tolerance", type=float, default=scaler_mod.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_scale)

    def add_llm(p: argparse.ArgumentParser) -> None:
        p.add_argument("--endpoint", default=None)
        p.add_argument("--model", default="default")
        p.add_argument("--rpm", type=int, default=None, help="requests per minute")
        p.add_argument("--replay", default=None, help="replay log (offline)")
        p.add_argument("--record", default=None, help="record exchanges to this log")
        p.add_argument("--audit-log", default=None)

    p = sub.add_parser("backtranslate", help="describe commands in English via LLM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    add_llm(p)
    p.set_defaults(func=cmd_backtranslate)

    p = sub.add_parser("llm-pipeline", help="generate, filter, and backtranslate via LLM")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    add_llm(p)
    p.set_defaults(func=cmd_llm_pipeline)

    p = sub.add_parser("split", help="seeded train/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("score", help="score predictions against references")
    add_common(p, seed=False)
    p.add_argument("--ref", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="corpus statistics")
    add_common(p, seed=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("templatize", help="replace parameters with placeholders")
    add_common(p, seed=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_templatize)

    p = sub.add_parser("fill", help="fill placeholders from the NL sentence")
    add_common(p, seed=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("import-man", help="draft a utility spec from a man page")
    p.add_argument("--man", required=True, help="manual page plain text file")
    p.add_argument("--utility", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_man)

    # config values become defaults everywhere; applied last so they also
    # rebind the defaults of already-registered options
    if config_defaults:
        for subparser in sub.choices.values():
            subparser.set_defaults(**config_defaults)

    return parser


def _split_config(argv: list[str]) -> tuple[list[str], dict]:
    """Pop --config FILE from argv and load its JSON object."""
    if "--config" not in argv:
        return argv, {}
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValueError("--config requires a file argument")
    data = json.loads(Path(argv[at + 1]).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return argv[:at] + argv[at + 2:], data


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _split_config(argv)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(config)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        bash_ast.ParseError,
        dataset_io.FormatError,
        syntax_kb.SchemaError,
        validator.SandboxSetupError,
        llm_bridge.AuthError,
        llm_bridge.TransportError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
