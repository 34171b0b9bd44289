"""Command-line front end wiring the pipeline stages.

Each subcommand reads and writes the line-delimited formats from
dataset_io, so stages compose: generate -> validate -> scale ->
backtranslate -> split -> score/stats. Every output file gets a sibling
``<name>.manifest.json`` recording how it was produced.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _parse_record(path: str, number: int, cmd: str, hints) -> bash_ast.BashAst:
    """Parse the ``cmd`` of record ``number`` (from 1) of ``path``; a parse
    error names the file and the record."""
    try:
        return bash_ast.parse(cmd, hints)
    except bash_ast.ParseError as exc:
        raise bash_ast.ParseError(f"{path}: record {number}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    kb = syntax_kb.SyntaxKb.load(args.specs)
    names = args.utility or list(kb.utilities)
    commands: list[dataset_io.TemplateEntry] = []
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
    if args.exec_ and os.environ.get(EXEC_OPT_IN_ENV) != "1":
        print(
            "refusing to execute commands: set "
            f"{EXEC_OPT_IN_ENV}=1 to confirm you understand that generated "
            "commands run on this machine (isolated workspace, deny-list, "
            f"{validator.DEFAULT_TIMEOUT_SECONDS}s timeout)",
            file=sys.stderr,
        )
        return 2

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
        backend="subprocess" if args.exec_ else "dry_run",
        allow_execution=args.exec_,
        manifest=manifest,
        jobs=args.jobs,
    )
    results = validator.run_batch(concrete, config)

    # one line per result: its fields in order, wall time rounded
    dataset_io.write_lines(
        ({**vars(r), "wall_time": round(r.wall_time, 4)} for r in results), args.out
    )
    _write_manifest(Path(args.out), "validate", args)

    if args.survivors:
        dataset_io.write_templates(
            (e for e, r in zip(entries, results) if r.verdict), args.survivors
        )
        _write_manifest(Path(args.survivors), "validate", args)

    rate = sum(r.verdict for r in results) / len(results) if results else 0.0
    label = "validity" if args.exec_ else "parse"
    print(f"{label} rate: {rate:.1%} over {len(results)} commands")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    entries = dataset_io.read_templates(args.infile)
    profile = scaler_mod.load_profile(args.profile or scaler_mod.default_profile_path())
    try:
        scaled = scaler_mod.scale(
            entries, profile, seed=args.seed, tolerance=args.tolerance
        )
    except scaler_mod.InfeasibleProfile as exc:
        print(f"error: infeasible profile: {exc}", file=sys.stderr)
        return 1
    # The scaler reads heads from metadata (or the bracket text, which
    # parses to the same heads), so only the kept templates are rewritten.
    dataset_io.write_templates(
        (dataclasses.replace(e, cmd=syntax_kb.to_parser_template(e.cmd)) for e in scaled),
        args.out,
    )
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
    elif not args.endpoint:
        print("error: --endpoint or --replay is required", file=sys.stderr)
        raise SystemExit(2)
    return llm_bridge.LlmSession(config, transport, log_path=args.audit_log)


def cmd_backtranslate(args: argparse.Namespace) -> int:
    session = _make_session(args)
    entries = dataset_io.read_templates(args.infile)
    records = session.backtranslate_records([e.cmd for e in entries], args.out)
    _write_manifest(Path(args.out), "backtranslate", args)
    print(f"backtranslated {len(records)} commands")
    return 0


def cmd_llm_pipeline(args: argparse.Namespace) -> int:
    session = _make_session(args)
    records = session.pipeline(args.n, out_path=args.out)
    _write_manifest(Path(args.out), "llm-pipeline", args)
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
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    refs = dataset_io.read_records(args.ref)

    preds = dataset_io.read_predictions(args.pred)
    if len(refs) != len(preds):
        print(
            f"error: {len(refs)} reference records vs {len(preds)} predictions",
            file=sys.stderr,
        )
        return 1

    pairs = [
        metrics.score_pair(_parse_record(args.ref, n, ref.cmd, hints), candidates, hints)
        for n, (ref, candidates) in enumerate(zip(refs, preds), 1)
    ]

    accuracy = metrics.dataset_accuracy(pairs)
    if args.format == "json":
        print(json.dumps({"accuracy_pct": accuracy, "pairs": len(pairs)}))
    else:
        print(f"{accuracy:.2f}%")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    report = dataset_io.stats(dataset_io.read_commands(args.infile), hints)
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
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    out = [
        dataclasses.replace(r, cmd=bash_ast.render(
            bash_ast.templatize(_parse_record(args.infile, n, r.cmd, hints))
        ))
        for n, r in enumerate(dataset_io.read_records(args.infile), 1)
    ]
    dataset_io.write_records(out, args.out)
    _write_manifest(Path(args.out), "templatize", args)
    print(f"templatized {len(out)} records")
    return 0


def cmd_fill(args: argparse.Namespace) -> int:
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    records = dataset_io.read_records(args.infile)
    filled_records = []
    total_unfilled = 0
    for n, record in enumerate(records, 1):
        ast = _parse_record(args.infile, n, record.cmd, hints)
        values = nl_prep.extract_params(record.nl)
        filled, unfilled = bash_ast.fill(ast, values)
        total_unfilled += unfilled
        filled_records.append(dataclasses.replace(record, cmd=filled))
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
        "(dashes as underscores) and act as defaults; explicit flags win, and "
        "a key no subcommand defines is an error. "
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
        p.add_argument("--replay", default=None,
                       help="serve replies from an exchange log (offline)")
        p.add_argument("--audit-log", default=None,
                       help="append every exchange to this log as it happens")

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

    p = sub.add_parser("stats", help="corpus statistics of records or templates")
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

    known = {a.dest for p in sub.choices.values() for a in p._actions}
    unknown = sorted(set(config_defaults) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
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
        parser = build_parser(config)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
