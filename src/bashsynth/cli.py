"""Command-line front end wiring the pipeline stages.

Each subcommand reads and writes the line-delimited formats from
dataset_io, so stages compose: generate -> validate -> scale ->
backtranslate -> split -> score/stats. A handler does its work, prints
its summary line and returns; :func:`main` alone turns a failure into one
``error:`` line and an exit code (2 for a :class:`UsageError` refusal
before any work, 1 for any other fault) and, after a success, gives every
output file a sibling ``<name>.manifest.json`` recording how it was
produced.
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
               "fixtures", "sandbox_manifest", "config")
_OUTPUT_ARGS = ("out", "survivors", "train", "test")


class UsageError(Exception):
    """The run was refused before any work; :func:`main` exits 2."""


def _manifest(args: argparse.Namespace) -> dict:
    """What every output of the run records; ``output`` is set per file."""
    # A value off its built-in default came from the command line or the config.
    builtin = args.builtin_defaults
    overrides = {k: v for k, v in vars(args).items() if k in builtin and v != builtin[k]}
    inputs = [
        str(getattr(args, name))
        for name in _INPUT_ARGS
        if getattr(args, name, None) is not None
    ]
    return {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "output": None,
        "seed": getattr(args, "seed", None),
        "overrides": overrides,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _parse_record(path: str, number: int, cmd: str, hints) -> bash_ast.BashAst:
    """Parse the ``cmd`` of record ``number`` (from 1) of ``path``; a parse
    error names the file and the record."""
    try:
        return bash_ast.parse(cmd, hints)
    except bash_ast.ParseError as exc:
        raise bash_ast.ParseError(f"{path}: record {number}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args: argparse.Namespace) -> None:
    kb = syntax_kb.SyntaxKb.load(args.specs)
    names = dict.fromkeys(args.utility or kb.utilities)
    unknown = [name for name in names if kb.get(name) is None]
    if unknown:
        raise UsageError(f"unknown utility {unknown[0]!r}")
    # refused here, as the output is written while the templates are made
    for option in ("limit", "head_limit", "tail_limit"):
        value = getattr(args, option)
        if value is not None and value < 0:
            raise UsageError(f"--{option.replace('_', '-')} must be >= 0, not {value}")

    def batches():
        for spec in map(kb.get, names):
            yield generator.generate_unpiped(spec, args.limit, args.seed)
            if args.piped:
                for tail in map(kb.get, spec.pipe_successors):
                    yield generator.generate_piped(
                        spec, tail, args.head_limit, args.tail_limit, args.seed
                    )

    count = 0

    def templates():
        # A KB's specs make distinct templates, so each batch is written as
        # it is made and only its length is kept.
        nonlocal count
        for batch in batches():
            count += len(batch)
            yield from batch
            del batch  # freed before the next one is made

    dataset_io.write_templates(templates(), args.out)
    print(f"wrote {count} templates to {args.out}")


def cmd_validate(args: argparse.Namespace) -> None:
    if args.exec and os.environ.get(EXEC_OPT_IN_ENV) != "1":
        raise UsageError(
            "refusing to execute commands: set "
            f"{EXEC_OPT_IN_ENV}=1 to confirm you understand that generated "
            "commands run on this machine (isolated workspace, deny-list, "
            f"{validator.DEFAULT_TIMEOUT_SECONDS}s timeout)"
        )

    fixtures = validator.load_fixture_values(args.fixtures)
    config = validator.SandboxConfig(
        workspace=Path(args.workspace),
        timeout=args.timeout,
        backend="subprocess" if args.exec else "dry_run",
        allow_execution=args.exec,
        manifest=validator.load_manifest(args.sandbox_manifest),
        jobs=args.jobs,
    )

    entries = dataset_io.read_templates(args.infile)
    concrete = []
    for entry in entries:
        try:
            concrete.append(validator.instantiate(entry.cmd, fixtures))
        except validator.MissingFixture as exc:
            raise ValueError(f"{entry.id}: {exc}") from None

    results = validator.run_batch(concrete, config)

    # one line per result: its fields in order, wall time rounded
    dataset_io.write_lines(
        ({**r.as_dict(), "wall_time": round(r.wall_time, 4)} for r in results), args.out
    )
    if args.survivors:
        dataset_io.write_templates(
            (e for e, r in zip(entries, results) if r.verdict), args.survivors
        )

    rate = sum(r.verdict for r in results) / len(results) if results else 0.0
    label = "validity" if args.exec else "parse"
    print(f"{label} rate: {rate:.1%} over {len(results)} commands")


def cmd_scale(args: argparse.Namespace) -> None:
    entries = dataset_io.read_templates(args.infile)
    profile = scaler_mod.load_profile(args.profile)
    try:
        scaled = scaler_mod.scale(
            entries, profile, seed=args.seed, tolerance=args.tolerance
        )
    except scaler_mod.InfeasibleProfile as exc:
        raise scaler_mod.InfeasibleProfile(f"infeasible profile: {exc}") from None
    # The scaler reads heads from metadata (or the bracket text, which
    # parses to the same heads), so only the kept templates are rewritten.
    dataset_io.write_templates(
        (dataclasses.replace(e, cmd=syntax_kb.to_parser_template(e.cmd)) for e in scaled),
        args.out,
    )
    print(f"kept {len(scaled)} of {len(entries)} templates")


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
        raise UsageError("--endpoint or --replay is required")
    return llm_bridge.LlmSession(config, transport, log_path=args.audit_log)


def cmd_backtranslate(args: argparse.Namespace) -> None:
    session = _make_session(args)
    entries = dataset_io.read_templates(args.infile)
    records = session.backtranslate_records([e.cmd for e in entries], args.out)
    print(f"backtranslated {len(records)} commands")


def cmd_llm_pipeline(args: argparse.Namespace) -> None:
    session = _make_session(args)
    records = session.pipeline(args.n, out_path=args.out)
    print(f"pipeline produced {len(records)} records from {args.n} prompts")


def cmd_split(args: argparse.Namespace) -> None:
    records = dataset_io.read_records(args.infile)
    train, test = dataset_io.split_records(records, args.fraction, args.seed)
    dataset_io.write_records(train, args.train)
    dataset_io.write_records(test, args.test)
    print(f"split {len(records)} records into {len(train)} train / {len(test)} test")


def cmd_score(args: argparse.Namespace) -> None:
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    refs = dataset_io.read_records(args.ref)

    preds = dataset_io.read_predictions(args.pred)
    if len(refs) != len(preds):
        raise ValueError(f"{len(refs)} reference records vs {len(preds)} predictions")

    pairs = [
        metrics.score_pair(_parse_record(args.ref, n, ref.cmd, hints), candidates, hints)
        for n, (ref, candidates) in enumerate(zip(refs, preds), 1)
    ]

    accuracy = metrics.dataset_accuracy(pairs)
    if args.format == "json":
        print(json.dumps({"accuracy_pct": accuracy, "pairs": len(pairs)}))
    else:
        print(f"{accuracy:.2f}%")


def cmd_stats(args: argparse.Namespace) -> None:
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


def cmd_templatize(args: argparse.Namespace) -> None:
    hints = syntax_kb.SyntaxKb.load(args.specs).parser_hints()
    out = [
        dataclasses.replace(r, cmd=bash_ast.render(
            bash_ast.templatize(_parse_record(args.infile, n, r.cmd, hints))
        ))
        for n, r in enumerate(dataset_io.read_records(args.infile), 1)
    ]
    dataset_io.write_records(out, args.out)
    print(f"templatized {len(out)} records")


def cmd_fill(args: argparse.Namespace) -> None:
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
    print(f"filled {len(filled_records)} records, {total_unfilled} placeholders left")


def cmd_import_man(args: argparse.Namespace) -> None:
    text = Path(args.man).read_text(encoding="utf-8")
    spec = syntax_kb.import_manpage(text, args.utility)
    syntax_kb.save_specs([spec], args.out)
    review = " (needs review)" if spec.needs_review else ""
    print(f"imported {len(spec.flags)} flags for {spec.name}{review}")


# ---------------------------------------------------------------------------
# Parser


def _config_type(action: argparse.Action) -> tuple:
    """The ``check_fields`` entry a --config value for ``action`` must pass."""
    if action.nargs == 0:  # a switch
        return (lambda v: isinstance(v, bool)), "true or false", None
    if isinstance(action, argparse._AppendAction):
        return dataset_io.STRINGS
    if action.choices:
        return action.choices.__contains__, f"one of {', '.join(action.choices)}", None
    if action.type is int:
        return (lambda v: type(v) is int), "an integer", None
    if action.type is float:
        return (lambda v: type(v) in (int, float)), "a number", None
    return (lambda v: isinstance(v, str)), "a string", None


class _Parser(argparse.ArgumentParser):
    """Raises a refusal for :func:`main` to print instead of exiting, and
    takes options only as spelled in full, as do the subcommand parsers."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


class _Subparser(_Parser):
    """A subcommand's parser, which refuses the words it does not know
    itself, so the refusal names the subcommand, not ``bashsynth``."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# Read first, as it sets the real parser's defaults; --help lists it there.
_CONFIG_PARSER = _Parser(add_help=False, prog="bashsynth")
_CONFIG_PARSER.add_argument("--config", metavar="FILE", help="option defaults (see below)")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bashsynth", parents=[_CONFIG_PARSER],
        description="Synthesize, validate, scale, and score Bash command datasets.",
        epilog="--config FILE (or --config=FILE, anywhere on the line) loads a "
        "JSON object whose keys are flag names with underscores (--head-limit "
        "as head_limit) and whose values, of the option's type, act as "
        "defaults; explicit flags win, and a key no subcommand defines is an "
        "error. Secrets come from the environment, never from flags or config.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)

    def add_specs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--specs", default=str(syntax_kb.default_specs_path()),
                       help="utility spec file, or a directory of *.json ones "
                            "(default: %(default)s)")

    p = sub.add_parser("generate", help="enumerate command templates from specs")
    add_specs(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utility", action="append", help="limit to this utility (repeatable)")
    p.add_argument("--limit", type=int, default=None, help="templates per utility")
    p.add_argument("--piped", action="store_true", help="also generate pipe combinations")
    p.add_argument("--head-limit", type=int, default=None)
    p.add_argument("--tail-limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="instantiate templates and check execution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--survivors", default=None, help="write valid templates here")
    p.add_argument("--exec", action="store_true",
                   help=f"really execute (requires {EXEC_OPT_IN_ENV}=1)")
    p.add_argument("--workspace", default=".bashsynth_sandbox")
    p.add_argument("--timeout", type=float, default=validator.DEFAULT_TIMEOUT_SECONDS)
    p.add_argument("--fixtures", default=str(validator.DEFAULT_FIXTURES),
                   help="fixture values JSON (default: %(default)s)")
    p.add_argument("--sandbox-manifest", default=str(validator.DEFAULT_MANIFEST),
                   help="workspace manifest JSON (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scale", help="match templates to a utility distribution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default=str(scaler_mod.default_profile_path()),
                   help="distribution profile JSON (default: %(default)s)")
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
    add_specs(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="corpus statistics of records or templates")
    add_specs(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("templatize", help="replace parameters with placeholders")
    add_specs(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_templatize)

    p = sub.add_parser("fill", help="fill placeholders from the NL sentence")
    add_specs(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("import-man", help="draft a utility spec from a man page")
    p.add_argument("--man", required=True, help="manual page plain text file")
    p.add_argument("--utility", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_man)

    # The defaults without --config, for the manifest's overrides; inputs,
    # outputs and the seed have fields of their own there.
    for p in sub.choices.values():
        p.set_defaults(builtin_defaults={a.dest: a.default for a in p._actions if a.dest
                                         not in (*_INPUT_ARGS, *_OUTPUT_ARGS, "seed")})

    # A config key is a flag name spelt with underscores. Its value must have the
    # type of the first option of that name (generate's --utility, a list) and
    # becomes the default of every option of that name it fits, required or not.
    config = config or {}
    options = [(flag[2:].replace("-", "_"), action)
               for p in sub.choices.values() for action in p._actions
               for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"]
    schema: dict[str, tuple] = {}
    for key, action in options:
        schema.setdefault(key, _config_type(action))
    dataset_io.check_object(config, schema, "config")
    for key, action in options:
        if key in config and _config_type(action)[0](config[key]):
            action.default, action.required = config[key], False

    return parser


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        known, argv = _CONFIG_PARSER.parse_known_args(argv)
        config = {} if known.config is None else dataset_io.read_json(Path(known.config))
        # known keeps the --config path for the manifest's inputs
        args = build_parser(config).parse_args(argv, namespace=known)
    except (UsageError, ValueError, OSError) as exc:
        return _error(exc, 2)
    try:
        args.func(args)
    except UsageError as exc:
        return _error(exc, 2)
    except (
        validator.SandboxSetupError,
        llm_bridge.AuthError,
        llm_bridge.TransportError,
        OSError,
        ValueError,
    ) as exc:
        return _error(exc, 1)
    outputs = [name for name in _OUTPUT_ARGS if getattr(args, name, None)]
    manifest = _manifest(args) if outputs else {}
    for name in outputs:
        manifest["output"] = str(Path(getattr(args, name)))
        Path(manifest["output"] + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
