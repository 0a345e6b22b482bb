"""Command-line interface: localize, trace, sbfl, bench, sweep."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bench, tracing
from .errors import MiniImpSyntaxError, NoFailingTests, SemflError
from .lang import parse
from .lang.ast import is_test
from .pipeline import RunConfig, localize, traced_function_set
from .ranking import DSTAR, OCHIAI, export_combine_scores, method_level, sbfl_report

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_FAILING = 2
EXIT_SYNTAX = 3

# Paper-default p0 sweeps: moderate (boolean-range) and low (wide-range).
SWEEP_MODERATE = (0.3, 0.4, 0.5, 0.6, 0.7)
SWEEP_LOW = (0.001, 0.005, 0.01, 0.05, 0.1)

CONFIG_FIELDS = frozenset(f.name for f in fields(RunConfig))


def add_config_args(p: argparse.ArgumentParser, names=CONFIG_FIELDS):
    """One flag per `RunConfig` field in `names`, the fields the command
    reads, named, documented and defaulted by the field. A bool field is
    a stage on by default, and its flag turns it off."""
    g = p.add_argument_group("pipeline configuration")
    for f in fields(RunConfig):
        if f.name not in names:
            continue
        flag, help = f.metadata["flag"], f.metadata["help"]
        if isinstance(f.default, bool):
            g.add_argument(flag, dest=f.name, action="store_false", help=help)
        else:
            g.add_argument(flag, dest=f.name, type=type(f.default),
                           default=f.default, help=help)


def config_from_args(args) -> RunConfig:
    """The flags' configuration; a field without a flag keeps its default."""
    cfg = RunConfig(**{name: value for name, value in vars(args).items()
                       if name in CONFIG_FIELDS})
    cfg.validate()
    return cfg


def _load_program(path):
    text = Path(path).read_text()
    return parse(text, str(path))


def _write(out_dir, name, text):
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def cmd_localize(args) -> int:
    program = _load_program(args.program)
    cfg = config_from_args(args)
    res = localize(program, cfg)
    print(res.report.to_table(), end="")
    methods = method_level(res.report)
    combine = export_combine_scores(res.report)
    _write(args.out, "report.json", res.report.to_json())
    _write(args.out, "report.txt", res.report.to_table())
    _write(args.out, "methods.json", json.dumps(
        [{"function": f, "score": round(s, 12)} for f, s in methods],
        indent=2) + "\n")
    _write(args.out, "combine.json", json.dumps(
        [{"id": sid, "suspiciousness": round(s, 12)} for sid, s in combine],
        indent=2) + "\n")
    # timings and logs are diagnostics, kept out of the deterministic reports
    _write(args.out, "timings.txt", "".join(
        f"{k}: {v:.6f}s\n" for k, v in res.timings.items()))
    _write(args.out, "log.txt", "".join(line + "\n" for line in res.log))
    return EXIT_OK


def cmd_trace(args) -> int:
    program = _load_program(args.program)
    cfg = config_from_args(args)
    prof = tracing.profile(program, step_budget=cfg.step_budget)
    if args.test not in prof.tests:
        raise SemflError(f"unknown test {args.test!r}")
    traced = traced_function_set(prof)
    if not traced:
        traced = frozenset(f for f in prof.tests[args.test].functions
                           if not is_test(f))
    tr = tracing.trace(program, args.test, traced,
                       step_budget=cfg.step_budget)
    text = tracing.dump_trace(tr, program)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_sbfl(args) -> int:
    program = _load_program(args.program)
    cfg = config_from_args(args)
    prof = tracing.profile(program, step_budget=cfg.step_budget)
    if prof.num_failing == 0:
        raise NoFailingTests("no failing tests")
    formula = OCHIAI if args.formula == "ochiai" else DSTAR
    report = sbfl_report(prof, formula, program)
    print(report.to_table(), end="")
    if args.out:
        _write(args.out, f"sbfl_{args.formula}.json", report.to_json())
    return EXIT_OK


# (name, RunConfig overrides): loop compression off, each switch marked as
# an ablation off, then test reduction off
ABLATIONS = (("no-loop-compression", {"loop_period": 0}),) + tuple(
    (f.metadata["flag"].removeprefix("--"), {f.name: False})
    for f in fields(RunConfig) if f.metadata.get("ablation")) + (
    ("no-test-reduction", {"max_passing_tests": None}),)


def _check_distinct(flag, values):
    """Reject a value listed twice, whose cases would run and count twice."""
    for i, value in enumerate(values or ()):
        if value in values[:i]:
            raise ValueError(f"{flag} lists {value!r} more than once")


def _run_corpus(args, base: RunConfig, configs, name) -> int:
    """Seed the corpus mutants, run each (name, config) of `configs` on
    them, print the table and write `<name>.json` and `<name>.txt`."""
    if args.per_program < 1:
        raise ValueError(
            f"per_program must be at least 1, got {args.per_program}")
    _check_distinct("--programs", args.programs)
    seeds = bench.corpus_seeds(args.per_program, args.seed, args.programs,
                               step_budget=base.step_budget)
    results = bench.run_benchmark(seeds, configs)
    table = bench.format_results(results)
    print(table, end="")
    if args.out:
        _write(args.out, f"{name}.json", bench.results_to_json(results))
        _write(args.out, f"{name}.txt", table)
    return EXIT_OK


def cmd_bench(args) -> int:
    base = config_from_args(args)
    configs = [("default", base)]
    if args.ablations:
        configs += [(name, replace(base, **overrides))
                    for name, overrides in ABLATIONS]
    return _run_corpus(args, base, configs, "bench")


def cmd_sweep(args) -> int:
    base = config_from_args(args)
    if not args.moderate_values or not args.low_values:
        raise ValueError("the p0 grid is empty: give at least one "
                         "--moderate-values and one --low-values value")
    _check_distinct("--moderate-values", args.moderate_values)
    _check_distinct("--low-values", args.low_values)
    configs = []
    for pm in args.moderate_values:
        for pl in args.low_values:
            cfg = replace(base, p0_moderate=pm, p0_low=pl)
            cfg.validate()  # the whole grid, before any case runs
            configs.append((f"p0m={pm},p0l={pl}", cfg))
    return _run_corpus(args, base, configs, "sweep")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semfl",
        description="Probabilistic fault localization for MiniImp programs.")
    sub = p.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("localize", help="rank statements of a program")
    lp.add_argument("program", help="MiniImp source file")
    lp.add_argument("--out", help="directory for report files")
    add_config_args(lp)
    lp.set_defaults(func=cmd_localize)

    tp = sub.add_parser("trace", help="dump one test's value-level trace")
    tp.add_argument("program")
    tp.add_argument("--test", required=True)
    tp.add_argument("--out", help="trace output file (default stdout)")
    add_config_args(tp, {"step_budget"})
    tp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("sbfl", help="spectrum-based baseline ranking")
    sp.add_argument("program")
    sp.add_argument("--formula", choices=["ochiai", "dstar"], default="ochiai")
    sp.add_argument("--out", help="directory for report files")
    add_config_args(sp, {"step_budget"})
    sp.set_defaults(func=cmd_sbfl)

    bp = sub.add_parser("bench", help="seeded-fault benchmark on the corpus")
    bp.add_argument("--programs", nargs="+", help="corpus subset (default all)")
    bp.add_argument("--per-program", type=int, default=7)
    bp.add_argument("--seed", type=int, default=0,
                    help="seed that draws the mutants")
    bp.add_argument("--ablations", action="store_true",
                    help="also run one configuration per ablation: "
                         + ", ".join(name for name, _ in ABLATIONS))
    bp.add_argument("--out", help="directory for result files")
    add_config_args(bp)
    bp.set_defaults(func=cmd_bench)

    wp = sub.add_parser("sweep", help="p0 grid sweep on the corpus")
    wp.add_argument("--programs", nargs="+")
    wp.add_argument("--per-program", type=int, default=3)
    wp.add_argument("--seed", type=int, default=0,
                    help="seed that draws the mutants")
    wp.add_argument("--moderate-values", type=float, nargs="*",
                    default=list(SWEEP_MODERATE))
    wp.add_argument("--low-values", type=float, nargs="*",
                    default=list(SWEEP_LOW))
    wp.add_argument("--out", help="directory for result files")
    # the grid sets both p0 values of every config
    add_config_args(wp, CONFIG_FIELDS - {"p0_moderate", "p0_low"})
    wp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help or a usage error; its status 2 for
        # the latter would read as EXIT_NO_FAILING
        return EXIT_OK if exc.code == 0 else EXIT_INTERNAL
    try:
        return args.func(args)
    except MiniImpSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except NoFailingTests as exc:
        print(f"no failing tests: {exc}", file=sys.stderr)
        return EXIT_NO_FAILING
    except (SemflError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other failure: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
