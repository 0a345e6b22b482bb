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
from .pipeline import RunConfig, localize, traced_function_set
from .ranking import DSTAR, OCHIAI, export_combine_scores, method_level, sbfl_report

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_FAILING = 2
EXIT_SYNTAX = 3

# Paper-default p0 sweeps: moderate (boolean-range) and low (wide-range).
SWEEP_MODERATE = (0.3, 0.4, 0.5, 0.6, 0.7)
SWEEP_LOW = (0.001, 0.005, 0.01, 0.05, 0.1)


def _switch_value(f):
    """The value a switch's flag gives its field: the field's `const`, or
    else the negation of a bool default. None for a field whose flag takes
    a value."""
    if "const" in f.metadata:
        return f.metadata["const"]
    if isinstance(f.default, bool):
        return not f.default
    return None


def add_config_args(p: argparse.ArgumentParser):
    """One flag per `RunConfig` field, named, documented and defaulted by
    the field."""
    g = p.add_argument_group("pipeline configuration")
    for f in fields(RunConfig):
        flag, help = f.metadata["flag"], f.metadata["help"]
        const = _switch_value(f)
        if const is None:
            g.add_argument(flag, dest=f.name, type=type(f.default),
                           default=f.default, help=help)
        else:
            g.add_argument(flag, dest=f.name, action="store_const",
                           const=const, default=f.default, help=help)


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name)
                       for f in fields(RunConfig)})
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
    methods = method_level(res.report, program)
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
                           if not f.startswith("test_"))
    tr = tracing.trace(program, args.test, traced,
                       step_budget=cfg.step_budget,
                       trace_limit=cfg.trace_limit)
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


# (name, RunConfig overrides): each switch marked as an ablation, as its
# flag sets it
ABLATIONS = tuple(
    (f.metadata["flag"].removeprefix("--"), {f.name: _switch_value(f)})
    for f in fields(RunConfig) if f.metadata.get("ablation"))


def _bench_configs(args, base: RunConfig):
    configs = [("default", base)]
    if args.ablations:
        for name, overrides in ABLATIONS:
            configs.append((name, replace(base, **overrides)))
    return configs


def cmd_bench(args) -> int:
    base = config_from_args(args)
    seeds = bench.corpus_seeds(args.per_program, args.seed, args.programs,
                               step_budget=base.step_budget)
    results = bench.run_benchmark(seeds, _bench_configs(args, base))
    print(bench.format_results(results), end="")
    if args.out:
        _write(args.out, "bench.json", bench.results_to_json(results))
        _write(args.out, "bench.txt", bench.format_results(results))
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = config_from_args(args)
    configs = []
    for pm in args.moderate_values:
        for pl in args.low_values:
            cfg = replace(base, p0_moderate=pm, p0_low=pl)
            cfg.validate()  # the whole grid, before any case runs
            configs.append((f"p0m={pm},p0l={pl}", cfg))
    seeds = bench.corpus_seeds(args.per_program, args.seed, args.programs,
                               step_budget=base.step_budget)
    results = bench.run_benchmark(seeds, configs)
    print(bench.format_results(results), end="")
    if args.out:
        _write(args.out, "sweep.json", bench.results_to_json(results))
        _write(args.out, "sweep.txt", bench.format_results(results))
    return EXIT_OK


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
    add_config_args(tp)
    tp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("sbfl", help="spectrum-based baseline ranking")
    sp.add_argument("program")
    sp.add_argument("--formula", choices=["ochiai", "dstar"], default="ochiai")
    sp.add_argument("--out", help="directory for report files")
    add_config_args(sp)
    sp.set_defaults(func=cmd_sbfl)

    bp = sub.add_parser("bench", help="seeded-fault benchmark on the corpus")
    bp.add_argument("--programs", nargs="*", help="corpus subset (default all)")
    bp.add_argument("--per-program", type=int, default=7)
    bp.add_argument("--seed", type=int, default=0,
                    help="seed that draws the mutants")
    bp.add_argument("--ablations", action="store_true",
                    help="also run the six ablation configurations")
    bp.add_argument("--out", help="directory for result files")
    add_config_args(bp)
    bp.set_defaults(func=cmd_bench)

    wp = sub.add_parser("sweep", help="p0 grid sweep on the corpus")
    wp.add_argument("--programs", nargs="*")
    wp.add_argument("--per-program", type=int, default=3)
    wp.add_argument("--seed", type=int, default=0,
                    help="seed that draws the mutants")
    wp.add_argument("--moderate-values", type=float, nargs="*",
                    default=list(SWEEP_MODERATE))
    wp.add_argument("--low-values", type=float, nargs="*",
                    default=list(SWEEP_LOW))
    wp.add_argument("--out", help="directory for result files")
    add_config_args(wp)
    wp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
