"""Command-line interface tests: exit codes, report files, run-to-run
reproducibility, and one flag per config field."""

import json
import weakref
from dataclasses import fields

import pytest

from semfl import cli
from semfl.cli import (
    EXIT_INTERNAL,
    EXIT_NO_FAILING,
    EXIT_OK,
    EXIT_SYNTAX,
    build_parser,
    config_from_args,
    main,
)
from semfl.lang import parse
from semfl.pipeline import RunConfig, localize
from semfl.tracing import profile, trace

BUGGY = """
fn foo(a) {
    if (a <= 2) {
        a = a + 1;
    }
    return a <= 2;
}

fn test_pass() {
    assert(foo(1));
}

fn test_fail() {
    assert(foo(2));
}
"""

CORRECT = BUGGY.replace("if (a <= 2)", "if (a < 2)").replace(
    "fn test_fail() {\n    assert(foo(2));",
    "fn test_fail() {\n    assert(foo(3) == false);")


@pytest.fixture
def buggy(tmp_path):
    p = tmp_path / "buggy.mi"
    p.write_text(BUGGY)
    return str(p)


def test_localize_writes_reports(buggy, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["localize", buggy, "--out", str(out)]) == EXIT_OK
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("rank")
    assert len(table.splitlines()) == 4  # header + three candidates
    for name in ("report.json", "report.txt", "methods.json",
                 "combine.json", "timings.txt", "log.txt"):
        assert (out / name).exists(), name
    timings = (out / "timings.txt").read_text()
    assert [ln.split(":")[0] for ln in timings.splitlines()] == [
        "profile", "trace", "fold", "budget", "ddg", "net", "lbp", "rank"]
    log = (out / "log.txt").read_text()
    assert "zero-sum normalisations" in log
    assert "belief propagation residuals: " in log
    # the worked example: per test four values and three factors, the
    # assignment's with the most edges (child, statement, a, condition)
    assert ("graph: 3 statements, 8 values, 14 edges, 6 factors, "
            "max factor degree 4") in log.splitlines()
    # no loop, nothing oversized: every reducer keeps all 12 events
    assert ("events: raw 12, after compress 12, after fold 12, "
            "modelled 12") in log.splitlines()
    doc = json.loads((out / "report.json").read_text())
    assert "factors" not in json.dumps(doc["metadata"])
    assert "after compress" not in (out / "report.json").read_text()
    assert len(doc["statements"]) == 3
    assert doc["statements"][0]["rank"] == 1
    combine = json.loads((out / "combine.json").read_text())
    assert combine[0]["suspiciousness"] == 1.0


LOOP = """
fn inc(x) {
    return x + 1;
}

fn sum(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = inc(s);
        i = i + 1;
    }
    return s;
}

fn test_small() {
    assert(sum(2) == 2);
}

fn test_big() {
    assert(sum(40) == 41);
}
"""


@pytest.mark.parametrize("limits, lines", [
    # both traces compress to 14 events; the passing one exceeds the
    # model budget
    (("--trace-limit", "20", "--model-limit", "20"),
     ["events: raw 268, after compress 28, after fold 28, modelled 14"]),
    # the passing trace is dropped as oversized, the failing one folded
    (("--trace-limit", "12", "--model-limit", "20"),
     ["dropped oversized passing traces: ['test_small']",
      "events: raw 268, after compress 14, after fold 6, modelled 6"]),
], ids=lambda v: v[-1] if isinstance(v, list) else None)  # the count line
def test_localize_logs_event_counts(tmp_path, limits, lines):
    p = tmp_path / "loop.mi"
    p.write_text(LOOP)
    out = tmp_path / "out"
    assert main(["localize", str(p), "--out", str(out), *limits]) == EXIT_OK
    log = (out / "log.txt").read_text().splitlines()
    assert all(line in log for line in lines), log


def test_an_oversized_passing_trace_is_freed_before_the_next_runs(
        monkeypatch):
    program = parse(LOOP + "fn test_three() {\n    assert(sum(3) == 3);\n}\n")
    held = []

    def traced(*args, **kwargs):
        assert [ref() for ref in held] == [None] * len(held)
        tr = trace(*args, **kwargs)
        held.append(weakref.ref(tr))
        return tr

    monkeypatch.setattr("semfl.tracing.trace", traced)
    res = localize(program, RunConfig(trace_limit=12, model_limit=20))
    assert len(held) == 2
    assert ("dropped oversized passing traces: ['test_small', 'test_three']"
            in res.log)


WALK = """
fn walk(n) {
    let i = 0;
    while (i != n) {
        i = (i + 2) % 10;
    }
    return i;
}

fn up(n) {
    let i = 0;
    while (i != n) {
        i = i + 1;
    }
    return i;
}

fn test_even() {
    assert(walk(4) == 4);
}

fn test_odd() {
    assert(walk(3) == 3);
}

fn test_below() {
    assert(up(0 - 1) == 0 - 1);
}
"""


def test_localize_logs_tests_stopped_at_a_repeated_loop_state(tmp_path):
    # `walk(3)` cycles through five states; `up(-1)` counts up to its budget
    p = tmp_path / "walk.mi"
    p.write_text(WALK)
    prof = profile(parse(WALK), step_budget=5000)
    odd = prof.tests["test_odd"]
    assert 0 < odd.stopped_at < 5000
    assert prof.tests["test_below"].reason == "timeout"
    out = tmp_path / "out"
    assert main(["localize", str(p), "--out", str(out),
                 "--step-budget", "5000"]) == EXIT_OK
    log = (out / "log.txt").read_text().splitlines()
    assert (f"repeated loop state: 1 timeout tests stopped after "
            f"{odd.stopped_at} steps in all") in log
    assert "stopped" not in (out / "report.json").read_text()


def test_localize_reports_are_reproducible(buggy, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["localize", buggy, "--out", str(a)]) == EXIT_OK
    assert main(["localize", buggy, "--out", str(b)]) == EXIT_OK
    for name in ("report.json", "report.txt", "methods.json", "combine.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_localize_flag_variants_run(buggy, capsys):
    assert main(["localize", buggy, "--no-adaptive-folding",
                 "--loop-period", "0"]) == EXIT_OK
    variant = capsys.readouterr().out
    assert main(["localize", buggy]) == EXIT_OK
    default = capsys.readouterr().out
    assert variant == default  # tiny case: every reducer is a no-op


def test_localize_without_failing_tests(tmp_path):
    p = tmp_path / "ok.mi"
    p.write_text(CORRECT)
    assert main(["localize", str(p)]) == EXIT_NO_FAILING


def test_syntax_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.mi"
    p.write_text("fn f( { return 1; }")
    assert main(["localize", str(p)]) == EXIT_SYNTAX
    assert "syntax error" in capsys.readouterr().err


def test_deep_nesting_is_syntax_error(tmp_path, capsys):
    p = tmp_path / "deep.mi"
    p.write_text("fn f() { return " + "(" * 200 + "1" + ")" * 200 + "; }\n"
                 "fn test_f() { assert(f() == 1); }\n")
    assert main(["localize", str(p)]) == EXIT_SYNTAX
    err = capsys.readouterr().err
    assert err.startswith("syntax error: ") and "nesting deeper than" in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["localize", str(tmp_path / "nope.mi")]) == EXIT_INTERNAL


def test_invalid_config_rejected(buggy, capsys):
    assert main(["localize", buggy, "--p0-low", "0"]) == EXIT_INTERNAL
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--max-passing-tests", "-1", "max_passing_tests"),
    ("--trace-limit", "0", "trace_limit"),
    ("--model-limit", "-5", "model_limit"),
    ("--loop-period", "-1", "loop_period"),
    ("--step-budget", "0", "step_budget"),
    ("--max-iters", "0", "max_iterations"),
    ("--eps", "0", "convergence_eps"),
    ("--eps", "nan", "convergence_eps"),
])
@pytest.mark.parametrize("command", ["localize", "sbfl", "trace"])
def test_out_of_range_limit_rejected(buggy, capsys, command, flag, value,
                                     field):
    argv = [command, buggy, flag, value]
    if command == "trace":
        argv += ["--test", "test_fail"]
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    if field not in COMMAND_FIELDS[command]:
        # trace and sbfl offer only the step budget
        assert f"unrecognized arguments: {flag} {value}" in err
    else:
        assert err.startswith(f"error: {field} must be ")
        assert err.count("\n") == 1


def test_unexpected_exception_is_one_line(buggy, monkeypatch, capsys):
    def broken(program, cfg):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(cli, "localize", broken)
    assert main(["localize", buggy]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: engine exploded\n"


def test_deep_recursion_gives_ranked_report(tmp_path, capsys):
    p = tmp_path / "deep.mi"
    p.write_text("fn f(n) { if (n == 0) { return 0; } return f(n - 1) + 1; }\n"
                 "fn test_deep() { assert(f(150) == 150); }\n")
    assert main(["localize", str(p)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("rank")
    assert captured.err == ""


def test_unbound_variable_gives_ranked_report(tmp_path, capsys):
    p = tmp_path / "unbound.mi"
    p.write_text("fn f(c) { if (c > 0) { let x = 1; } return x; }\n"
                 "fn test_one() { assert(f(1) == 1); }\n"
                 "fn test_zero() { assert(f(0) == 1); }\n")
    out = tmp_path / "out"
    assert main(["localize", str(p), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("rank")
    assert captured.err == ""
    doc = json.loads((out / "report.json").read_text())
    assert doc["statements"][0]["rank"] == 1


BARE_ARGS = {
    "localize": ["localize", "prog.mi"],
    "trace": ["trace", "prog.mi", "--test", "test_x"],
    "sbfl": ["sbfl", "prog.mi"],
    "bench": ["bench"],
    "sweep": ["sweep"],
}

CONFIG_FLAGS = {
    "--max-passing-tests", "--trace-limit", "--model-limit", "--loop-period",
    "--no-adaptive-folding",
    "--no-virtual-call-edges", "--no-exception-control",
    "--max-iters", "--eps",
    "--p0-moderate", "--p0-low", "--prior", "--step-budget",
}
ALL_FIELDS = {f.name for f in fields(RunConfig)}
# the RunConfig fields each command reads, each set by one flag
COMMAND_FIELDS = {
    "localize": ALL_FIELDS,
    "bench": ALL_FIELDS,
    "sweep": ALL_FIELDS - {"p0_moderate", "p0_low"},
    "trace": {"step_budget"},
    "sbfl": {"step_budget"},
}


@pytest.mark.parametrize("command", sorted(BARE_ARGS))
def test_config_flags_match_run_config(command):
    assert len(ALL_FIELDS) == 13
    parser = build_parser()
    args = parser.parse_args(BARE_ARGS[command])
    assert config_from_args(args) == RunConfig()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    actions = commands.choices[command]._actions
    flags = {}
    for f in fields(RunConfig):
        setters = [a for a in actions if a.dest == f.name]
        assert len(setters) == (f.name in COMMAND_FIELDS[command]), f.name
        if setters:
            (flags[f.name],) = setters[0].option_strings
    assert set(flags.values()) <= CONFIG_FLAGS


def test_removed_flags_rejected(capsys):
    # a usage error ends the run before the program is read
    parser = build_parser()
    removed = [("localize", flags) for flags in (
        ["--jobs", "2"], ["--seed", "2"], ["--naive-inference"], ["--exact"],
        ["--exact-cap", "3"], ["--no-loop-compression"],
        ["--no-test-reduction"])]
    removed += [("bench", ["--no-test-reduction"])]
    removed += [("sweep", [flag, "0.5"]) for flag in ("--p0-moderate",
                                                       "--p0-low")]
    removed += [(command, flags) for command in ("trace", "sbfl")
                for flags in (["--loop-period", "1"], ["--prior", "0.9"])]
    for command, flags in removed:
        argv = BARE_ARGS[command] + flags
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        capsys.readouterr()
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
    for command in ("bench", "sweep"):
        assert parser.parse_args([command, "--seed", "3"]).seed == 3


def test_usage_error_is_not_no_failing_tests(buggy, capsys):
    # argparse exits 2 on a usage error, which is EXIT_NO_FAILING's code
    assert main(["localize", buggy, "--bogus"]) == EXIT_INTERNAL
    assert main(["localize"]) == EXIT_INTERNAL
    assert main([]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage: semfl") == 3


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["localize", "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "--max-iters" in captured.out and captured.err == ""


def test_flags_set_their_fields():
    args = build_parser().parse_args([
        "localize", "prog.mi", "--no-virtual-call-edges", "--loop-period",
        "5", "--eps", "0.001", "--prior", "0.25"])
    assert config_from_args(args) == RunConfig(
        virtual_call_edges=False, loop_period=5, convergence_eps=0.001,
        statement_prior=0.25)
    assert [name for name, _ in cli.ABLATIONS] == [
        "no-loop-compression", "no-adaptive-folding",
        "no-virtual-call-edges", "no-exception-control", "no-test-reduction"]
    # loop compression and test reduction are turned off by their limits,
    # not by switches
    assert cli.ABLATIONS[0][1] == {"loop_period": 0}
    assert cli.ABLATIONS[-1][1] == {"max_passing_tests": None}


def test_trace_to_stdout_and_file(buggy, tmp_path, capsys):
    assert main(["trace", buggy, "--test", "test_fail"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "assert_fail" in text
    out = tmp_path / "trace.txt"
    assert main(["trace", buggy, "--test", "test_fail",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == text


def test_trace_unknown_test(buggy, capsys):
    assert main(["trace", buggy, "--test", "test_nope"]) == EXIT_INTERNAL


def test_sbfl_table_and_exit_codes(buggy, tmp_path, capsys):
    for formula in ("ochiai", "dstar"):
        assert main(["sbfl", buggy, "--formula", formula]) == EXIT_OK
        table = capsys.readouterr().out
        assert len(table.splitlines()) == 4
    ok = tmp_path / "ok.mi"
    ok.write_text(CORRECT)
    assert main(["sbfl", str(ok)]) == EXIT_NO_FAILING


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--programs", "intervals", "--per-program", "2",
                 "--step-budget", "20000", "--out", str(out)]) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert "top-1" in header and "top-5" in header
    doc = json.loads((out / "bench.json").read_text())
    assert doc["rows"] and doc["aggregate"]


def test_sweep_smoke(capsys):
    assert main(["sweep", "--programs", "intervals", "--per-program", "1",
                 "--step-budget", "20000",
                 "--moderate-values", "0.5",
                 "--low-values", "0.01", "0.05"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p0m=0.5,p0l=0.01" in out and "p0m=0.5,p0l=0.05" in out


def test_sweep_rejects_an_out_of_range_grid(capsys):
    assert main(["sweep", "--programs", "sorting", "--per-program", "1",
                 "--moderate-values", "0", "--low-values", "0.01"]) \
        == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p0_moderate must be in (0, 1], got 0.0\n"


def _no_seeding(*args, **kwargs):
    raise AssertionError("mutants seeded before the arguments were checked")


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_per_program_below_one_rejected(command, monkeypatch, capsys):
    monkeypatch.setattr(cli.bench, "corpus_seeds", _no_seeding)
    assert main([command, "--programs", "sorting", "--per-program", "0"]) \
        == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: per_program must be at least 1, got 0\n"


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_empty_program_list_is_a_usage_error(command, monkeypatch, capsys):
    # `--programs` with no names would otherwise seed the whole corpus
    monkeypatch.setattr(cli.bench, "corpus_seeds", _no_seeding)
    assert main([command, "--programs"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --programs: expected at least one argument" \
        in captured.err


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_unknown_program_name_rejected(command, monkeypatch, capsys):
    # every name is checked before the valid ones listed first are seeded
    monkeypatch.setattr(cli.bench, "seed_faults", _no_seeding)
    assert main([command, "--programs", "digits", "nosuch"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no corpus program named 'nosuch'\n"


@pytest.mark.parametrize("argv, err", [
    (["bench", "--programs", "digits", "digits"],
     "--programs lists 'digits' more than once"),
    (["sweep", "--programs", "sorting", "digits", "sorting"],
     "--programs lists 'sorting' more than once"),
    (["sweep", "--moderate-values", "0.5", "0.50", "--low-values", "0.01"],
     "--moderate-values lists 0.5 more than once"),
    (["sweep", "--moderate-values", "0.5", "--low-values", "0.01", "1e-2"],
     "--low-values lists 0.01 more than once"),
], ids=["bench-programs", "sweep-programs", "moderate", "low"])
def test_repeated_value_rejected(argv, err, monkeypatch, capsys):
    # a repeated program or grid value would run and count its cases twice
    monkeypatch.setattr(cli.bench, "corpus_seeds", _no_seeding)
    assert main([*argv, "--per-program", "1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("grid", [
    ["--moderate-values"], ["--low-values"],
    ["--moderate-values", "--low-values"]])
def test_sweep_rejects_an_empty_grid(grid, monkeypatch, capsys):
    monkeypatch.setattr(cli.bench, "corpus_seeds", _no_seeding)
    assert main(["sweep", "--programs", "sorting", "--per-program", "1",
                 *grid]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the p0 grid is empty")
    assert captured.err.count("\n") == 1
