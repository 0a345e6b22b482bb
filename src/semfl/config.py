"""The run configuration every stage reads; it imports nothing from semfl."""

from dataclasses import dataclass, field

DEFAULT_STEP_BUDGET = 10 ** 6


def _option(default, flag, help, **metadata):
    """A config field, the command-line flag that sets it and the flag's
    help (`cli.add_config_args` reads them)."""
    return field(default=default,
                 metadata={"flag": flag, "help": help, **metadata})


@dataclass(frozen=True)
class RunConfig:
    """Every pipeline parameter with its paper or artifact default. Each
    stage reads the fields it needs; a command has a flag per field it reads.
    A config is immutable, and one out of range raises when it is made."""

    # reducers; max_passing_tests None keeps every passing test
    max_passing_tests: int | None = _option(
        50, "--max-passing-tests",
        "passing tests kept by test reduction (paper default 50)")
    trace_limit: int = _option(
        1_200_000, "--trace-limit",
        "per-trace event budget (paper default 1.2M)")
    model_limit: int = _option(
        1_000_000, "--model-limit",
        "total modeled event budget (paper default 1M)")
    loop_period: int = _option(
        3, "--loop-period",
        "longest period of loop iterations that compression removes "
        "(paper: 1; 0 keeps every iteration)")
    # ablation switches, in the order `semfl bench --ablations` runs them
    # (`cli.ABLATIONS`)
    adaptive_folding: bool = _option(
        True, "--no-adaptive-folding", "keep failing traces whole at any length",
        ablation=True)
    virtual_call_edges: bool = _option(
        True, "--no-virtual-call-edges",
        "no edges from traced calls inside untraced ones to their caller",
        ablation=True)
    exception_control: bool = _option(
        True, "--no-exception-control",
        "caught exceptions control no later statement", ablation=True)
    # inference
    max_iterations: int = _option(
        100, "--max-iters",
        "belief propagation iteration cap (artifact decision)")
    convergence_eps: float = _option(
        1e-6, "--eps", "message convergence threshold (artifact decision)")
    # model
    p0_moderate: float = _option(
        0.5, "--p0-moderate",
        "p0 for boolean-range statements (paper default 0.5)")
    p0_low: float = _option(
        0.01, "--p0-low", "p0 for wide-range statements (paper default 0.01)")
    statement_prior: float = _option(
        0.5, "--prior", "statement prior (paper default 0.5)")
    # execution
    step_budget: int = _option(
        DEFAULT_STEP_BUDGET, "--step-budget",
        "interpreter steps per test (artifact decision)")

    def __post_init__(self):
        for name in ("p0_moderate", "p0_low", "statement_prior"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("trace_limit", "model_limit", "step_budget",
                     "max_iterations", "convergence_eps"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        for name in ("loop_period", "max_passing_tests"):
            v = getattr(self, name)
            if v is None and name == "max_passing_tests":
                continue  # no limit
            if not v >= 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
