"""Smoke test of the benchmark's own code on a two-case slice.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "corpus-folded"
SEED = 7


def _run(cwd, trace, cases=2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--cases", str(cases)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _check_output(proc, declared):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    for name, unit in declared.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)), name
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines[:-1]), f"{name} not printed with {unit}"
    return result


def _digests(path):
    return {c["case"]: c["digest"]
            for c in json.loads(path.read_text())["cases"]}


def test_metrics_print_with_units_and_digests_match():
    _check_output(_run(ROOT, 0), _declared("end_to_end"))
    _check_output(_run(ROOT, 1), _declared("per_layer"))
    out = HERE / "out"
    plain = _digests(out / f"{WORKLOAD}-seed{SEED}.json")
    traced = _digests(out / f"{WORKLOAD}-seed{SEED}-trace.json")
    assert len(plain) == 2 and all(plain.values())
    assert plain == traced


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
