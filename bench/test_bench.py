"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at tiny sizes, once untraced and once traced, and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass on correct code, and that they reject a
deliberately wrong law.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import laws
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_metric_names_and_units_match_the_spec():
    assert run.E2E_UNITS == _units("end_to_end")
    assert run.LAYER_UNITS == _units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_emits_every_metric(name, capsys):
    bench = run.Bench(name, seed=1, seconds=0, trace=True, tiny=True)
    bench.run()
    result = run.report(bench, {})
    problems = [p for ps in bench.passes for r in ps.runs for p in r.outcome.problems]
    assert problems == []
    assert result["correct"] and result["attempted"] == 2 * len(bench.commands)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.LAYER_UNITS
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    end_to_end = bench.end_to_end()
    assert end_to_end.keys() == run.E2E_UNITS.keys()
    assert all(v and min(v) > 0 for v in end_to_end.values())
    printed = capsys.readouterr().out
    assert all(name in printed for name in run.LAYER_UNITS)


def test_band_check_rejects_the_wrong_clayton_law(tmp_path, monkeypatch):
    out = tmp_path / "cdf"
    cmd = [sys.executable, str(run.CHILD), str(tmp_path / "marks.json"), "0", "cdf-mse",
           "--seed", "3", "--out", str(out)]
    subprocess.run(cmd, check=False, timeout=120, capture_output=True)
    assert checks.check_cdf_mse(out, {"trials": 10_000}).problems == []

    right = laws.best_gain_cdf

    def clayton_2_for_clayton_1(x, n_ports, variant):
        return right(x, n_ports, "clayton-2" if variant == "clayton-1" else variant)

    monkeypatch.setattr(laws, "best_gain_cdf", clayton_2_for_clayton_1)
    problems = checks.check_cdf_mse(out, {"trials": 10_000}).problems
    assert any(p.startswith("clayton-1 empirical") for p in problems)
    assert not any(p.startswith(("independent", "clayton-2", "fpa")) for p in problems)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
