"""fluidfed benchmark: runs one workload the way users run the CLI and checks it.

    python3 bench/run.py --workload mc-default --seed 0 --seconds 42 --trace 0

Each command of a workload runs as ``fluidfed <subcommand>`` in a fresh
interpreter (``child.py``), one at a time, with BLAS and OpenMP pinned to
one thread.  A pass runs every command of the workload once; the run
repeats passes until ``--seconds`` would be exceeded, checks every
command's outputs (``checks.py``) and that each repetition of a command
wrote byte-identical data files, and prints every metric with its median,
a high percentile where enough samples exist and the sample count.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` passes alternate between untraced and
traced (``tracer.py``), and the metrics are the per-layer ones from the
traced passes, the per-command times of the untraced passes and the
tracing overhead.

A command that raises, exits 2 or 3, fails the output checks, or writes
data files that differ from its first repetition counts as failed, and so
does exit 1 (divergence) from ``train``.  Exit 1 from the package's own
statistical gate in the Monte-Carlo commands is not a failure; the failing
points of its per-point gate are counted in ``montecarlo.failing_points``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
RUNS = ROOT / ".bench_runs"
HARD_LIMIT_S = 165.0  # stop starting passes, and kill a command, past this
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MC_COMMANDS = ("cdf-mse", "pmf-users", "port-sweep")
ALL_COMMANDS = MC_COMMANDS + ("copula-check", "train", "bound")

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "montecarlo.trial_streams.s": "s",
    "montecarlo.trial_streams.children": "count",
    "montecarlo.run.self_s": "s",
    "montecarlo.diag_stats.calls": "count",
    "montecarlo.diag_stats.s": "s",
    "montecarlo.trials": "count",
    "montecarlo.points": "count",
    "montecarlo.failing_points": "count",
    "channel.sample.calls": "count",
    "channel.sample.s": "s",
    "channel.sample.values": "count",
    "channel.select.calls": "count",
    "channel.select.s": "s",
    "analytics.closed_form.calls": "count",
    "analytics.closed_form.s": "s",
    "analytics.bound.s": "s",
    "ota.select.calls": "count",
    "ota.select.s": "s",
    "ota.zf.calls": "count",
    "ota.zf.s": "s",
    "ota.aggregate.calls": "count",
    "ota.aggregate.s": "s",
    "ota.skipped_rounds": "count",
    "fedlearn.local_update.calls": "count",
    "fedlearn.local_update.s": "s",
    "fedlearn.loss_and_grad.calls": "count",
    "fedlearn.loss_and_grad.s": "s",
    "fedlearn.eval.s": "s",
    "fedlearn.data.s": "s",
    "fedlearn.run.self_s": "s",
    "fedlearn.round_s.p50": "s",
    "fedlearn.round_s.p90": "s",
    "fedlearn.rounds": "count",
    "fedlearn.diverged": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"cmd.{name}_s": "s" for name in ALL_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple = ()
    expect: dict = field(default_factory=dict)  # sizes the outputs must report


def workload(name: str, tiny: bool = False) -> list[Command]:
    """The commands of a workload; ``tiny`` shrinks them for a smoke run."""
    if name == "mc-default":
        trials = 300 if tiny else 10_000
        args = ("--trials", str(trials)) if tiny else ()
        expect = {"n_users": 20, "n_ports": 10, "trials": trials}
        return [Command(c, args, expect) for c in MC_COMMANDS]
    if name == "mc-wide":
        trials = 100 if tiny else 1000
        args = ("--set", "system.K=200", "--set", "system.N=64", "--trials", str(trials))
        expect = {"n_users": 200, "n_ports": 64, "trials": trials}
        rows = ("--set", "mc.diag_rows=2000") if tiny else ()
        return [Command("cdf-mse", args, expect), Command("pmf-users", args, expect),
                Command("copula-check", rows)]
    if name == "train-wide":
        clients, rounds, samples = (10, 3, 2000) if tiny else (100, 100, 20_000)
        sizes = {"clients": clients, "rounds": rounds}
        return [
            Command("train", ("--set", f"fl.clients={clients}", "--set", f"fl.rounds={rounds}",
                              "--set", f"fl.samples={samples}"), sizes),
            # the schedule has up to `clients` participants per round
            Command("bound", ("--records", "{pass_dir}/train/train_independent.csv",
                              "--set", f"bound.n_users={clients}"), sizes),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc-default", "mc-wide", "train-wide")


@dataclass
class CommandRun:
    name: str
    wall_s: float
    setup_s: float
    cmd_s: float
    rss_mb: float
    outcome: checks.Outcome
    trace: dict | None


@dataclass
class Pass:
    traced: bool
    runs: list

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` and return (exit status, rusage, timed out)."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage, False
            if time.monotonic() > deadline:
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, True


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def high_percentile(values) -> tuple[str, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(values, n=100)[pct - 1]
    return None


class Bench:
    def __init__(self, workload_name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False):
        self.name = workload_name
        self.commands = workload(workload_name, tiny)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = RUNS / str(os.getpid())
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(PINNED)
        self.passes: list[Pass] = []
        self.first_hashes: dict[str, dict] = {}

    # -- running -----------------------------------------------------------

    def probe(self) -> dict:
        """Import the package once (warming caches) and read its versions."""
        out = subprocess.run([sys.executable, str(CHILD), "--probe"], env=self.env,
                             capture_output=True, text=True, timeout=120, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def run_command(self, cmd: Command, pass_dir: Path, traced: bool, deadline: float) -> CommandRun:
        out_dir = pass_dir / cmd.name
        marks_path = pass_dir / f"{cmd.name}.marks.json"
        args = [a.format(pass_dir=pass_dir) for a in cmd.args]
        argv = [sys.executable, str(CHILD), str(marks_path), "1" if traced else "0", cmd.name,
                *args, "--seed", str(self.seed), "--out", str(out_dir)]
        with open(pass_dir / f"{cmd.name}.log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=pass_dir, stdout=log, stderr=log)
            code, usage, timed_out = _wait(proc, deadline)
            end = time.monotonic()
        marks = json.loads(marks_path.read_text()) if marks_path.is_file() else {}
        setup_done = marks.get("setup_done", marks.get("imported", end))
        try:
            outcome = checks.CHECKS[cmd.name](out_dir, cmd.expect)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = checks.Outcome(problems=[f"unreadable output: {exc!r}"])
        problems = outcome.problems
        if timed_out:
            problems.append("killed at the run's time limit")
        if "raised" in marks:
            problems.append("raised: " + marks["raised"].strip().splitlines()[-1])
        allowed = (0, 1) if cmd.name in MC_COMMANDS + ("copula-check",) else (0,)
        if code not in allowed:
            log_tail = (pass_dir / f"{cmd.name}.log").read_text().strip().splitlines()[-1:]
            problems.append(f"exit code {code} {' '.join(log_tail)}")
        first = self.first_hashes.setdefault(cmd.name, outcome.hashes)
        if outcome.hashes != first:
            problems.append("data files differ from the first repetition")
        return CommandRun(
            name=cmd.name, wall_s=end - start, setup_s=setup_done - start,
            cmd_s=end - setup_done, rss_mb=usage.ru_maxrss / 1024.0, outcome=outcome,
            trace=marks.get("trace"),
        )

    def run(self) -> None:
        """Run passes until ``seconds`` is spent; outputs are deleted as it goes."""
        try:
            self._run_passes()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            if RUNS.is_dir() and not any(RUNS.iterdir()):
                RUNS.rmdir()

    def _run_passes(self) -> None:
        start = time.monotonic()
        deadline = start + HARD_LIMIT_S
        min_passes = 2 if self.trace else 1
        pass_s = 0.0  # mean duration of the passes so far
        while len(self.passes) < min_passes or (
            time.monotonic() + pass_s - start <= self.seconds
            and time.monotonic() + pass_s < deadline
        ):
            traced = self.trace and len(self.passes) % 2 == 1
            pass_dir = self.run_dir / f"pass{len(self.passes) + 1}"
            pass_dir.mkdir(parents=True)
            t0 = time.monotonic()
            runs = [self.run_command(c, pass_dir, traced, deadline) for c in self.commands]
            self.passes.append(Pass(traced, runs))
            pass_s += (time.monotonic() - t0 - pass_s) / len(self.passes)
            shutil.rmtree(pass_dir)
            if time.monotonic() > deadline:
                break

    # -- metrics -------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(len(p.runs) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(bool(r.outcome.problems) for p in self.passes for r in p.runs)

    def untraced(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    def end_to_end(self) -> dict[str, list[float]]:
        """Samples of each end-to-end metric over the untraced passes."""
        samples = {name: [] for name in E2E_UNITS}
        for p in self.untraced():
            samples["wall_s"].append(p.wall_s)
            samples["setup_s"] += [r.setup_s for r in p.runs]
            samples["cmd_s"].append(sum(r.cmd_s for r in p.runs))
            working = [r for r in p.runs if r.outcome.trials or r.outcome.client_updates]
            work = sum(r.outcome.trials + r.outcome.client_updates for r in working)
            samples["work_per_s"].append(work / sum(r.cmd_s for r in working))
            samples["peak_rss_mb"].append(max(r.rss_mb for r in p.runs))
        return samples

    def per_layer(self) -> dict[str, list[float]]:
        """Samples of each per-layer metric over the traced passes."""
        samples = {name: [] for name in LAYER_UNITS}
        for p in self.passes:
            if p.traced:
                for name, value in _layer_values(p).items():
                    samples[name].append(value)
        untraced = self.untraced()
        for name in ALL_COMMANDS:
            samples[f"cmd.{name}_s"] = [
                sum(r.cmd_s for r in p.runs if r.name == name) for p in untraced
            ]
        traced_wall = median([p.wall_s for p in self.passes if p.traced])
        samples["trace.overhead_ratio"] = [traced_wall / median([p.wall_s for p in untraced])]
        return samples


def _layer_values(p: Pass) -> dict[str, float]:
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    round_s: list[float] = []
    for r in p.runs:
        trace = r.trace or {"spans": {}, "counters": {}, "round_s": []}
        for name, acc in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += acc[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        round_s += trace["round_s"]

    values = {}
    for metric in LAYER_UNITS:
        span, _, key = metric.rpartition(".")
        if span in spans and key in ("calls", "s", "self_s"):
            values[metric] = spans[span][key]
        elif metric in counters:
            values[metric] = counters[metric]
    outcomes = [r.outcome for r in p.runs]
    values.update({
        "montecarlo.trials": sum(o.trials for o in outcomes),
        "montecarlo.points": sum(o.points for o in outcomes),
        "montecarlo.failing_points": sum(o.failing_points for o in outcomes),
        "cli.bytes_written": sum(o.bytes_written for o in outcomes),
    })
    if len(round_s) > 1:
        values["fedlearn.round_s.p50"] = statistics.median(round_s)
        values["fedlearn.round_s.p90"] = statistics.quantiles(round_s, n=10)[-1]
    return {name: values.get(name, 0) for name in LAYER_UNITS if not name.startswith(("cmd.", "trace."))}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def report(bench: Bench, environment: dict) -> dict:
    """Print the metric table and return the result object."""
    samples = bench.per_layer() if bench.trace else bench.end_to_end()
    units = LAYER_UNITS if bench.trace else E2E_UNITS
    traced = sum(p.traced for p in bench.passes)
    print(f"workload {bench.name}, seed {bench.seed}: {len(bench.passes)} passes "
          f"({traced} traced), {bench.attempted} commands, {bench.failed} failed")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for i, p in enumerate(bench.passes, start=1):
        for r in p.runs:
            for problem in r.outcome.problems:
                print(f"FAILED {r.name} (pass {i}): {problem}")
    print(f"{'metric':<36} {'median':>14} {'high pct':>20} {'n':>4}  unit")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        high = high_percentile(values)
        high_text = f"{high[0]} {high[1]:.6g}" if high else "-"
        print(f"{name:<36} {median(values):>14.6g} {high_text:>20} {len(values):>4}  {unit}")
        metrics[name] = {"value": median(values), "unit": unit}
    for name in ALL_COMMANDS:
        runs = [r for p in bench.untraced() for r in p.runs if r.name == name]
        if runs:
            print(f"  {name:<14} setup {median([r.setup_s for r in runs]):.3f} s, "
                  f"command {median([r.cmd_s for r in runs]):.3f} s, "
                  f"peak rss {max(r.rss_mb for r in runs):.1f} MB, n={len(runs)}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed to every command modulo 2**63")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fluidfed" / "cli.py").is_file():
        print(f"no fluidfed source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    bench = Bench(args.workload, args.seed % 2**63, args.seconds, bool(args.trace))
    environment = {
        **bench.probe(),
        "nproc": os.cpu_count(),
        "seed": bench.seed,
        "commit": _commit(),
        **PINNED,
    }
    bench.run()
    print(json.dumps(report(bench, environment)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
