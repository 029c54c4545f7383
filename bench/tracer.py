"""Per-layer spans for one fluidfed command, recorded from outside the package.

``install`` replaces public functions at the names their callers look them
up (``montecarlo.sample_port_gains``, ``fedlearn.local_update``, ...) with
timing wrappers.  Every span is folded on exit into a per-name accumulator
of call count, total time and self time (total minus the time covered by
child spans), so the 40k sampler calls of a Monte-Carlo command cost one
list update each.  Accumulators stay in memory until ``Tracer.dump`` hands
them over, once, when the command has finished.

Spans nest on one stack, so the tracer assumes the traced code calls into
these layers from a single thread, which holds at the CLI's default
``mc.threads = 1``.
"""

from __future__ import annotations

import functools
import time

# (module attribute, span name); the module is fluidfed.<first part>
SPANS = (
    ("montecarlo.run_mse_cdf_experiment", "montecarlo.run"),
    ("montecarlo.run_participation_experiment", "montecarlo.run"),
    ("montecarlo.run_port_sweep", "montecarlo.run"),
    ("montecarlo.run_copula_diagnostics", "montecarlo.run"),
    ("montecarlo.trial_streams", "montecarlo.trial_streams"),
    ("montecarlo.kstest", "montecarlo.diag_stats"),
    ("montecarlo.kendalltau", "montecarlo.diag_stats"),
    ("montecarlo.sample_port_gains", "channel.sample"),
    ("montecarlo.normalized_mse_cdf", "analytics.closed_form"),
    ("montecarlo.participation_pmf_vector", "analytics.closed_form"),
    ("montecarlo.qualify_probability", "analytics.closed_form"),
    ("montecarlo.channel_gain_cdf", "analytics.closed_form"),
    ("analytics.optimality_gap_trajectory", "analytics.bound"),
    ("fedlearn.run_training", "fedlearn.run"),
    ("fedlearn.local_update", "fedlearn.local_update"),
    ("fedlearn.MlpModel.loss_and_grad", "fedlearn.loss_and_grad"),
    ("fedlearn.MlpModel.accuracy", "fedlearn.eval"),
    ("fedlearn.synthesize_dataset", "fedlearn.data"),
    ("fedlearn.partition_iid", "fedlearn.data"),
    ("fedlearn.sample_port_gains", "channel.sample"),
    ("fedlearn.select_ports", "channel.select"),
    ("ota.select_users", "ota.select"),
    ("ota.zf_power_control", "ota.zf"),
    ("ota.ota_aggregate", "ota.aggregate"),
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.round_s: list[float] = []
        self._stack: list[list] = []  # per open span: [time covered by children]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(result)`` sees each result."""
        acc = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every entry of SPANS on the imported ``fluidfed`` package."""
        fedlearn = package.fedlearn
        observers = {
            "montecarlo.trial_streams": lambda r: self.count("montecarlo.trial_streams.children", len(r)),
            "montecarlo.sample_port_gains": self._count_values,
            "fedlearn.sample_port_gains": self._count_values,
        }
        for attr, name in SPANS:
            *path, leaf = attr.split(".")
            owner = package
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), observers.get(attr)))
        run_training = fedlearn.run_training

        def run_training_observed(fl, *args, **kwargs):
            try:
                records = run_training(fl, *args, **kwargs)
            except fedlearn.TrainingDivergedError as exc:
                self.count("fedlearn.diverged")
                self._observe_rounds(fl, exc.records)
                raise
            self._observe_rounds(fl, records)
            return records

        fedlearn.run_training = run_training_observed

    def _count_values(self, gains) -> None:
        self.count("channel.sample.values", gains.gains.size)

    def _observe_rounds(self, fl, records) -> None:
        # RoundRecord.wall_time is kept in memory by the package and not
        # written to its output files, so it is read here
        self.round_s.extend(r.wall_time for r in records)
        self.count("fedlearn.rounds", len(records))
        if fl.benchmark == "ota":
            self.count("ota.skipped_rounds", sum(r.participants == 0 for r in records))

    def dump(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "s": s, "self_s": own}
                for name, (c, s, own) in self.spans.items()
            },
            "counters": self.counters,
            "round_s": self.round_s,
        }
