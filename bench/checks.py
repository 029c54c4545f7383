"""Correctness checks on one fluidfed command's output directory.

A command fails the check when an expected output is missing, the manifest
sha256 of a file does not match it, or its results disagree with the
reference laws in ``laws``:

* Monte-Carlo curves (``cdf-mse``, ``pmf-users``, ``port-sweep`` and the
  ``copula-check`` max-gain CDFs) must lie inside a DKW sup-band around the
  reference law, and their ``analytic`` column must equal it to
  ``ANALYTIC_TOL``.  ``pmf-users`` is banded on its cumulative sums;
  ``port-sweep`` bands each point on its own.  ``copula-check`` also bands
  its marginal KS statistics and its Kendall taus.
* ``train`` must write every variant's full round record, and
  ``bound`` a finite trajectory of one value per scheduled round.

The band checks of one command share a false-alarm rate of at most
``ALPHA`` on correct code (Bonferroni over its bands).  The package's own
per-point gate, whose FAIL exits with code 1, is not a check here: its
failing points are only counted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import laws

ALPHA = 1e-6
ANALYTIC_TOL = 1e-8
MC_VARIANTS = ("independent", "clayton-1", "clayton-2", "fpa")
TRAIN_VARIANTS = ("ideal",) + MC_VARIANTS
DIAG_BETAS = ("0.5", "1", "2", "5")


@dataclass
class Outcome:
    """What one command's outputs showed."""

    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)  # data file -> manifest sha256
    bytes_written: int = 0
    trials: int = 0  # Monte-Carlo trials summed over variants
    points: int = 0  # grid points under the package's per-point gate
    failing_points: int = 0
    client_updates: int = 0  # train participants summed over rounds and variants


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out_dir: Path, expected: list[str], outcome: Outcome) -> None:
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        outcome.problems.append("manifest.json missing")
        return
    manifest = json.loads(manifest_path.read_text())
    listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    for name in sorted(set(expected) - set(listed)):
        outcome.problems.append(f"{name} missing from the manifest")
    for name, sha in listed.items():
        path = out_dir / name
        if not path.is_file():
            outcome.problems.append(f"{name} missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != sha:
            outcome.problems.append(f"{name}: sha256 does not match the manifest")
    outcome.hashes = listed
    outcome.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def band(label: str, xs, values, reference, eps: float, outcome: Outcome) -> None:
    """Flag every point where |value - reference| > eps."""
    for x, value, ref in zip(xs, values, reference):
        if not abs(value - ref) <= eps:
            outcome.problems.append(
                f"{label}: x={x:g} value {value:.6g} outside reference {ref:.6g} +- {eps:.3g}"
            )


def _check_meta(label: str, meta: dict, expect: dict, outcome: Outcome) -> None:
    for key, value in expect.items():
        if key in meta and meta[key] != value:
            outcome.problems.append(f"{label}: {key}={meta[key]} but {value} was requested")


def _curve_check(out_dir, report, prefix, expect, outcome, reference_for, cumulative=False,
                 per_point=False):
    for variant in MC_VARIANTS:
        path = out_dir / f"{prefix}_{variant}.csv"
        if not path.is_file() or variant not in report:
            outcome.problems.append(f"{path.name} or its report entry missing")
            continue
        meta = report[variant]["meta"]
        _check_meta(variant, meta, expect, outcome)
        rows = _rows(path)
        xs = [float(r["x"]) for r in rows]
        ref = reference_for(variant, meta, xs)
        analytic = [float(r["analytic"]) for r in rows]
        empirical = [float(r["empirical"]) for r in rows]
        if cumulative:
            ref_points = [b - a for a, b in zip([0.0] + ref[:-1], ref)]
            band(f"{variant} analytic", xs, analytic, ref_points, ANALYTIC_TOL, outcome)
            empirical = [sum(empirical[: i + 1]) for i in range(len(empirical))]
        else:
            band(f"{variant} analytic", xs, analytic, ref, ANALYTIC_TOL, outcome)
        bands = len(MC_VARIANTS) * (len(xs) if per_point else 1)
        eps = laws.dkw_epsilon(meta["trials"], ALPHA / bands)
        band(f"{variant} empirical", xs, empirical, ref, eps, outcome)
        outcome.trials += meta["trials"]
        _count_points(report[variant], outcome)


def _count_points(report_entry: dict, outcome: Outcome) -> None:
    outcome.points += len(report_entry["points"])
    outcome.failing_points += sum(not p["pass"] for p in report_entry["points"])


def _load_report(out_dir: Path, name: str, outcome: Outcome) -> dict | None:
    path = out_dir / name
    if not path.is_file():
        outcome.problems.append(f"{name} missing")
        return None
    return json.loads(path.read_text())


def check_cdf_mse(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    check_manifest(out_dir, [f"cdf_mse_{v}.csv" for v in MC_VARIANTS] + ["cdf_mse_report.json"], outcome)
    report = _load_report(out_dir, "cdf_mse_report.json", outcome)
    if report is not None:
        _curve_check(
            out_dir, report, "cdf_mse", expect, outcome,
            lambda v, m, xs: [
                laws.mse_cdf(x, m["n_users"], m["n_ports"], m["s_target"], m["p_max"], v)
                for x in xs
            ],
        )
    return outcome


def check_pmf_users(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    check_manifest(out_dir, [f"pmf_users_{v}.csv" for v in MC_VARIANTS] + ["pmf_users_report.json"], outcome)
    report = _load_report(out_dir, "pmf_users_report.json", outcome)
    if report is not None:
        _curve_check(
            out_dir, report, "pmf_users", expect, outcome,
            lambda v, m, xs: laws.participation_cdf(m["n_users"], m["n_ports"], m["threshold"], v),
            cumulative=True,
        )
    return outcome


def check_port_sweep(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    check_manifest(out_dir, [f"port_sweep_{v}.csv" for v in MC_VARIANTS] + ["port_sweep_report.json"], outcome)
    report = _load_report(out_dir, "port_sweep_report.json", outcome)
    if report is not None:
        _curve_check(
            out_dir, report, "port_sweep", expect, outcome,
            lambda v, m, xs: [
                laws.full_participation(m["n_users"], int(n), m["threshold"], v) for n in xs
            ],
            per_point=True,
        )
    return outcome


def check_copula_check(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    labels = [f"clayton-{b}" for b in DIAG_BETAS]
    check_manifest(out_dir, [f"copula_check_{label}.csv" for label in labels] + ["copula_check_report.json"], outcome)
    report = _load_report(out_dir, "copula_check_report.json", outcome)
    if report is None:
        return outcome
    rows, n_ports = report["meta"]["rows"], report["meta"]["n_ports"]
    # one band per max-gain CDF, per port's KS statistic and per Kendall tau
    alpha = ALPHA / (len(labels) * (n_ports + 2))
    eps = laws.dkw_epsilon(rows, alpha)
    for label in labels:
        path = out_dir / f"copula_check_{label}.csv"
        if not path.is_file() or label not in report["cdf_reports"]:
            outcome.problems.append(f"{path.name} or its report entry missing")
            continue
        table = _rows(path)
        xs = [float(r["x"]) for r in table]
        ref = [laws.best_gain_cdf(x, n_ports, label) for x in xs]
        band(f"{label} analytic", xs, [float(r["analytic"]) for r in table], ref, ANALYTIC_TOL, outcome)
        band(f"{label} empirical", xs, [float(r["empirical"]) for r in table], ref, eps, outcome)
        _count_points(report["cdf_reports"][label], outcome)
    for check in report["marginal_checks"]:
        if not check["max_ks_statistic"] <= eps:
            outcome.problems.append(f"beta={check['beta']}: marginal KS {check['max_ks_statistic']:.4g} > {eps:.3g}")
    tau_eps = laws.kendall_epsilon(rows, alpha)
    for check in report["tau_checks"]:
        beta = check["beta"]
        if not abs(check["empirical_tau"] - beta / (beta + 2.0)) <= tau_eps:
            outcome.problems.append(f"beta={beta}: Kendall tau {check['empirical_tau']:.4g} off by > {tau_eps:.3g}")
    return outcome


def check_train(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    names = [f"train_{v}.{ext}" for v in TRAIN_VARIANTS for ext in ("csv", "jsonl")]
    check_manifest(out_dir, names, outcome)
    for variant in TRAIN_VARIANTS:
        path = out_dir / f"train_{variant}.csv"
        if not path.is_file():
            continue
        rows = _rows(path)
        if len(rows) != expect["rounds"]:
            outcome.problems.append(f"{path.name}: {len(rows)} rounds, expected {expect['rounds']}")
        for r in rows:
            participants, acc = int(r["participants"]), float(r["test_acc"])
            full = participants == expect["clients"]
            if not (0 <= participants <= expect["clients"]) or (variant == "ideal" and not full):
                outcome.problems.append(f"{path.name} round {r['round']}: {participants} participants")
            if not 0.0 <= acc <= 1.0:
                outcome.problems.append(f"{path.name} round {r['round']}: test accuracy {acc}")
            outcome.client_updates += participants
    return outcome


def check_bound(out_dir: Path, expect: dict) -> Outcome:
    outcome = Outcome()
    check_manifest(out_dir, ["bound.csv"], outcome)
    path = out_dir / "bound.csv"
    if path.is_file():
        values = [float(r["bound"]) for r in _rows(path)]
        if len(values) != expect["rounds"]:
            outcome.problems.append(f"bound.csv: {len(values)} rounds, expected {expect['rounds']}")
        if not all(math.isfinite(v) for v in values):
            outcome.problems.append("bound.csv: nonfinite trajectory")
    return outcome


CHECKS = {
    "cdf-mse": check_cdf_mse,
    "pmf-users": check_pmf_users,
    "port-sweep": check_port_sweep,
    "copula-check": check_copula_check,
    "train": check_train,
    "bound": check_bound,
}
