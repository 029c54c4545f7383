"""Command-line front end.

Subcommands
-----------
cdf-mse      aggregation-error CDF, analytic vs Monte Carlo, per variant
pmf-users    participant-count PMF, analytic vs Monte Carlo, per variant
port-sweep   full-participation probability vs port count
copula-check copula sampler goodness-of-fit diagnostics
train        federated training run per configured variant
bound        convergence-bound trajectory from constants + a schedule

Configuration is JSON with sections ``system``, ``mc``, ``fl``, ``bound``.
Precedence: dedicated CLI flags > ``--set section.key=value`` overrides >
config file > documented defaults.  Power values are accepted linear
(``p_max``, ``sigma2``) or in dBm (``p_max_dbm``, ``sigma2_dbm``);
supplying both members of a pair is an error.  A supplied config file must
state ``system.tau`` explicitly.

Every run writes its result tables (CSV + JSON) plus ``manifest.json``
recording the tool version, resolved config, master seed, timestamps, and
sha256 of each output.  ``cdf-mse``, ``pmf-users`` and ``port-sweep`` add
per-variant telemetry (seconds, trial blocks, trials and their rate,
failing points) and ``train`` adds its own (rounds, skipped rounds, client
updates and their rate, per-round wall time and norm scale); no hashed
output contains either.  Exit codes: 0 success,
1 statistical check failure or training divergence, 2 usage/config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytics, fedlearn, montecarlo, ota
from .channel import Clayton, GaussianJakes, Independent, PerfectDependence

__all__ = ["main", "ConfigError", "load_config", "parse_variant"]


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message names the key."""


DEFAULTS = {
    "system": {
        "K": 20,
        "N": 10,
        "W": 0.5,
        "p_max_dbm": 10.0,
        "sigma2": 1e-3,
        "tau": 0.05,
    },
    "mc": {
        "trials": 10_000,
        "seed": 0,
        "s_target": 15,
        "tau_grid": [1.0, 4.0, 30],  # log10 start, log10 stop, points
        "n_grid": [1, 20],
        "gain_grid": [0.05, 6.0, 24],
        "diag_rows": 100_000,
        "diag_betas": [0.5, 1.0, 2.0, 5.0],
        "variants": ["independent", "clayton:1", "clayton:2", "fpa"],
    },
    "fl": {
        "clients": 10,
        "rounds": 30,
        "lr": 0.01,
        "batch": 32,
        "hidden": 32,
        "local_steps": 1,
        "optimizer": "adam",
        "data": "synthetic",
        "classes": 3,
        "dims": 16,
        "samples": 2000,
        "separation": 6.0,
        "split": 0.9,
        "mnist_images": None,
        "mnist_labels": None,
        "variants": ["ideal", "independent", "clayton:1", "clayton:2", "fpa"],
    },
    "bound": {
        "lr": 0.01,
        "pl_constant": 0.5,
        "smoothness": 4.0,
        "grad_norm_bound": 1.0,
        "grad_variance": 1.0,
        "batch": 32,
        "n_users": 10,
        "f1_gap": 1.0,
        "rounds": 30,
        "participants": 10,
        "mse": 0.001,
        "schedule": None,
    },
}

_NUMERIC = (int, float)
_COUNT = "count"  # a number that must be whole; 3.0 is accepted, 3.9 is not
_SCHEMA = {
    "system": {
        "K": _COUNT,
        "N": _COUNT,
        "W": _NUMERIC,
        "p_max": _NUMERIC,
        "p_max_dbm": _NUMERIC,
        "sigma2": _NUMERIC,
        "sigma2_dbm": _NUMERIC,
        "tau": _NUMERIC,
    },
    "mc": {
        "trials": _COUNT,
        "seed": _COUNT,
        "s_target": _COUNT,
        # fixed-layout lists: one kind per entry
        "tau_grid": [_NUMERIC, _NUMERIC, _COUNT],  # log10 start, log10 stop, points
        "n_grid": [_COUNT, _COUNT],
        "gain_grid": [_NUMERIC, _NUMERIC, _COUNT],
        "diag_rows": _COUNT,
        "diag_betas": (list,),
        "variants": (list,),
    },
    "fl": {
        "clients": _COUNT,
        "rounds": _COUNT,
        "lr": _NUMERIC,
        "batch": _COUNT,
        "hidden": _COUNT,
        "local_steps": _COUNT,
        "optimizer": (str,),
        "data": (str,),
        "classes": _COUNT,
        "dims": _COUNT,
        "samples": _COUNT,
        "separation": _NUMERIC,
        "split": _NUMERIC,
        "mnist_images": (str, type(None)),
        "mnist_labels": (str, type(None)),
        "variants": (list,),
    },
    "bound": {
        "lr": _NUMERIC,
        "pl_constant": _NUMERIC,
        "smoothness": _NUMERIC,
        "grad_norm_bound": _NUMERIC,
        "grad_variance": _NUMERIC,
        "batch": _COUNT,
        "n_users": _COUNT,
        "f1_gap": _NUMERIC,
        "rounds": _COUNT,
        "participants": _COUNT,
        "mse": _NUMERIC,
        "schedule": (list, type(None)),
    },
}

_REQUIRED_IN_FILE = (("system", "tau"),)
_POWER_PAIRS = (("system", "p_max", "p_max_dbm"), ("system", "sigma2", "sigma2_dbm"))


def _validate_layer(layer: dict, source: str) -> None:
    if not isinstance(layer, dict):
        raise ConfigError(f"{source}: top level must be an object of sections")
    for section, body in layer.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section `{section}`")
        if not isinstance(body, dict):
            raise ConfigError(f"{source}: section `{section}` must be an object")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key `{section}.{key}`")
            kinds = _SCHEMA[section][key]
            if not isinstance(kinds, list):
                _check_value(source, f"{section}.{key}", kinds, value)
            elif not isinstance(value, list) or len(value) != len(kinds):
                raise ConfigError(
                    f"{source}: key `{section}.{key}` must be a list of {len(kinds)} numbers"
                )
            else:
                for i, (kind, entry) in enumerate(zip(kinds, value)):
                    _check_value(source, f"{section}.{key}[{i}]", kind, entry)


def _check_value(source: str, name: str, allowed, value) -> None:
    count = allowed == _COUNT
    if count:
        allowed = _NUMERIC
    if not isinstance(value, allowed) or isinstance(value, bool):
        names = "/".join(t.__name__ for t in allowed)
        got = type(value).__name__
        raise ConfigError(f"{source}: key `{name}` must be {names}, got {got}")
    if count and not float(value).is_integer():
        raise ConfigError(f"{source}: key `{name}` must be a whole number, got {value!r}")


def _parse_set_override(spec: str) -> tuple[str, str, object]:
    if "=" not in spec or "." not in spec.split("=", 1)[0]:
        raise ConfigError(
            f"--set expects section.key=value, got `{spec}`"
        )
    dotted, raw = spec.split("=", 1)
    section, key = dotted.split(".", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return section, key, value


def load_config(
    config_path: str | None, overrides: list[str] | None
) -> tuple[dict, dict]:
    """Merge defaults <- file <- --set overrides.

    Returns (merged config, source map section.key -> 'default'|'file'|'set').
    """
    merged = copy.deepcopy(DEFAULTS)
    source = {
        (s, k): "default" for s, body in DEFAULTS.items() for k in body
    }
    if config_path is not None:
        with open(config_path) as fh:
            raw = fh.read()
        try:
            file_cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path}: invalid JSON ({exc})")
        _validate_layer(file_cfg, f"config file {config_path}")
        for section, key in _REQUIRED_IN_FILE:
            if key not in file_cfg.get(section, {}):
                raise ConfigError(
                    f"config file {config_path}: missing required key "
                    f"`{section}.{key}`"
                )
        for section, body in file_cfg.items():
            for key, value in body.items():
                merged[section][key] = value
                source[(section, key)] = "file"
    for spec in overrides or []:
        section, key, value = _parse_set_override(spec)
        _validate_layer({section: {key: value}}, "--set")
        merged[section][key] = value
        source[(section, key)] = "set"
    for section, linear_key, dbm_key in _POWER_PAIRS:
        lin_src = source.get((section, linear_key), "absent")
        dbm_src = source.get((section, dbm_key), "absent")
        lin_user = lin_src in ("file", "set")
        dbm_user = dbm_src in ("file", "set")
        if lin_user and dbm_user:
            raise ConfigError(
                f"`{section}.{linear_key}` and `{section}.{dbm_key}` are "
                "mutually exclusive"
            )
        if lin_user:
            merged[section].pop(dbm_key, None)
        elif dbm_user:
            merged[section].pop(linear_key, None)
    return merged, {f"{s}.{k}": v for (s, k), v in source.items()}


def _linear_power(cfg: dict, linear_key: str, dbm_key: str) -> float:
    body = cfg["system"]
    if linear_key in body:
        return float(body[linear_key])
    return ota.dbm_to_linear(float(body[dbm_key]))


def parse_variant(spec: str, aperture: float = 0.5):
    """Variant string -> (file label, dependence or 'ideal')."""
    if not isinstance(spec, str):
        raise ConfigError(f"variant `{spec!r}` must be a string")
    name = spec.strip().lower()
    if name == "ideal":
        return "ideal", "ideal"
    if name == "independent":
        return "independent", Independent()
    if name in ("fpa", "perfect"):
        return "fpa", PerfectDependence()
    if name.startswith("clayton:"):
        try:
            beta = float(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad clayton variant `{spec}`")
        if not 0 < beta < np.inf:
            raise ConfigError(f"clayton beta must be finite and > 0 in `{spec}`")
        return f"clayton-{beta:g}", Clayton(beta)
    if name == "jakes":
        return "jakes", GaussianJakes(aperture=aperture)
    raise ConfigError(
        f"unknown variant `{spec}` (expected ideal, independent, "
        "clayton:<beta>, fpa, or jakes)"
    )


def _build_plan(cfg: dict) -> montecarlo.McPlan:
    sysc, mc = cfg["system"], cfg["mc"]
    p_max = _linear_power(cfg, "p_max", "p_max_dbm")
    sigma2 = _linear_power(cfg, "sigma2", "sigma2_dbm")
    lo, hi, pts = mc["tau_grid"]
    n_lo, n_hi = mc["n_grid"]
    g_lo, g_hi, g_pts = mc["gain_grid"]
    variants = []
    for spec in mc["variants"]:
        label, dep = parse_variant(spec, aperture=float(sysc["W"]))
        if dep == "ideal":
            raise ConfigError("`ideal` is a training variant, not an mc variant")
        variants.append((label, dep))
    try:
        return montecarlo.McPlan(
            n_users=int(sysc["K"]),
            n_ports=int(sysc["N"]),
            p_max=p_max,
            sigma2=sigma2,
            tau=float(sysc["tau"]),
            s_target=int(mc["s_target"]),
            trials=int(mc["trials"]),
            seed=int(mc["seed"]),
            tau_grid=np.logspace(float(lo), float(hi), int(pts)),
            n_grid=np.arange(int(n_lo), int(n_hi) + 1),
            gain_grid=np.linspace(float(g_lo), float(g_hi), int(g_pts)),
            variants=tuple(variants),
            diag_betas=tuple(float(b) for b in mc["diag_betas"]),
            diag_rows=int(mc["diag_rows"]),
            jakes_aperture=float(sysc["W"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    cfg: dict,
    source: dict,
    seed: int,
    outputs: list[Path],
    started: str,
    status: str,
    telemetry: dict | None = None,
) -> None:
    manifest = {
        "tool": "fluidfed",
        "version": __version__,
        "command": command,
        "seed": seed,
        "status": status,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "config_sources": source,
        "outputs": [
            {"path": p.name, "sha256": _sha256(p)} for p in sorted(outputs)
        ],
    }
    if telemetry is not None:
        manifest["telemetry"] = telemetry
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_failures(reports) -> bool:
    """Print failing grid points; return True when everything passed."""
    ok = True
    for report in reports:
        for p in report.failing_points():
            ok = False
            print(
                f"FAIL {report.label}: x={p.x:g} empirical={p.empirical:.6g} "
                f"analytic={p.analytic:.6g} stderr={p.stderr:.3g}",
                file=sys.stderr,
            )
        mean_check = report.meta.get("mean_check")
        if mean_check is not None and not mean_check["passed"]:
            ok = False
            print(
                f"FAIL {report.label}: mean participation "
                f"{mean_check['empirical_mean']:.4g} vs analytic "
                f"{mean_check['analytic_mean']:.4g}",
                file=sys.stderr,
            )
    return ok


# comparison commands -> montecarlo experiment, looked up when the command runs
_COMPARISONS = {
    "cdf-mse": "run_mse_cdf_experiment",
    "pmf-users": "run_participation_experiment",
    "port-sweep": "run_port_sweep",
}


def _cmd_compare(command: str, cfg: dict, source: dict, out_dir: Path) -> int:
    """Run one analytic-vs-Monte-Carlo experiment; write a CSV per variant."""
    started = datetime.now(timezone.utc).isoformat()
    plan = _build_plan(cfg)
    for label, dep in plan.variants:
        if isinstance(dep, GaussianJakes):
            raise ConfigError(f"`{label}` has no closed form to compare against")
    prefix = _COMMAND_DIRS[command]
    reports = getattr(montecarlo, _COMPARISONS[command])(plan)
    outputs = []
    for label, report in reports.items():
        path = out_dir / f"{prefix}_{label}.csv"
        report.to_csv(path)
        outputs.append(path)
        mean = report.meta.get("mean_check")
        summary = f"sup gap {report.sup_gap:.4g}"
        if mean is not None:
            summary = (f"mean participants {mean['empirical_mean']:.3f} "
                       f"(analytic {mean['analytic_mean']:.3f})")
        print(f"{label}: {summary} ({'pass' if report.all_pass else 'FAIL'})")
    json_path = out_dir / f"{prefix}_report.json"
    blob = {label: report.to_json_dict() for label, report in reports.items()}
    with open(json_path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(json_path)
    ok = _report_failures(reports.values())
    _write_manifest(
        out_dir, command, cfg, source, plan.seed, outputs, started,
        "pass" if ok else "statistical-failure",
        {label: report.telemetry for label, report in reports.items()},
    )
    return 0 if ok else 1


def _cmd_copula_check(cfg: dict, source: dict, out_dir: Path) -> int:
    started = datetime.now(timezone.utc).isoformat()
    plan = _build_plan(cfg)
    diag = montecarlo.run_copula_diagnostics(plan)
    outputs = []
    for label, report in diag.cdf_reports.items():
        path = out_dir / f"copula_check_{label}.csv"
        report.to_csv(path)
        outputs.append(path)
    json_path = out_dir / "copula_check_report.json"
    with open(json_path, "w") as fh:
        json.dump(diag.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(json_path)
    for check in diag.marginal_checks:
        print(
            f"beta={check['beta']:g}: max KS {check['max_ks_statistic']:.5f}, "
            f"min p {check['min_p_value']:.3g} (alpha {check['alpha']:.3g}) "
            f"({'pass' if check['passed'] else 'FAIL'})"
        )
    for check in diag.tau_checks:
        print(
            f"beta={check['beta']:g}: kendall tau {check['empirical_tau']:.4f} "
            f"vs {check['analytic_tau']:.4f} "
            f"({'pass' if check['passed'] else 'FAIL'})"
        )
    print("bessel-model sup gaps (report only):")
    for label, gap in sorted(diag.jakes_gaps.items()):
        print(f"  vs {label}: {gap:.4f}")
    ok = diag.all_pass
    if not ok:
        _report_failures(diag.cdf_reports.values())
        for check in diag.marginal_checks + diag.tau_checks:
            if not check["passed"]:
                print(f"FAIL diagnostics: {check}", file=sys.stderr)
    _write_manifest(
        out_dir, "copula-check", cfg, source, plan.seed, outputs, started,
        "pass" if ok else "statistical-failure",
    )
    return 0 if ok else 1


def _fl_config(cfg: dict, benchmark: str) -> fedlearn.FlConfig:
    fl = cfg["fl"]
    try:
        return fedlearn.FlConfig(
            n_clients=int(fl["clients"]),
            rounds=int(fl["rounds"]),
            n_ports=int(cfg["system"]["N"]),
            lr=float(fl["lr"]),
            batch_size=int(fl["batch"]),
            hidden=int(fl["hidden"]),
            local_steps=int(fl["local_steps"]),
            optimizer=fl["optimizer"],
            benchmark=benchmark,
            data=fl["data"],
            classes=int(fl["classes"]),
            dims=int(fl["dims"]),
            samples=int(fl["samples"]),
            separation=float(fl["separation"]),
            split=float(fl["split"]),
            mnist_images=fl["mnist_images"],
            mnist_labels=fl["mnist_labels"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _train_telemetry(records: list, seconds: float, diverged: bool) -> dict:
    """What one variant's training did and where its time went (not hashed)."""
    updates = sum(r.participants for r in records)
    return {
        "rounds": len(records),
        "skipped_rounds": sum(r.participants == 0 for r in records),
        "client_updates": updates,
        "diverged": diverged,
        "seconds": seconds,
        "updates_per_s": updates / seconds if seconds > 0 else None,
        "round_wall_time": [r.wall_time for r in records],
        "round_norm_scale": [r.norm_scale for r in records],
    }


def _cmd_train(cfg: dict, source: dict, out_dir: Path) -> int:
    started = datetime.now(timezone.utc).isoformat()
    sysc = cfg["system"]
    seed = int(cfg["mc"]["seed"])
    try:  # run_training sets the link's d to the model's parameter count
        link = ota.OtaConfig(
            p_max=_linear_power(cfg, "p_max", "p_max_dbm"),
            sigma2=_linear_power(cfg, "sigma2", "sigma2_dbm"),
            tau=float(sysc["tau"]),
            d=1,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    outputs = []
    diverged = []
    telemetry = {}
    for spec in cfg["fl"]["variants"]:
        label, dep = parse_variant(spec, aperture=float(sysc["W"]))
        benchmark = "ideal" if dep == "ideal" else "ota"
        fl = _fl_config(cfg, benchmark)
        dep_obj = Independent() if dep == "ideal" else dep
        t0 = time.perf_counter()
        try:
            records = fedlearn.run_training(fl, link, dep_obj, seed=seed)
        except fedlearn.TrainingDivergedError as exc:
            records = exc.records
            diverged.append(label)
            print(f"{label}: DIVERGED ({exc})", file=sys.stderr)
        seconds = time.perf_counter() - t0
        telemetry[label] = _train_telemetry(records, seconds, label in diverged)
        csv_path = out_dir / f"train_{label}.csv"
        jsonl_path = out_dir / f"train_{label}.jsonl"
        fedlearn.records_to_csv(records, csv_path)
        fedlearn.records_to_jsonl(records, jsonl_path)
        outputs += [csv_path, jsonl_path]
        if records:
            last = records[-1]
            print(
                f"{label}: {len(records)} rounds, final test acc "
                f"{last.test_acc:.4f}, mean participants "
                f"{np.mean([r.participants for r in records]):.2f}"
            )
    ok = not diverged
    _write_manifest(
        out_dir, "train", cfg, source, seed, outputs, started,
        "pass" if ok else "diverged", telemetry,
    )
    return 0 if ok else 1


def _cmd_bound(cfg: dict, source: dict, out_dir: Path, records_path) -> int:
    started = datetime.now(timezone.utc).isoformat()
    b = cfg["bound"]
    try:
        constants = analytics.ConvergenceConstants(
            lr=float(b["lr"]),
            pl_constant=float(b["pl_constant"]),
            smoothness=float(b["smoothness"]),
            grad_norm_bound=float(b["grad_norm_bound"]),
            grad_variance=float(b["grad_variance"]),
            batch_sizes=int(b["batch"]),
            n_users=int(b["n_users"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if records_path is not None:
        schedule = fedlearn.schedule_from_records(records_path)
    elif b["schedule"] is not None:
        try:
            schedule = [(int(s), float(m)) for s, m in b["schedule"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bound.schedule must be [[participants, mse], ...]: {exc}")
    else:
        schedule = [(int(b["participants"]), float(b["mse"]))] * int(b["rounds"])
    try:
        trajectory = analytics.optimality_gap_trajectory(
            constants, schedule, float(b["f1_gap"])
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    csv_path = out_dir / "bound.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("round,bound\n")
        for t, v in enumerate(trajectory, start=1):
            fh.write(f"{t},{float(v)!r}\n")
    print(
        f"bound: psi={constants.psi:.4f}, {len(schedule)} rounds, "
        f"final value {trajectory[-1]:.6g}"
    )
    _write_manifest(
        out_dir, "bound", cfg, source, int(cfg["mc"]["seed"]), [csv_path],
        started, "pass",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidfed",
        description="fluid-antenna over-the-air federated learning toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        dest="overrides",
        help="override one config key (repeatable)",
    )
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="master seed")
    common.add_argument("--trials", type=int, default=None, help="MC trials")
    for name, help_text in [
        ("cdf-mse", "aggregation-error CDF vs Monte Carlo"),
        ("pmf-users", "participant-count PMF vs Monte Carlo"),
        ("port-sweep", "full-participation probability vs port count"),
        ("copula-check", "copula sampler diagnostics"),
        ("train", "federated training per variant"),
        ("bound", "convergence-bound trajectory"),
    ]:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "train":
            p.add_argument(
                "--benchmark",
                choices=["ideal", "ota"],
                default=None,
                help="restrict to the ideal benchmark or the OTA variants",
            )
        if name == "bound":
            p.add_argument(
                "--records",
                default=None,
                help="round-record CSV to read the (participants, mse) schedule from",
            )
    return parser


_COMMAND_DIRS = {
    "cdf-mse": "cdf_mse",
    "pmf-users": "pmf_users",
    "port-sweep": "port_sweep",
    "copula-check": "copula_check",
    "train": "train",
    "bound": "bound",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, source = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg["mc"]["seed"] = args.seed
            source["mc.seed"] = "flag"
        if args.trials is not None:
            cfg["mc"]["trials"] = args.trials
            source["mc.trials"] = "flag"
        if getattr(args, "benchmark", None) is not None:
            if args.benchmark == "ideal":
                cfg["fl"]["variants"] = ["ideal"]
            else:
                cfg["fl"]["variants"] = [
                    v for v in cfg["fl"]["variants"] if v != "ideal"
                ]
            source["fl.variants"] = "flag"
        out_dir = Path(args.out) if args.out else Path("runs") / _COMMAND_DIRS[args.command]
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command in _COMPARISONS:
            return _cmd_compare(args.command, cfg, source, out_dir)
        if args.command == "copula-check":
            return _cmd_copula_check(cfg, source, out_dir)
        if args.command == "train":
            return _cmd_train(cfg, source, out_dir)
        if args.command == "bound":
            return _cmd_bound(cfg, source, out_dir, args.records)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
