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
state ``system.tau`` explicitly.  One table (``_ROWS``) gives each key's
kind, default and target field; flags are checked like ``--set``, and every
configuration error names its key.

Each command (one row of ``_COMMANDS``) writes its result tables (CSV +
JSON); ``main`` then writes ``manifest.json`` once, recording the tool
version, resolved config, master seed, status, timestamps, and sha256 of
each output.  ``cdf-mse``, ``pmf-users`` and ``port-sweep`` add
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
import dataclasses
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analytics, fedlearn, montecarlo, ota
from .channel import Clayton, GaussianJakes, Independent, PerfectDependence

__all__ = ["main", "ConfigError", "load_config", "parse_variant"]


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message names the key."""


class _Kind(NamedTuple):
    """What a config value must be, and its field form."""

    what: str
    ok: Callable[[object], bool]
    to_field: Callable = lambda value: value


def _is_number(value) -> bool:  # math.isfinite cannot take an int beyond the float range
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and math.isfinite(value))


class _Optional(NamedTuple):
    kind: object  # null, or a value of this kind


_NUMBER = _Kind("a finite number", _is_number, float)
# 3.0 is a count and 3.9 is not: int() would truncate it without a word
_COUNT = _Kind("a whole number >= 0", lambda v: _is_number(v) and v >= 0 and v % 1 == 0, int)
_STRING = _Kind("a string", lambda v: isinstance(v, str))

_FROM_FIELD = object()  # default: the target dataclass field's own default
_UNSET = object()  # no default: only a user sets the key


class _Row(NamedTuple):
    """One config key: its kind, the field it sets, and its default."""

    key: str  # section.key
    kind: object  # _Kind or _Optional; a tuple of kinds is a fixed-layout list, [kind] any length
    field: str | None  # None when a command reads the key itself
    default: object = _FROM_FIELD  # in config form
    convert: Callable | None = None  # field form from the checked value


# fields of McPlan (system, mc), FlConfig (system, fl), OtaConfig (system) and
# ConvergenceConstants (bound), or the argument a later check names
_ROWS = (
    _Row("system.K", _COUNT, "n_users"),
    _Row("system.N", _COUNT, "n_ports"),
    _Row("system.W", _NUMBER, "jakes_aperture"),
    _Row("system.p_max", _NUMBER, "p_max", _UNSET),
    _Row("system.p_max_dbm", _NUMBER, "p_max", 10.0, ota.dbm_to_linear),
    _Row("system.sigma2", _NUMBER, "sigma2"),
    _Row("system.sigma2_dbm", _NUMBER, "sigma2", _UNSET, ota.dbm_to_linear),
    _Row("system.tau", _NUMBER, "tau"),
    _Row("mc.trials", _COUNT, "trials"),
    _Row("mc.seed", _COUNT, "seed"),
    _Row("mc.s_target", _COUNT, "s_target"),
    # grids: log10 start, log10 stop, points; first, last port count; start, stop, points
    _Row("mc.tau_grid", (_NUMBER, _NUMBER, _COUNT), "tau_grid", [1.0, 4.0, 30],
         lambda g: np.logspace(*g)),
    _Row("mc.n_grid", (_COUNT, _COUNT), "n_grid", [1, 20], lambda g: np.arange(g[0], g[1] + 1)),
    _Row("mc.gain_grid", (_NUMBER, _NUMBER, _COUNT), "gain_grid", [0.05, 6.0, 24],
         lambda g: np.linspace(*g)),
    _Row("mc.diag_rows", _COUNT, "diag_rows"),
    _Row("mc.diag_betas", [_NUMBER], "diag_betas"),
    _Row("mc.variants", [_STRING], "variants", ["independent", "clayton:1", "clayton:2", "fpa"]),
    _Row("fl.clients", _COUNT, "n_clients"),
    _Row("fl.rounds", _COUNT, "rounds"),
    _Row("fl.lr", _NUMBER, "lr"),
    _Row("fl.batch", _COUNT, "batch_size"),
    _Row("fl.hidden", _COUNT, "hidden"),
    _Row("fl.local_steps", _COUNT, "local_steps"),
    _Row("fl.optimizer", _STRING, "optimizer"),
    _Row("fl.data", _STRING, "data"),
    _Row("fl.classes", _COUNT, "classes"),
    _Row("fl.dims", _COUNT, "dims"),
    _Row("fl.samples", _COUNT, "samples"),
    _Row("fl.separation", _NUMBER, "separation"),
    _Row("fl.split", _NUMBER, "split"),
    _Row("fl.mnist_images", _Optional(_STRING), "mnist_images"),
    _Row("fl.mnist_labels", _Optional(_STRING), "mnist_labels"),
    _Row("fl.variants", [_STRING], None,
         ["ideal", "independent", "clayton:1", "clayton:2", "fpa"]),
    _Row("bound.lr", _NUMBER, "lr", 0.01),
    _Row("bound.pl_constant", _NUMBER, "pl_constant", 0.5),
    _Row("bound.smoothness", _NUMBER, "smoothness", 4.0),
    _Row("bound.grad_norm_bound", _NUMBER, "grad_norm_bound", 1.0),
    _Row("bound.grad_variance", _NUMBER, "grad_variance", 1.0),
    _Row("bound.batch", _COUNT, "batch_sizes", 32),
    _Row("bound.n_users", _COUNT, "n_users", 10),
    # the trajectory's checks name the first gap and the schedule these four make
    _Row("bound.f1_gap", _NUMBER, "first_round_gap", 1.0),
    _Row("bound.rounds", _COUNT, "schedule", 30),
    _Row("bound.participants", _COUNT, "participants", 10),
    _Row("bound.mse", _NUMBER, "mse", 0.001),
    _Row("bound.schedule", _Optional([(_COUNT, _NUMBER)]), None, None),
)
_ROW = {row.key: row for row in _ROWS}


def _defaults() -> dict:
    fields = {"system": montecarlo.McPlan(), "mc": montecarlo.McPlan(), "fl": fedlearn.FlConfig()}
    out = {}
    for row in _ROWS:
        section, name = row.key.split(".")
        default = row.default
        if default is _FROM_FIELD:
            default = getattr(fields[section], row.field)
            default = list(default) if isinstance(default, tuple) else default
        if default is not _UNSET:
            out.setdefault(section, {})[name] = default
    return out


DEFAULTS = _defaults()


def _checked(origin: str, name: str, kind, value):
    """``value`` in field form; a ConfigError naming ``name`` unless it is of ``kind``."""
    if isinstance(kind, _Optional):
        return None if value is None else _checked(origin, name, kind.kind, value)
    if isinstance(kind, _Kind):
        if not kind.ok(value):
            raise ConfigError(f"{origin}: key `{name}` must be {kind.what}, got {json.dumps(value)}")
        return kind.to_field(value)
    if not isinstance(value, list) or isinstance(kind, tuple) and len(value) != len(kind):
        size = f" of {len(kind)} entries" if isinstance(kind, tuple) else ""
        raise ConfigError(f"{origin}: key `{name}` must be a list{size}")
    kinds = kind if isinstance(kind, tuple) else kind * len(value)
    return tuple(_checked(origin, f"{name}[{i}]", k, v) for i, (k, v) in enumerate(zip(kinds, value)))


def _set(cfg: dict, source: dict, key: str, value, label: str, origin: str) -> None:
    """Check ``value`` against the row of ``key``, then record it as set by ``label``."""
    if key not in _ROW:
        raise ConfigError(f"{origin}: unknown key `{key}`")
    _checked(origin, key, _ROW[key].kind, value)
    section, name = key.split(".")
    cfg[section][name] = value
    source[key] = label


def _parse_set_override(spec: str) -> tuple[str, object]:
    dotted, equals, raw = spec.partition("=")
    if not equals or "." not in dotted:
        raise ConfigError(f"--set expects section.key=value, got `{spec}`")
    try:
        return dotted, json.loads(raw)
    except json.JSONDecodeError:
        return dotted, raw


def load_config(
    config_path: str | None, overrides: list[str] | None
) -> tuple[dict, dict]:
    """Merge defaults <- file <- --set overrides.

    Returns (merged config, source map section.key -> 'default'|'file'|'set').
    """
    merged = copy.deepcopy(DEFAULTS)
    source = {f"{s}.{k}": "default" for s, body in DEFAULTS.items() for k in body}
    if config_path is not None:
        with open(config_path) as fh:
            raw = fh.read()
        origin = f"config file {config_path}"
        try:
            file_cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{origin}: invalid JSON ({exc})")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{origin}: top level must be an object of sections")
        for section, body in file_cfg.items():
            if section not in DEFAULTS:
                raise ConfigError(f"{origin}: unknown section `{section}`")
            if not isinstance(body, dict):
                raise ConfigError(f"{origin}: section `{section}` must be an object")
            for key, value in body.items():
                _set(merged, source, f"{section}.{key}", value, "file", origin)
        if "tau" not in file_cfg.get("system", {}):
            raise ConfigError(f"{origin}: missing required key `system.tau`")
    for spec in overrides or []:
        _set(merged, source, *_parse_set_override(spec), "set", "--set")
    # a user-set member of a power pair retires the other's default
    for linear, dbm in (("p_max", "p_max_dbm"), ("sigma2", "sigma2_dbm")):
        user = {k for k in (linear, dbm) if source.get(f"system.{k}", "default") != "default"}
        if len(user) == 2:
            raise ConfigError(f"`system.{linear}` and `system.{dbm}` are mutually exclusive")
        if user:
            merged["system"].pop(dbm if linear in user else linear, None)
    return merged, source


def _keyed(exc: ValueError, rows, fallback: str | None = None) -> ConfigError:
    """The check's message, led by the key of the row whose field it names first."""
    field = str(exc).split(" ", 1)[0]
    key = next((row.key for row in rows if row.field == field), fallback)
    return ConfigError(f"{key}: {exc}" if key else str(exc))


def _build(cls, cfg: dict, sections: tuple, **given):
    """``cls`` from the rows of ``sections`` that set its fields; errors name the key."""
    values = {f"{s}.{k}": v for s in sections for k, v in cfg[s].items()}
    rows = [row for row in _ROWS if row.key in values]
    names = {f.name for f in dataclasses.fields(cls)} - set(given)
    for row in rows:
        if row.field in names:
            value = _checked(row.key, row.key, row.kind, values[row.key])
            try:  # a grid that overflows to inf is reported by its class's check
                with np.errstate(over="ignore"):
                    given[row.field] = row.convert(value) if row.convert else value
            except OverflowError:
                raise ConfigError(f"{row.key}: {row.field} overflows")
    try:
        return cls(**given)
    except ValueError as exc:
        raise _keyed(exc, rows)


def parse_variant(spec: str, aperture: float = 0.5):
    """Variant string -> (file label, dependence or 'ideal')."""
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


def _variants(cfg: dict, section: str) -> list:
    try:
        variants = [parse_variant(v, aperture=float(cfg["system"]["W"]))
                    for v in cfg[section]["variants"]]
    except ConfigError as exc:
        raise ConfigError(f"{section}.variants: {exc}")
    labels = [label for label, _ in variants]
    for label in labels:
        if labels.count(label) > 1:  # their output files and reports would collide
            raise ConfigError(f"{section}.variants: `{label}` is listed more than once")
    return variants


def _plan(cfg: dict) -> montecarlo.McPlan:
    variants = _variants(cfg, "mc")
    if any(dep == "ideal" for _, dep in variants):
        raise ConfigError("mc.variants: `ideal` is a training variant, not an mc variant")
    return _build(montecarlo.McPlan, cfg, ("system", "mc"), variants=tuple(variants))


def _write_json(path: Path, blob: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_reports(out_dir: Path, prefix: str, reports: dict, blob: dict) -> list[Path]:
    """One CSV per report, then ``blob`` as the summary JSON; the paths written."""
    outputs = []
    for label, report in reports.items():
        outputs.append(out_dir / f"{prefix}_{label}.csv")
        report.to_csv(outputs[-1])
    return outputs + [_write_json(out_dir / f"{prefix}_report.json", blob)]


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


def _cmd_compare(experiment: str, args, cfg: dict, out_dir: Path):
    """Run one analytic-vs-Monte-Carlo experiment; write a CSV per variant."""
    plan = _plan(cfg)
    for label, dep in plan.variants:
        if isinstance(dep, GaussianJakes):
            raise ConfigError(f"mc.variants: `{label}` has no closed form to compare against")
    out_dir.mkdir(parents=True, exist_ok=True)
    # looked up when the command runs, so a wrapper set on montecarlo is the one called
    reports = getattr(montecarlo, experiment)(plan)
    blob = {label: report.to_json_dict() for label, report in reports.items()}
    outputs = _write_reports(out_dir, args.command.replace("-", "_"), reports, blob)
    for label, report in reports.items():
        mean = report.meta.get("mean_check")
        summary = f"sup gap {report.sup_gap:.4g}"
        if mean is not None:
            summary = (f"mean participants {mean['empirical_mean']:.3f} "
                       f"(analytic {mean['analytic_mean']:.3f})")
        print(f"{label}: {summary} ({'pass' if report.all_pass else 'FAIL'})")
    ok = _report_failures(reports.values())
    telemetry = {label: report.telemetry for label, report in reports.items()}
    return outputs, "pass" if ok else "statistical-failure", telemetry


def _cmd_copula_check(args, cfg: dict, out_dir: Path):
    plan = _plan(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    diag = montecarlo.run_copula_diagnostics(plan)
    outputs = _write_reports(out_dir, "copula_check", diag.cdf_reports, diag.to_json_dict())
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
    if not diag.all_pass:
        _report_failures(diag.cdf_reports.values())
        for check in diag.marginal_checks + diag.tau_checks:
            if not check["passed"]:
                print(f"FAIL diagnostics: {check}", file=sys.stderr)
    return outputs, "pass" if diag.all_pass else "statistical-failure", None


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


def _cmd_train(args, cfg: dict, out_dir: Path):
    seed = int(cfg["mc"]["seed"])
    if not cfg["fl"]["variants"]:  # also when --benchmark kept none of them
        raise ConfigError("fl.variants must not be empty")
    link = _build(ota.OtaConfig, cfg, ("system",))
    runs = [
        (label, dep, _build(fedlearn.FlConfig, cfg, ("system", "fl"),
                            benchmark="ideal" if dep == "ideal" else "ota"))
        for label, dep in _variants(cfg, "fl")
    ]
    try:  # the variants share one dataset and partition
        data = fedlearn.training_data(runs[0][2], seed)
    except ValueError as exc:
        raise _keyed(exc, _ROWS)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    diverged = []
    telemetry = {}
    for label, dep, fl in runs:
        dep_obj = Independent() if dep == "ideal" else dep
        t0 = time.perf_counter()
        try:
            records = fedlearn.run_training(fl, link, dep_obj, *data, seed=seed)
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
    return outputs, "diverged" if diverged else "pass", telemetry


def _cmd_bound(args, cfg: dict, out_dir: Path):
    b = cfg["bound"]
    constants = _build(analytics.ConvergenceConstants, cfg, ("bound",))
    origin = None  # the constant schedule of bound.rounds, bound.participants, bound.mse
    if args.records is not None:
        origin = f"--records {args.records}"
        try:
            schedule = fedlearn.schedule_from_records(args.records)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{origin}: {exc}")
    elif b["schedule"] is not None:
        origin, schedule = "bound.schedule", [(int(s), float(m)) for s, m in b["schedule"]]
    else:
        schedule = [(int(b["participants"]), float(b["mse"]))] * int(b["rounds"])
    try:
        trajectory = analytics.optimality_gap_trajectory(constants, schedule, float(b["f1_gap"]))
    except ValueError as exc:
        raise _keyed(exc, [_ROW["bound.f1_gap"]] if origin else _ROWS, origin)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "bound.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("round,bound\n")
        for t, v in enumerate(trajectory, start=1):
            fh.write(f"{t},{float(v)!r}\n")
    print(
        f"bound: psi={constants.psi:.4f}, {len(schedule)} rounds, "
        f"final value {trajectory[-1]:.6g}"
    )
    return [csv_path], "pass", None


# subcommand -> (help, handler); a handler checks its config, makes out_dir,
# writes its data files and returns (those paths, status, telemetry or None)
_COMMANDS = {
    "cdf-mse": ("aggregation-error CDF vs Monte Carlo",
                partial(_cmd_compare, "run_mse_cdf_experiment")),
    "pmf-users": ("participant-count PMF vs Monte Carlo",
                  partial(_cmd_compare, "run_participation_experiment")),
    "port-sweep": ("full-participation probability vs port count",
                   partial(_cmd_compare, "run_port_sweep")),
    "copula-check": ("copula sampler diagnostics", _cmd_copula_check),
    "train": ("federated training per variant", _cmd_train),
    "bound": ("convergence-bound trajectory", _cmd_bound),
}


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
    commands = {name: sub.add_parser(name, parents=[common], help=help_text)
                for name, (help_text, _) in _COMMANDS.items()}
    commands["train"].add_argument(
        "--benchmark", choices=["ideal", "ota"],
        help="restrict to the ideal benchmark or the OTA variants",
    )
    commands["bound"].add_argument(
        "--records", help="round-record CSV to read the (participants, mse) schedule from"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg, source = load_config(args.config, args.overrides)
        flags = [("--seed", "mc.seed", args.seed), ("--trials", "mc.trials", args.trials)]
        if getattr(args, "benchmark", None) is not None:
            kept = ["ideal"] if args.benchmark == "ideal" else [
                v for v in cfg["fl"]["variants"] if v != "ideal"]
            flags.append(("--benchmark", "fl.variants", kept))
        for flag, key, value in flags:
            if value is not None:
                _set(cfg, source, key, value, "flag", flag)
        # commands make out_dir after their config checks: errors leave none
        out_dir = Path(args.out) if args.out else Path("runs") / args.command.replace("-", "_")
        outputs, status, telemetry = _COMMANDS[args.command][1](args, cfg, out_dir)
        manifest = {
            "tool": "fluidfed",
            "version": __version__,
            "command": args.command,
            "seed": int(cfg["mc"]["seed"]),
            "status": status,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "config": cfg,
            "config_sources": source,
            "outputs": [{"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                        for p in sorted(outputs)],
        }
        if telemetry is not None:
            manifest["telemetry"] = telemetry
        _write_json(out_dir / "manifest.json", manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
