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
config file > documented defaults.  Each setting has one way in: powers
are in watts, the two ``fl.mnist_*`` paths together select MNIST, and
``--trials`` is a flag of the three commands that read ``mc.trials``.  A
supplied config file must state ``system.tau`` explicitly.  One table
(``_ROWS``) gives each key's kind, default and target field; flags are
checked like ``--set``, and every configuration error names its key.

Each command (one row of ``_COMMANDS``) checks its config, computes, and
returns its result tables as text by file name; it touches no file.
``main`` alone writes: once the command has returned, it makes the output
directory, writes each table (CSV with LF line ends, JSON, JSONL; one
cell rule in ``_cell``) and then ``manifest.json``, recording the tool
version, resolved config, master seed, status, timestamps, and the sha256
of the bytes it wrote for each table.  A command that fails leaves no
directory.  ``cdf-mse``, ``pmf-users`` and ``port-sweep`` add
per-variant telemetry (seconds, trial blocks, trials and their rate,
failing points, sampling and closed-form seconds), ``copula-check`` its
own per block (rows, ports, sampling, KS, Kendall and max-gain seconds,
worker processes), ``train`` its own (rounds, skipped rounds, client
updates and their rate, seconds per round stage, worker processes,
per-round wall time and norm scale) and ``bound`` its rounds, psi, final
value, seconds, and the path and sha256 of its ``--records`` file.  Every
manifest also records ``peak_rss_mb``: the peak resident set size in MiB
of the process and of its largest forked worker, maxima over the process
lifetime, so a caller running several commands in one process sees its
peak so far.  No hashed output contains any of them.  ``train`` runs its
variants, and ``copula-check`` its per-beta and Bessel blocks, in forked
worker processes (``forked``), up to one per usable CPU, and in-process
with one usable CPU or no ``fork``; their outputs are identical either
way.  The
three comparison commands run in-process: their per-variant work is too
short to pay for a fork.  Exit codes: 0 success,
1 statistical check failure or training divergence, 2 usage/config error,
3 I/O or out-of-memory error.  A statistical failure prints one ``FAIL``
line to stderr per failing grid point, mean, KS or Kendall check, each
worded by its report's ``failures()``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

try:
    import resource
except ImportError:  # no getrusage on this platform: peak RSS is recorded as null
    resource = None

import numpy as np

from . import __version__, analytics, fedlearn, forked, montecarlo, ota
from .channel import Clayton, GaussianJakes, Independent, PerfectDependence

__all__ = ["main", "ConfigError", "load_config", "parse_variant"]


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message names the key."""


class _Kind(NamedTuple):
    """What a config value must be, and its field form."""

    what: str
    ok: Callable[[object], bool]
    to_field: Callable = lambda value: value


def _is_number(value) -> bool:
    """An int or float whose float() is finite: a JSON integer beyond the
    float range is not one."""
    try:  # math.isfinite converts an int first, and raises where it overflows
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


class _Optional(NamedTuple):
    kind: object  # null, or a value of this kind


_NUMBER = _Kind("a finite number", _is_number, float)
# 3.0 is a count and 3.9 is not: int() would truncate it without a word
# (any int counts: a seed may lie beyond the float range)
_COUNT = _Kind("a whole number >= 0",
               lambda v: (type(v) is int or _is_number(v)) and v >= 0 and v % 1 == 0, int)
_STRING = _Kind("a string", lambda v: isinstance(v, str))

_FROM_FIELD = object()  # default: the target dataclass field's own default


def _port_counts(first: int, last: int) -> np.ndarray:
    """The port counts first..last, as int64.  Not np.arange: past the int64
    range it raises OverflowError or warns and wraps, and where the length
    nears 2**63 it returns an empty range.  The samplers also need last + 1
    (no port reached) as an int64."""
    if max(first, last) >= np.iinfo(np.int64).max:
        raise ValueError("n_grid entries must be < 2**63 - 1")
    return np.fromiter(range(first, last + 1), np.int64, max(last - first + 1, 0))


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
    _Row("system.p_max", _NUMBER, "p_max"),
    _Row("system.sigma2", _NUMBER, "sigma2"),
    _Row("system.tau", _NUMBER, "tau"),
    _Row("mc.trials", _COUNT, "trials"),
    _Row("mc.seed", _COUNT, "seed"),
    _Row("mc.s_target", _COUNT, "s_target"),
    # grids: log10 start, log10 stop, points; first, last port count; start, stop, points
    _Row("mc.tau_grid", (_NUMBER, _NUMBER, _COUNT), "tau_grid", [1.0, 4.0, 30],
         lambda g: np.logspace(*g)),
    _Row("mc.n_grid", (_COUNT, _COUNT), "n_grid", [1, 20], lambda g: _port_counts(*g)),
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
    _Row("bound.batch", _COUNT, "batch_size", 32),
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
            except ValueError as exc:  # a grid longer than numpy can index
                raise ConfigError(f"{row.key}: {exc}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise _keyed(exc, rows)


def parse_variant(spec: str, aperture: float):
    """Variant string (case and blanks folded) -> its dependence spec, or
    None for the ideal benchmark."""
    name = spec.strip().lower()
    if name.startswith("clayton:"):
        try:
            return Clayton(float(name[len("clayton:"):]))
        except ValueError as exc:  # not a number, or not a Clayton beta
            raise ConfigError(f"bad clayton variant `{spec}`: {exc}")
    if name == "jakes":
        return GaussianJakes(aperture=aperture)
    named = {"ideal": None, "independent": Independent(), "fpa": PerfectDependence()}
    if name not in named:
        raise ConfigError(f"unknown variant `{spec}` (expected ideal, independent, "
                          "clayton:<beta>, fpa, or jakes)")
    return named[name]


def _variants(cfg: dict, section: str) -> list:
    """The parsed specs of ``section.variants``, None standing for ``ideal``."""
    try:  # GaussianJakes checks the aperture before any variant, or any draw, reads it
        aperture = GaussianJakes(float(cfg["system"]["W"])).aperture
    except ValueError as exc:
        raise ConfigError(f"system.W: {exc}")
    try:
        return [parse_variant(v, aperture) for v in cfg[section]["variants"]]
    except ConfigError as exc:
        raise ConfigError(f"{section}.variants: {exc}")


def _plan(cfg: dict) -> montecarlo.McPlan:
    variants = _variants(cfg, "mc")
    if None in variants:
        raise ConfigError("mc.variants: `ideal` is a training variant, not an mc variant")
    return _build(montecarlo.McPlan, cfg, ("system", "mc"), variants=tuple(variants))


def _cell(value) -> str:
    """None -> empty, bool -> true/false, float -> its repr, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv(header, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _json(blob: dict) -> str:
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def _report_files(prefix: str, reports: dict, blob: dict) -> dict:
    """One CSV per report, then ``blob`` as the summary JSON, by file name."""
    files = {
        f"{prefix}_{label}.csv": _csv(
            ("x", "analytic", "empirical", "stderr", "pass"),
            ((p.x, p.analytic, p.empirical, p.stderr, p.passed) for p in report.points))
        for label, report in reports.items()
    }
    files[f"{prefix}_report.json"] = _json(blob)
    return files


_RECORD_FIELDS = ("round", "participants", "mse", "eta", "train_loss", "test_acc")


def _record_files(label: str, records) -> dict:
    """A variant's round records as CSV and JSONL; wall time and norm scale stay out."""
    rows = [[getattr(r, f) for f in _RECORD_FIELDS] for r in records]
    return {
        f"train_{label}.csv": _csv(_RECORD_FIELDS, rows),
        f"train_{label}.jsonl": "".join(json.dumps(dict(zip(_RECORD_FIELDS, row))) + "\n"
                                        for row in rows),
    }


def _schedule_from_records(text: str) -> list[tuple[int, float]]:
    """The (participants, mse) schedule of a round-record CSV's text.

    Skipped rounds keep participants = 0 and mse = 0; the bound trajectory
    treats them as no-contraction rounds.
    """
    header, *lines = text.splitlines() or [""]
    header = header.strip().split(",")
    try:
        i_part, i_mse = header.index("participants"), header.index("mse")
    except ValueError as exc:
        raise ValueError(f"not a round-record CSV: {exc}") from exc
    rows = (line.split(",") for line in lines)
    return [(int(cells[i_part]), float(cells[i_mse] or 0.0)) for cells in rows]


def _verdict(failures: list) -> str:
    """Print the reports' ``FAIL`` lines to stderr; the command's status from them."""
    for line in failures:
        print(line, file=sys.stderr)
    return "statistical-failure" if failures else "pass"


def _cmd_compare(experiment: str, args, cfg: dict):
    """Run one analytic-vs-Monte-Carlo experiment; a CSV per variant."""
    plan = _plan(cfg)
    for dep in plan.variants:
        if isinstance(dep, GaussianJakes):
            raise ConfigError(f"mc.variants: `{dep.label}` has no closed form to compare against")
    try:  # looked up when the command runs, so a wrapper set on montecarlo is the one called
        reports = getattr(montecarlo, experiment)(plan)
    except ValueError as exc:  # a plan field only this experiment reads, checked before it draws
        raise _keyed(exc, _ROWS)
    blob = {label: report.to_json_dict() for label, report in reports.items()}
    files = _report_files(args.command.replace("-", "_"), reports, blob)
    for label, report in reports.items():
        mean = report.meta.get("mean_check")
        summary = f"sup gap {report.sup_gap:.4g}"
        if mean is not None:
            summary = (f"mean participants {mean['empirical_mean']:.3f} "
                       f"(analytic {mean['analytic_mean']:.3f})")
        print(f"{label}: {summary} ({'pass' if report.all_pass else 'FAIL'})")
    status = _verdict([line for report in reports.values() for line in report.failures()])
    return files, status, {label: report.telemetry for label, report in reports.items()}


def _cmd_copula_check(args, cfg: dict):
    plan = _plan(cfg)
    try:
        diag = montecarlo.run_copula_diagnostics(plan)
    except ValueError as exc:  # a plan it cannot diagnose, checked before it draws
        raise _keyed(exc, _ROWS)
    files = _report_files("copula_check", diag.cdf_reports, diag.to_json_dict())
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
    return files, _verdict(diag.failures()), diag.telemetry


def _train_telemetry(records: list, seconds: float, diverged: bool, workers: int) -> dict:
    """What one variant's training did and where its time went (not hashed)."""
    updates = sum(r.participants for r in records)
    return {
        "rounds": len(records),
        "skipped_rounds": sum(r.participants == 0 for r in records),
        "client_updates": updates,
        "diverged": diverged,
        "seconds": seconds,
        "updates_per_s": updates / seconds if seconds > 0 else None,
        "stage_seconds": {stage: sum(r.stage_s[i] for r in records)
                          for i, stage in enumerate(fedlearn.STAGES)},
        "worker_processes": workers,
        "round_wall_time": [r.wall_time for r in records],
        "round_norm_scale": [r.norm_scale for r in records],
    }


def _train_variant(runs: list, link, data, seed: int, i: int):
    """Train run ``i`` of ``runs`` (label, (dep, FlConfig)): its label,
    records, seconds and divergence message (None when it did not diverge)."""
    label, (dep, fl) = runs[i]
    t0 = time.perf_counter()
    try:
        records, diverged = fedlearn.run_training(fl, link, dep, *data, seed=seed), None
    except fedlearn.TrainingDivergedError as exc:
        records, diverged = exc.records, str(exc)
    return label, records, time.perf_counter() - t0, diverged


def _cmd_train(args, cfg: dict):
    seed = int(cfg["mc"]["seed"])
    if not cfg["fl"]["variants"]:
        raise ConfigError("fl.variants must not be empty")
    link = _build(ota.OtaConfig, cfg, ("system",))
    variants = _variants(cfg, "fl")
    fl = _build(fedlearn.FlConfig, cfg, ("system", "fl"), benchmark="ota")
    runs = {}  # label -> (dep, FlConfig), in config order
    for dep in variants:
        label = "ideal" if dep is None else dep.label
        if label in runs:  # the second run would overwrite the first's files
            raise ConfigError(f"fl.variants: `{label}` is listed more than once")
        runs[label] = dep, dataclasses.replace(fl, benchmark="ideal") if dep is None else fl
    try:  # the variants differ in benchmark only: they share one dataset and partition
        data = fedlearn.training_data(fl, seed)
    except ValueError as exc:
        raise _keyed(exc, _ROWS)
    files = {}
    diverged = []
    telemetry = {}
    workers = forked.workers(len(runs))  # the variants are independent
    task = partial(_train_variant, list(runs.items()), link, data, seed)
    for label, records, seconds, error in forked.forked_map(task, len(runs), workers):
        if error is not None:
            diverged.append(label)
            print(f"{label}: DIVERGED ({error})", file=sys.stderr)
        telemetry[label] = _train_telemetry(records, seconds, error is not None, workers)
        files.update(_record_files(label, records))
        if records:
            last = records[-1]
            print(
                f"{label}: {len(records)} rounds, final test acc "
                f"{last.test_acc:.4f}, mean participants "
                f"{np.mean([r.participants for r in records]):.2f}"
            )
    return files, "diverged" if diverged else "pass", telemetry


def _cmd_bound(args, cfg: dict):
    b = cfg["bound"]
    constants = _build(analytics.ConvergenceConstants, cfg, ("bound",))
    origin = None  # the constant schedule of bound.rounds, bound.participants, bound.mse
    records = None
    if args.records is not None:
        origin = f"--records {args.records}"
        data = Path(args.records).read_bytes()
        records = {"path": args.records, "sha256": hashlib.sha256(data).hexdigest()}
        try:
            schedule = _schedule_from_records(data.decode())
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{origin}: {exc}")
    elif b["schedule"] is not None:
        origin, schedule = "bound.schedule", [(int(s), float(m)) for s, m in b["schedule"]]
    else:
        schedule = [(int(b["participants"]), float(b["mse"]))] * int(b["rounds"])
    t0 = time.perf_counter()
    try:
        trajectory = analytics.optimality_gap_trajectory(constants, schedule, float(b["f1_gap"]))
    except ValueError as exc:
        raise _keyed(exc, [_ROW["bound.f1_gap"]] if origin else _ROWS, origin)
    telemetry = {"rounds": len(schedule), "psi": constants.psi, "final_value": float(trajectory[-1]),
                 "seconds": time.perf_counter() - t0, "records": records}
    print(f"bound: psi={constants.psi:.4f}, {len(schedule)} rounds, final value {trajectory[-1]:.6g}")
    rows = enumerate(map(float, trajectory), start=1)
    return {"bound.csv": _csv(("round", "bound"), rows)}, "pass", telemetry


# subcommand -> (help, handler); a handler (args, cfg) checks its config,
# computes, and returns ({file name: text}, status, telemetry);
# it writes nothing, main writes and hashes the files
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
    common.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override one config key (repeatable)")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="master seed")
    commands = {name: sub.add_parser(name, parents=[common], help=help_text)
                for name, (help_text, _) in _COMMANDS.items()}
    for name in ("cdf-mse", "pmf-users", "port-sweep"):  # the readers of mc.trials
        commands[name].add_argument("--trials", type=int, default=None, help="MC trials")
    commands["bound"].add_argument(
        "--records", help="round-record CSV to read the (participants, mse) schedule from"
    )
    return parser


def _peak_rss_mb() -> dict:
    """Peak resident set size in MiB of this process and of its waited-for
    children (the forked workers' largest), each a maximum over the process
    lifetime so far; null where there is no ``resource`` module."""
    if resource is None:
        return {"process": None, "workers": None}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
    return {who: resource.getrusage(which).ru_maxrss * unit / 2**20
            for who, which in (("process", resource.RUSAGE_SELF), ("workers", resource.RUSAGE_CHILDREN))}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg, source = load_config(args.config, args.overrides)
        flags = [("--seed", "mc.seed", args.seed),
                 ("--trials", "mc.trials", getattr(args, "trials", None))]
        for flag, key, value in flags:
            if value is not None:
                _set(cfg, source, key, value, "flag", flag)
        # the import-time heap is never garbage: frozen, no later collection
        # walks it (in the command, in its forked workers, or at shutdown).
        # Once per process: each later freeze would keep a repeated in-process
        # caller's uncollected cyclic garbage for good
        if not gc.get_freeze_count():
            gc.freeze()
        files, status, telemetry = _COMMANDS[args.command][1](args, cfg)
        # made only now, so a command that fails leaves no directory
        out_dir = Path(args.out) if args.out else Path("runs") / args.command.replace("-", "_")
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = []
        for name, text in sorted(files.items()):
            data = text.encode()
            (out_dir / name).write_bytes(data)
            outputs.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
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
            "outputs": outputs,
            "telemetry": telemetry,
            "peak_rss_mb": _peak_rss_mb(),
        }
        (out_dir / "manifest.json").write_text(_json(manifest))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size no allocation can hold: no traceback, no directory
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
