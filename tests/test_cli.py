"""End-to-end CLI tests: config precedence, exit codes, outputs, manifests."""

import dataclasses
import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fluidfed import __version__, analytics, cli, fedlearn
from fluidfed import montecarlo as mc
from fluidfed.cli import ConfigError, load_config, main, parse_variant
from fluidfed.channel import Clayton, GaussianJakes, Independent, PerfectDependence, SamplingError
from fluidfed.fedlearn import FlConfig
from fluidfed.montecarlo import BLOCK_USERS, DEFAULT_VARIANTS, McPlan
from fluidfed.ota import OtaConfig

FAST_MC = [
    "--set", "mc.trials=400",
    "--set", "mc.tau_grid=[1.0,3.0,6]",
    "--set", "mc.n_grid=[1,6]",
    "--set", "mc.diag_rows=20000",
    "--set", "mc.diag_betas=[1.0]",
]
FAST_FL = [
    "--set", "fl.rounds=2",
    "--set", "fl.samples=200",
    "--set", "fl.clients=3",
    "--set", 'fl.variants=["ideal","independent"]',
]
DEFAULT_FL_VARIANTS = ["--set", f"fl.variants={json.dumps(cli.DEFAULTS['fl']['variants'])}"]


# ------------------------------------------------------------- config


def test_defaults_need_no_file():
    cfg, source = load_config(None, None)
    assert cfg["system"]["tau"] == 0.05
    assert cfg["system"]["K"] == 20
    assert source["system.tau"] == "default"


def test_default_tables_agree():
    # the config table reads every default from its dataclass field except
    # where the config form differs; those rows must build the field defaults
    cfg, _ = load_config(None, None)
    plan, reference = cli._plan(cfg), McPlan()
    for name in ("tau_grid", "n_grid", "gain_grid"):
        ours, theirs = getattr(plan, name), getattr(reference, name)
        assert np.array_equal(ours, theirs) and ours.dtype == theirs.dtype, name
    assert cfg["system"]["p_max"] == plan.p_max == reference.p_max
    assert plan.variants == DEFAULT_VARIANTS
    fl_variants = [parse_variant(spec, 0.5) for spec in cfg["fl"]["variants"]]
    assert fl_variants == [None, *DEFAULT_VARIANTS]


def test_file_must_state_tau(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"system": {"K": 5}}))
    with pytest.raises(ConfigError, match="system.tau"):
        load_config(str(p), None)
    p.write_text(json.dumps({"system": {"K": 5, "tau": 0.1}}))
    cfg, source = load_config(str(p), None)
    assert cfg["system"]["K"] == 5 and cfg["system"]["tau"] == 0.1
    assert source["system.K"] == "file"
    assert source["system.N"] == "default"


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"system": {"tau": 0.1, "bogus": 1}}))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(p), None)
    p.write_text(json.dumps({"nosuch": {}}))
    with pytest.raises(ConfigError, match="nosuch"):
        load_config(str(p), None)


def test_type_errors_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"system": {"tau": "high"}}))
    with pytest.raises(ConfigError, match="system.tau"):
        load_config(str(p), None)
    # bool is not accepted where a number is expected
    p.write_text(json.dumps({"system": {"tau": True}}))
    with pytest.raises(ConfigError):
        load_config(str(p), None)


def test_set_overrides_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"system": {"tau": 0.1, "K": 7}}))
    cfg, source = load_config(str(p), ["system.K=9"])
    assert cfg["system"]["K"] == 9
    assert source["system.K"] == "set"


def test_set_parses_json_values():
    cfg, _ = load_config(None, ['mc.variants=["fpa"]', "mc.trials=55"])
    assert cfg["mc"]["variants"] == ["fpa"]
    assert cfg["mc"]["trials"] == 55
    with pytest.raises(ConfigError):
        load_config(None, ["notdotted=3"])
    with pytest.raises(ConfigError):
        load_config(None, ["mc.trials"])


def test_each_setting_has_one_key():
    # powers are in watts, and the two IDX paths select MNIST
    assert len(cli._ROWS) == 42
    for key in ("system.p_max_dbm", "system.sigma2_dbm", "fl.data"):
        with pytest.raises(ConfigError, match=f"unknown key `{key}`"):
            load_config(None, [f"{key}=1"])
    assert "data" not in {f.name for f in dataclasses.fields(FlConfig)}


def test_bad_json_is_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(p), None)


def test_parse_variant_forms():
    # the spec names itself; parse_variant only reads the config spellings
    assert parse_variant(" Ideal ", 0.5) is None
    assert parse_variant("independent", 0.5) == Independent()
    assert parse_variant("clayton:2.5", 0.5) == Clayton(2.5)
    assert parse_variant("FPA", 0.5) == PerfectDependence()
    assert parse_variant("jakes", 0.7) == GaussianJakes(aperture=0.7)
    with pytest.raises(ConfigError, match="could not convert"):
        parse_variant("clayton:x", 0.5)
    with pytest.raises(ConfigError, match="clayton beta must be finite and > 0"):
        parse_variant("clayton:-1", 0.5)
    for name in ("dipole", "perfect"):
        with pytest.raises(ConfigError, match=f"unknown variant `{name}`"):
            parse_variant(name, 0.5)


# ------------------------------------------------------------ commands


def test_missing_config_file_exits_3(tmp_path, capsys):
    rc = main(["cdf-mse", "--config", str(tmp_path / "absent.json")])
    assert rc == 3
    assert "I/O error" in capsys.readouterr().err


def test_config_error_exits_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"system": {"K": 5}}))
    rc = main(["pmf-users", "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "system.tau" in err


@pytest.mark.parametrize("command, key", [("cdf-mse", "mc.trials"), ("bound", "bound.rounds")])
def test_fractional_counts_exit_2(tmp_path, capsys, command, key):
    # int() would truncate 3.9 to 3 and run silently
    rc = main([command, "--out", str(tmp_path / "a"), "--set", f"{key}=3.9"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "whole number" in err
    assert not (tmp_path / "a" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, spec, key",
    [
        ("port-sweep", "mc.n_grid=[1,8.7]", "mc.n_grid[1]"),
        ("cdf-mse", "mc.tau_grid=[1.0,3.0,6.9]", "mc.tau_grid[2]"),
        ("copula-check", "mc.gain_grid=[0.05,6.0,2.5]", "mc.gain_grid[2]"),
    ],
)
def test_fractional_list_counts_exit_2(tmp_path, capsys, command, spec, key):
    # int() would sweep n = 1..8 or truncate the point count without a word
    rc = main([command, "--out", str(tmp_path / "a"), "--set", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "whole number" in err
    assert not (tmp_path / "a" / "manifest.json").exists()


MNIST = ["--set", "fl.mnist_labels={idx}/labels.idx"]


def _write_idx_pair(directory, n):
    """``images.idx`` (n 2x2 images) and ``labels.idx`` in ``directory``."""
    pixels = np.random.default_rng(0).integers(0, 256, (n, 4), dtype=np.uint8)
    (directory / "images.idx").write_bytes(struct.pack(">IIII", 2051, n, 2, 2) + pixels.tobytes())
    labels = (np.arange(n) % 3).astype(np.uint8)
    (directory / "labels.idx").write_bytes(struct.pack(">II", 2049, n) + labels.tobytes())


def _flags(n, command, flags, message):
    # a row whose spec is a list of flags, under the id pytest gave it by
    # position ("spec<n>"), pinned so that inserting a row renames no test
    return pytest.param(command, flags, message, id=f"{command}-spec{n}-{message}")


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("cdf-mse", "system.N=0", "n_ports must be >= 1"),
        ("pmf-users", "system.tau=-1", "tau must be finite and > 0"),
        ("port-sweep", "mc.n_grid=[0,5]", "n_grid entries must be >= 1"),
        ("port-sweep", "mc.n_grid=[5,3]", "n_grid must not be empty"),
        # np.arange would raise OverflowError, or warn and wrap; a sampler needs N + 1 as an int64
        ("port-sweep", "mc.n_grid=[1e30,1e30]", "mc.n_grid: n_grid entries must be < 2**63 - 1"),
        ("port-sweep", "mc.n_grid=[9223372036854775807,9223372036854775807]",
         "mc.n_grid: n_grid entries must be < 2**63 - 1"),
        ("cdf-mse", "mc.tau_grid=[1.0,4.0,0]", "tau_grid must not be empty"),
        ("cdf-mse", "mc.tau_grid=[1.0,4.0,-1]", "`mc.tau_grid[2]` must be a whole number >= 0"),
        ("cdf-mse", "mc.tau_grid=[1.0,Infinity,5]", "`mc.tau_grid[1]` must be a finite number"),
        ("cdf-mse", "mc.seed=-1", "`mc.seed` must be a whole number >= 0"),
        _flags(9, "cdf-mse", ["--seed", "-1"], "--seed: key `mc.seed` must be a whole number >= 0"),
        _flags(10, "pmf-users", ["--trials", "0"], "mc.trials: trials must be >= 1"),
        ("copula-check", "mc.diag_rows=0", "diag_rows must be >= 1"),
        ("copula-check", "mc.diag_betas=[]", "diag_betas must not be empty"),
        ("copula-check", "mc.diag_betas=[0]", "diag_betas must be finite and > 0"),
        ("copula-check", "mc.diag_betas=[true]", "`mc.diag_betas[0]` must be a finite number"),
        # both labelled `clayton-2`: one report and CSV would silently replace the other
        ("copula-check", "mc.diag_betas=[2,2.0000001]", "`clayton-2` is listed more than once"),
        ("copula-check", "mc.gain_grid=[-1.0,6.0,24]", "gain_grid entries must be >= 0"),
        # the Kendall check pairs the first two ports; run_copula_diagnostics rejects both
        pytest.param("copula-check", "system.N=1", "system.N: n_ports must be >= 2",
                     id="copula-check-system.N=1-needs two ports"),
        # kendalltau of one row is NaN, which the run would report as a statistical failure
        pytest.param("copula-check", "mc.diag_rows=1", "mc.diag_rows: diag_rows must be >= 2",
                     id="copula-check-mc.diag_rows=1-needs two rows"),
        ("cdf-mse", "mc.variants=[]", "variants must not be empty"),
        ("cdf-mse", 'mc.variants=["jakes"]', "`jakes` has no closed form"),
        ("port-sweep", 'mc.variants=["fpa","jakes"]', "`jakes` has no closed form"),
        ("pmf-users", 'mc.variants=["clayton:1e999"]', "clayton beta must be finite"),
        # both labelled `fpa`: one report would silently replace the other
        ("pmf-users", 'mc.variants=["fpa"," FPA "]', "`fpa` is listed more than once"),
        ("cdf-mse", "mc.variants=[3]", "must be a string"),
        ("train", 'fl.variants=["clayton:1e999"]', "clayton beta must be finite"),
        ("train", "fl.variants=[]", "fl.variants must not be empty"),
        # both labelled `clayton-2`: the second run would overwrite the first's files
        ("train", 'fl.variants=["clayton:2","clayton:2.0"]', "`clayton-2` is listed more than once"),
        ("train", "system.tau=-1", "tau must be finite and > 0"),
        ("train", "fl.split=1.5", "split must be in (0, 1]"),
        ("train", "fl.batch=0", "fl.batch: batch_size must be >= 1"),
        ("train", "fl.separation=NaN", "`fl.separation` must be a finite number"),
        ("train", "fl.lr=1e999", "`fl.lr` must be a finite number"),
        # both IDX paths select MNIST, so one alone is an error naming the other
        _flags(29, "train", ["--set", "fl.mnist_labels=labels.idx"],
               "fl.mnist_images: mnist_images must name an IDX file"),
        ("train", "fl.clients=5000", "fl.clients: n_clients must be <= 1800"),
        # {idx} is a directory holding a 20-image IDX pair, 18 of them for training
        _flags(31, "train",
               [*MNIST, "--set", "fl.mnist_images={idx}/images.idx", "--set", "fl.clients=50"],
               "fl.clients: n_clients must be <= 18"),
        _flags(32, "train", [*MNIST, "--set", "fl.mnist_images={idx}/labels.idx"],
               "labels.idx has magic 2049, expected 2051"),
        ("train", "fl.classes=0", "fl.classes: classes must be >= 2"),
        ("train", "fl.samples=0", "fl.samples: samples must be >= 2"),
        ("train", "fl.samples=1", "fl.samples: samples must be >= 2"),
        # one row fits one client, and would leave every round's test split empty
        _flags(36, "train", ["--set", "fl.samples=1", "--set", "fl.clients=1"],
               "fl.samples: samples must be >= 2"),
        ("train", "fl.dims=0", "fl.dims: dims must be >= classes"),
        ("bound", "bound.rounds=0", "at least one round"),
        ("bound", "bound.participants=11", "bound.participants: participants must be in 1..n_users"),
        ("bound", "bound.f1_gap=NaN", "`bound.f1_gap` must be a finite number"),
        ("bound", "bound.f1_gap=-1", "bound.f1_gap: first_round_gap must be >= 0"),
        ("bound", "bound.grad_variance=-1", "bound.grad_variance: grad_variance must be >= 0"),
        ("bound", "bound.batch=0", "bound.batch: batch_size must be >= 1"),
        ("bound", "bound.schedule=[[3.5,0.1]]", "`bound.schedule[0][0]` must be a whole number >= 0"),
        # train sends vectors of the model's parameter count
        ("train", "system.d=1000", "unknown key `system.d`"),
        # 10^400 overflows to inf, which the report would write as `Infinity`
        ("cdf-mse", "mc.tau_grid=[1.0,400,5]", "mc.tau_grid: tau_grid entries must be finite"),
        # an infinite participation threshold, or 1/(p_max*tau) of the error CDF
        ("pmf-users", "system.p_max=1e-320", "system.p_max: p_max makes sigma2/(p_max*tau) overflow"),
        ("port-sweep", "system.tau=1e-310", "system.tau: tau makes sigma2/(p_max*tau) overflow"),
        _flags(47, "pmf-users", ["--set", "system.sigma2=1e300", "--set", "system.tau=1e-10"],
               "system.tau: tau makes sigma2/(p_max*tau) overflow"),
        _flags(48, "cdf-mse", ["--set", "system.p_max=1e-310", "--set", "system.sigma2=1e-300"],
               "system.p_max: p_max makes 1/(p_max*min(tau_grid)) overflow"),
        # 10^-400 underflows to 0, which the error CDF cannot take
        ("cdf-mse", "mc.tau_grid=[-400,1,5]", "mc.tau_grid: tau_grid makes 1/(p_max*min(tau_grid)) overflow"),
        # train checks its link as the Monte-Carlo commands do
        ("train", "system.p_max=1e-320", "system.p_max: p_max makes sigma2/(p_max*tau) overflow"),
        ("train", "system.tau=1e-310", "system.tau: tau makes sigma2/(p_max*tau) overflow"),
        # a negative aperture is named before any draw, and before jakes is built
        _flags(57, "train", ["--set", "system.W=-1", "--set", 'fl.variants=["jakes"]'],
               "system.W: aperture must be >= 0"),
        _flags(58, "cdf-mse", ["--set", "system.W=-1", "--set", 'mc.variants=["jakes"]'],
               "system.W: aperture must be >= 0"),
        ("copula-check", "system.W=-1", "system.W: aperture must be >= 0"),
        # 1e308 is finite, but the Bessel argument 2*pi*W overflows
        _flags(62, "train", ["--set", "system.W=1e308", "--set", 'fl.variants=["jakes"]'],
               "system.W: aperture must be >= 0"),
        ("copula-check", "system.W=1e308", "system.W: aperture must be >= 0"),
        # an int beyond the float range is no finite number, as 1e999 is not
        ("pmf-users", "system.p_max=1" + "0" * 400, "`system.p_max` must be a finite number"),
        ("pmf-users", "system.W=1" + "0" * 400, "`system.W` must be a finite number"),
    ],
)
def test_unsupported_values_exit_2(tmp_path, capsys, command, spec, message):
    # exit 1 means a statistical failure, so a value no run can use must be
    # rejected before it reaches the simulation, and before the output
    # directory is made; a list is the flags themselves
    args = ["--set", spec] if isinstance(spec, str) else spec
    if any("{idx}" in arg for arg in args):
        _write_idx_pair(tmp_path, 20)
        args = [arg.format(idx=tmp_path) for arg in args]
    rc = main([command, "--out", str(tmp_path / "a" / "nested"), *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert isinstance(spec, list) or spec.split("=")[0] in err
    assert not (tmp_path / "a").exists()


def test_a_seed_may_lie_beyond_the_float_range(tmp_path):
    # counts take any int; SeedSequence takes an int of any size
    assert main(["pmf-users", "--out", str(tmp_path), *FAST_MC, "--set", "mc.seed=1" + "0" * 400]) == 0


@pytest.mark.parametrize(
    "text", ["round,mse\n1,0.1\n", "round,participants,mse\n1,x,0.1\n", "participants,mse\n4\n"]
)
def test_malformed_records_exit_2(tmp_path, capsys, text):
    records = tmp_path / "records.csv"
    records.write_text(text)
    rc = main(["bound", "--out", str(tmp_path / "a"), "--records", str(records)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(records) in err
    assert not (tmp_path / "a" / "manifest.json").exists()


@pytest.mark.parametrize("specs, message", [
    (["bound.lr=0.5", "bound.pl_constant=3"], "bound.pl_constant: pl_constant makes psi"),
    (["bound.lr=0.9", "bound.pl_constant=3"], "bound.pl_constant: pl_constant makes psi"),
    (["bound.lr=0.5", "bound.pl_constant=1e308"], "bound.pl_constant: pl_constant makes psi"),
    (["bound.smoothness=1e308", "bound.mse=10"], "the bound overflows at round 1"),
])
def test_a_bound_that_bounds_nothing_exits_2(tmp_path, capsys, specs, message):
    # psi < 0 makes rounds negative or alternate in sign, and an overflowing
    # recursion makes them inf: neither is an upper bound, so nothing is written
    args = [arg for spec in specs for arg in ("--set", spec)]
    assert main(["bound", "--out", str(tmp_path / "a"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "a").exists()


def test_grid_lists_must_have_their_layout(tmp_path, capsys):
    assert main(["port-sweep", "--out", str(tmp_path), "--set", "mc.n_grid=[1,4,8]"]) == 2
    assert "mc.n_grid" in capsys.readouterr().err
    # a whole float point count is accepted, like the scalar counts
    cfg, _ = load_config(None, ["mc.tau_grid=[1.0,3.0,8.0]"])
    assert cfg["mc"]["tau_grid"] == [1.0, 3.0, 8.0]


def test_threads_flag_and_key_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cdf-mse", "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert main(["cdf-mse", "--out", str(tmp_path), "--set", "mc.threads=1"]) == 2
    assert "unknown key `mc.threads`" in capsys.readouterr().err


def test_train_benchmark_flag_is_gone(tmp_path):
    # `--set fl.variants=[...]` is the one way to choose the variants
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path), *FAST_FL, "--benchmark", "ota"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["copula-check", "train", "bound"])
def test_trials_is_a_flag_only_where_mc_trials_is_read(tmp_path, command):
    # cdf-mse, pmf-users and port-sweep read mc.trials; the others never did
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "a"), "--trials", "5"])
    assert exc.value.code == 2
    assert not (tmp_path / "a").exists()
    for reader in ("cdf-mse", "pmf-users", "port-sweep"):
        assert cli.build_parser().parse_args([reader, "--trials", "5"]).trials == 5


@pytest.mark.parametrize(
    "command, spec",
    [("cdf-mse", "mc.tau_grid=[1,4,1000000000000000]"),
     ("copula-check", "mc.diag_rows=1000000000000000")],
)
def test_an_allocation_no_machine_can_hold_exits_3(tmp_path, capsys, command, spec):
    # 10^15 float64 values are 7.1 PiB, beyond any process's address space,
    # so numpy's request fails at once, before it touches memory
    rc = main([command, "--out", str(tmp_path / "a"), "--set", spec])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "a").exists()


def test_a_grid_numpy_cannot_index_is_a_config_error(tmp_path, capsys):
    rc = main(["port-sweep", "--out", str(tmp_path / "a"), "--set", "mc.n_grid=[1,1e30]"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: mc.n_grid: ")
    assert not (tmp_path / "a").exists()


def test_readme_config_block_shows_the_defaults():
    # the README's ```json block may leave keys out, but every key it shows
    # exists and holds its default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    for section, body in json.loads(block).items():
        for key, value in body.items():
            assert key in cli.DEFAULTS[section] and cli.DEFAULTS[section][key] == value, (section, key)


def test_whole_float_counts_are_accepted(tmp_path):
    assert main(["bound", "--out", str(tmp_path), "--set", "bound.rounds=3.0"]) == 0
    assert len((tmp_path / "bound.csv").read_text().splitlines()) == 4


def test_ideal_is_not_an_mc_variant(tmp_path, capsys):
    rc = main(
        ["cdf-mse", "--out", str(tmp_path), "--set", 'mc.variants=["ideal"]']
    )
    assert rc == 2


def test_cdf_mse_run_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["cdf-mse", "--out", str(out), *FAST_MC])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert "cdf_mse_independent.csv" in names
    assert "cdf_mse_fpa.csv" in names
    assert "cdf_mse_report.json" in names
    assert "manifest.json" in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "cdf-mse"
    assert manifest["status"] == "pass"
    assert manifest["config"]["mc"]["trials"] == 400
    assert manifest["config_sources"]["mc.trials"] == "set"
    # manifest hashes actually match the files on disk
    import hashlib

    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


# a gate that fails: one grid point outside its band
DOCTORED = mc.ComparisonReport("doctored", [mc.GridPointCheck(1.0, 0.9, 0.1, 0.01, False)])


@pytest.mark.parametrize(
    "command, extra, doctored",
    [
        ("cdf-mse", FAST_MC, False),
        ("pmf-users", FAST_MC, False),
        ("port-sweep", FAST_MC, False),
        ("copula-check", FAST_MC, False),
        ("train", FAST_FL, False),
        ("bound", [], False),
        ("bound", ["--records", "{records}"], False),
        ("cdf-mse", FAST_MC, True),
    ],
    ids=["cdf-mse", "pmf-users", "port-sweep", "copula-check", "train", "bound",
         "bound-records", "cdf-mse-failing-gate"],
)
def test_manifest_lists_every_output(tmp_path, monkeypatch, command, extra, doctored):
    records = tmp_path / "records.csv"
    records.write_text("round,participants,mse\n1,3,0.01\n2,0,\n")
    if doctored:
        monkeypatch.setattr(mc, "run_mse_cdf_experiment", lambda plan: {"doctored": DOCTORED})
    out = tmp_path / "out"
    args = [arg.format(records=records) for arg in extra]
    assert main([command, "--out", str(out), "--seed", "5", *args]) == (1 if doctored else 0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "fluidfed" and manifest["version"] == __version__
    assert manifest["command"] == command and manifest["seed"] == 5
    assert manifest["status"] == ("statistical-failure" if doctored else "pass")
    on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "manifest.json"}
    assert on_disk and len(manifest["outputs"]) == len(on_disk)
    assert {entry["path"]: entry["sha256"] for entry in manifest["outputs"]} == on_disk
    assert manifest["telemetry"]
    assert set(manifest["peak_rss_mb"]) == {"process", "workers"}
    assert manifest["peak_rss_mb"]["process"] > 0
    # every data file has LF line ends, the Monte-Carlo CSVs included
    assert not [p.name for p in out.iterdir() if b"\r" in p.read_bytes()]


@pytest.mark.parametrize("command, extra", [("cdf-mse", FAST_MC), ("train", FAST_FL)],
                         ids=["cdf-mse", "train"])
def test_failing_command_leaves_no_directory(tmp_path, monkeypatch, command, extra):
    # cdf-mse fails in its experiment, train in its OTA variant: keyed on the
    # variant, as a forked worker counts only its own calls
    run_training = fedlearn.run_training

    def fail(*args, **kwargs):
        raise SamplingError("sampler produced a nonfinite draw")

    def ota_run_fails(fl, link, dep, *args, **kwargs):
        return (run_training if dep is None else fail)(fl, link, dep, *args, **kwargs)

    monkeypatch.setattr(mc, "run_mse_cdf_experiment", fail)
    monkeypatch.setattr(fedlearn, "run_training", ota_run_fails)
    with pytest.raises(SamplingError):
        main([command, "--out", str(tmp_path / "a" / "nested"), *extra])
    assert not (tmp_path / "a").exists()


def test_failed_mean_check_counts_as_a_failing_point(tmp_path, monkeypatch):
    # only the participation mean check calls montecarlo.qualify_probability
    qualify = mc.qualify_probability
    monkeypatch.setattr(mc, "qualify_probability", lambda *args: 1.2 * qualify(*args))
    assert main(["pmf-users", "--out", str(tmp_path), *FAST_MC, "--trials", "2000"]) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    report = json.loads((tmp_path / "pmf_users_report.json").read_text())
    assert set(manifest["telemetry"]) == set(report)
    for label, block in manifest["telemetry"].items():
        assert report[label]["all_pass"] is False
        assert report[label]["meta"]["mean_check"]["passed"] is False
        points = sum(not p["pass"] for p in report[label]["points"])
        assert block["failing_points"] == points + 1, label


def _train(fl, link, dep, seed):
    return fedlearn.run_training(fl, link, dep, *fedlearn.training_data(fl, seed), seed=seed)


def test_round_records_serialize_and_read_back():
    fl = FlConfig(n_clients=3, rounds=4, samples=200, classes=2, dims=4)
    link = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.2)
    records = _train(fl, link, PerfectDependence(), seed=21)
    files = cli._record_files("run", records)
    assert set(files) == {"train_run.csv", "train_run.jsonl"}

    text = files["train_run.csv"].splitlines()
    assert text[0] == "round,participants,mse,eta,train_loss,test_acc"
    assert len(text) == 5

    lines = [json.loads(s) for s in files["train_run.jsonl"].splitlines()]
    for rec, blob in zip(records, lines):
        assert blob["round"] == rec.round
        assert blob["participants"] == rec.participants
        assert blob["mse"] == rec.mse  # None -> null round-trips

    sched = cli._schedule_from_records(files["train_run.csv"])
    assert sched == [
        (r.participants, r.mse if r.mse is not None else 0.0) for r in records
    ]


def test_skipped_rounds_serialize_empty_fields():
    fl = FlConfig(n_clients=2, rounds=2, samples=100, classes=2, dims=4)
    link = OtaConfig(p_max=1.0, sigma2=1.0, tau=1e-9)
    records = _train(fl, link, Independent(), seed=0)
    row = cli._record_files("skipped", records)["train_skipped.csv"].splitlines()[1].split(",")
    assert row[1] == "0"  # participants
    assert row[2] == "" and row[3] == "" and row[4] == ""  # mse, eta, loss


def test_schedule_reader_rejects_wrong_csv():
    for text in ("a,b\n1,2\n", ""):
        with pytest.raises(ValueError, match="round-record"):
            cli._schedule_from_records(text)


def test_report_csv_format():
    r = mc.ComparisonReport(
        label="x",
        points=[mc.GridPointCheck(1.5, 0.25, 0.26, 0.01, True)],
    )
    files = cli._report_files("prefix", {"x": r}, {})
    assert set(files) == {"prefix_x.csv", "prefix_report.json"}
    lines = files["prefix_x.csv"].strip().split("\n")
    assert lines[0] == "x,analytic,empirical,stderr,pass"
    assert lines[1] == "1.5,0.26,0.25,0.01,true"


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pmf-users", "--out", str(out1), "--seed", "5", *FAST_MC]) == 0
    assert main(["pmf-users", "--out", str(out2), "--seed", "5", *FAST_MC]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    assert names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # manifests carry timestamps, but their output hashes must agree
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_different_seed_changes_outputs(tmp_path):
    # a seed changes the draws and not the closed forms.  FAST_MC's 400
    # trials leave a variant few informative points, so one empirical
    # column alone may repeat across seeds; every variant's is compared
    empirical, analytic = [], []
    for seed in ("1", "2"):
        assert main(["cdf-mse", "--out", str(tmp_path / seed), "--seed", seed, *FAST_MC]) == 0
        report = json.loads((tmp_path / seed / "cdf_mse_report.json").read_text())
        for table, field in ((empirical, "empirical"), (analytic, "analytic")):
            table.append({label: [p[field] for p in block["points"]] for label, block in report.items()})
    assert set(empirical[0]) == {"independent", "clayton-1", "clayton-2", "fpa"}
    assert empirical[0] != empirical[1]
    assert analytic[0] == analytic[1]


@pytest.mark.parametrize("command, rc", [
    pytest.param("pmf-users", 0, id="pmf-users-runs"),
    pytest.param("port-sweep", 0, id="port-sweep-runs"),
    pytest.param("copula-check", 0, id="copula-check-runs"),
    pytest.param("cdf-mse", 2, id="cdf-mse-exits-2-before-drawing"),
])
def test_s_target_binds_only_cdf_mse(tmp_path, capsys, monkeypatch, command, rc):
    # the default mc.s_target = 15 exceeds K = 10, and only cdf-mse ranks users by it
    def no_draws(*args, **kwargs):
        raise AssertionError("cdf-mse drew gains before checking mc.s_target")

    if rc:
        monkeypatch.setattr(mc, "sample_best_gains", no_draws)
    out = tmp_path / "a" / "nested"
    assert main([command, "--out", str(out), *FAST_MC, "--set", "system.K=10"]) == rc
    assert out.exists() == (rc == 0)
    if rc:
        assert "config error: mc.s_target: s_target must be in 1..n_users" in capsys.readouterr().err


def test_port_sweep_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["port-sweep", "--out", str(out), *FAST_MC])
    assert rc == 0
    report = json.loads((out / "port_sweep_report.json").read_text())
    for label, blob in report.items():
        assert blob["all_pass"], label
        values = [p["analytic"] for p in blob["points"]]
        assert values == sorted(values), label


def test_copula_check_run(tmp_path, capsys):
    out = tmp_path / "diag"
    rc = main(["copula-check", "--out", str(out), *FAST_MC])
    assert rc == 0
    blob = json.loads((out / "copula_check_report.json").read_text())
    assert blob["all_pass"] is True
    assert blob["tau_checks"][0]["beta"] == 1.0
    stdout = capsys.readouterr().out
    assert "kendall tau" in stdout


# no command loads scipy, whose import costs a third of a second; the
# package runs on numpy alone.  The check runs in a fresh interpreter
FOOTPRINT = """
import sys
from fluidfed import cli
argv = sys.argv[1:]
if argv:
    assert cli.main(argv) == 0
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["cdf-mse", *FAST_MC],
        ["pmf-users", *FAST_MC],
        ["port-sweep", *FAST_MC],
        ["copula-check", *FAST_MC],
        ["train", *FAST_FL],
        ["train", *FAST_FL, "--set", 'fl.variants=["jakes"]'],
        ["bound"],
    ],
    ids=["import", "cdf-mse", "pmf-users", "port-sweep", "copula-check", "train",
         "train-jakes", "bound"],
)
def test_no_command_loads_scipy(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    args = [*argv[:1], "--out", str(tmp_path / "out"), *argv[1:]] if argv else []
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# train's eval matmul, in a fresh interpreter that imports numpy through the package
BLAS_FOOTPRINT = """
import os
import fluidfed, numpy as np
np.ones((2000, 16)) @ np.ones((16, 32))
print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "caller-set"])
def test_package_loads_blas_single_threaded(given):
    # the pin holds only while numpy loads: the environment is the caller's again after
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = src
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    done = subprocess.run([sys.executable, "-c", BLAS_FOOTPRINT], env=env, check=True,
                          capture_output=True, text=True)
    threads, variable = done.stdout.split()
    assert variable == str(given)
    if given is None:
        assert threads == "1"


def test_train_run_writes_per_variant_records(tmp_path, capsys):
    out = tmp_path / "train"
    rc = main(
        ["train", "--out", str(out), *FAST_FL, "--set", "system.tau=0.5"]
    )
    assert rc == 0
    for label in ("ideal", "independent"):
        csv_path = out / f"train_{label}.csv"
        jsonl_path = out / f"train_{label}.jsonl"
        assert csv_path.exists() and jsonl_path.exists()
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "round,participants,mse,eta,train_loss,test_acc"
        assert len(rows) == 3  # header + 2 rounds
    # ideal benchmark always reports full participation
    ideal_rows = (out / "train_ideal.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "3" for r in ideal_rows)


def test_train_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    args = ["train", *FAST_FL, "--seed", "3", "--set", "system.tau=0.5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("train_ideal.csv", "train_independent.csv", "train_independent.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_train_manifest_records_telemetry(tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--out", str(out), *FAST_FL, "--set", "system.tau=0.5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    telemetry = manifest["telemetry"]
    assert set(telemetry) == {"ideal", "independent"}
    for label, block in telemetry.items():
        records = (out / f"train_{label}.csv").read_text().splitlines()[1:]
        participants = [int(r.split(",")[1]) for r in records]
        assert block["rounds"] == len(records) == 2
        assert block["skipped_rounds"] == participants.count(0)
        assert block["client_updates"] == sum(participants)
        assert block["diverged"] is False
        assert block["updates_per_s"] == pytest.approx(sum(participants) / block["seconds"])
        assert len(block["round_wall_time"]) == 2
        assert all(t > 0 for t in block["round_wall_time"])
        # the stages split each round, timed where it ran, in a worker or not
        assert set(block["stage_seconds"]) == set(fedlearn.STAGES)
        assert min(block["stage_seconds"].values()) >= 0
        assert sum(block["stage_seconds"].values()) == pytest.approx(
            sum(block["round_wall_time"]))
    # only rounds that went over the air have a norm scale
    assert telemetry["ideal"]["round_norm_scale"] == [None, None]
    for scale, n in zip(telemetry["independent"]["round_norm_scale"], participants):
        assert (scale is None) == (n == 0) and (scale is None or scale > 0)
    # the telemetry stays out of the hashed data files
    for name in ("train_ideal.csv", "train_independent.jsonl"):
        assert "wall_time" not in (out / name).read_text()
        assert "norm_scale" not in (out / name).read_text()


# sha256 of the seed-0 data files, frozen when each local step's batches
# became one key draw for every client from the round's batch stream; the
# second run has 12 rounds of 3 Adam steps (bias corrections past step 8)
# and ragged shards of 61/60/60 rows in one cohort; the third, frozen while
# the variants still ran one after another in one process, trains all five
# default variants, and its ideal and independent files equal the first's
TRAIN_GOLDEN = [
    (
        [],
        {
            "train_ideal.csv": "7422b286b5b26a06783f527736cb07cb2921712d0a959240f7c4ff87629adbdd",
            "train_ideal.jsonl": "b01a007087aba3f26a63b5e91d00d80fecc26c05990ee996c66fd34cc60d74d8",
            "train_independent.csv": "d8e85ab4aafb000c71e4103cb83664cd6e99ccd031e3bf0853a4fb58a9c83bbd",
            "train_independent.jsonl": "01ae964132cf2a6c32dffdff4991e1b7363d2c9a0c03a44544d23fe63cbb0c18",
        },
    ),
    (
        ["--set", "fl.rounds=12", "--set", "fl.samples=201",
         "--set", "fl.local_steps=3", "--set", "fl.batch=100"],
        {
            "train_ideal.csv": "275b3bc963d4bd9b0bab0789612660ad0ce2f0e2cda9b3240105b33eefb535e8",
            "train_ideal.jsonl": "2f5a6f5a56ce02cde3a0fd307b0f55a5b142d29ecd52a84ad1502b987b79b8fc",
            "train_independent.csv": "7a09ffce34c940d0f64eed966d2a9db9f0116c190dfbefe95aecc5e68c24f73f",
            "train_independent.jsonl": "837757d936e4e02e1fca7d032892b047a2ecbbead06f4a9c4989943be47d985d",
        },
    ),
    (
        DEFAULT_FL_VARIANTS,
        {
            "train_ideal.csv": "7422b286b5b26a06783f527736cb07cb2921712d0a959240f7c4ff87629adbdd",
            "train_ideal.jsonl": "b01a007087aba3f26a63b5e91d00d80fecc26c05990ee996c66fd34cc60d74d8",
            "train_independent.csv": "d8e85ab4aafb000c71e4103cb83664cd6e99ccd031e3bf0853a4fb58a9c83bbd",
            "train_independent.jsonl": "01ae964132cf2a6c32dffdff4991e1b7363d2c9a0c03a44544d23fe63cbb0c18",
            "train_clayton-1.csv": "a1519770339ddab6c78024da72f557de80a0b011656927441a94f93d7b81c2e8",
            "train_clayton-1.jsonl": "4c871e94fd93cfc5f29342b112b7347122a9925c090870dfba163ccc9f82ee5e",
            "train_clayton-2.csv": "9b30988083593a9b60cb042a28fd7cf267591415b770abdb8bf2f125e77ac4bb",
            "train_clayton-2.jsonl": "cd3a17f54d1663496262056c9f15b7ab71dcecb32a67576ed7e9fa460bbdc6fb",
            "train_fpa.csv": "82aebf0b299d5e4adc1aef25e7d0a6ab7617fe213a90c911d2fd2cd1eafecadb",
            "train_fpa.jsonl": "bdd9959bbf9be10ab979b31d2f29c272defdd12741be34a4758f7c633652c453",
        },
    ),
]


@pytest.mark.parametrize("extra, golden", TRAIN_GOLDEN, ids=["fast", "adam-ragged", "five-variants"])
def test_train_outputs_match_frozen_sha256(tmp_path, extra, golden):
    assert main(["train", "--out", str(tmp_path), *FAST_FL, *extra, "--seed", "0"]) == 0
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the seed-0 data files, frozen after the closed forms moved to
# the survival form and the incomplete beta (the empirical counts and pass
# flags were frozen before cdf-mse and pmf-users drew best-port gains
# instead of whole gain matrices; the CSV digests were taken again when the
# CSV line ends became LF, with every byte else unchanged); the second plan
# has 33 ports (a partial last block) and Clayton betas near both dependence
# limits.  The pmf-users and copula-check digests that moved were taken again
# when every closed form came to be read off one log F: only the analytic,
# stderr, sup_gap and jakes_gaps values moved, in their last digits.  The
# copula-check report was taken again when its KS p-value became Massart's
# bound: only min_p_value moved.  The cdf-mse and pmf-users digests were
# taken again when the binomial laws moved to Loader's form: only the
# analytic, stderr and sup_gap values moved, in their last digits.  The
# Clayton CSVs that moved and the cdf-mse and pmf-users reports were taken
# again when the Clayton best gain came to be drawn from its one-draw law
# (a new RNG layout; every pass flag held).  The independent CSVs and the
# reports of cdf-fast, pmf-fast and pmf-wide-betas were taken again when the
# independent best gain came to be drawn as the Exp(1) quantile of each
# user's largest uniform, port-major (a new RNG layout; only the
# independent variant's empirical values moved, and every pass flag held;
# cdf-wide-betas did not move).  The cdf-mse and pmf-users rows were taken
# again when trial blocks came to hold BLOCK_USERS users whatever the port
# count, and the independent best gain came to be drawn as the map of one
# Exp(1)/N per user, with the Clayton map on a vectorized softplus (a new
# RNG layout): only the empirical values, sup_gap and the mean check's
# empirical mean moved, every pass flag held, and cdf-fast's independent
# CSV did not move; the port-sweep rows did not move, as their 400 trials
# are one block in both layouts, nor did copula-check.  sweep-fast's
# empirical sweep is 0.0 at every point, so it cannot see the sampler;
# sweep-two-users, taken with the geometric first ports, can: its empirical
# values all lie strictly between 0 and 1
MC_WIDE_BETAS = ["--set", "system.K=40", "--set", "system.N=33",
                 "--set", 'mc.variants=["independent","clayton:0.05","clayton:30","fpa"]']
MC_GOLDEN = [
    (
        "cdf-mse", [],
        {
            "cdf_mse_clayton-1.csv": "bd99fc721e7fc61525bd2cf4efd2826ee7f6d02d612d87d413618b4fbdcbd9b9",
            "cdf_mse_clayton-2.csv": "cbc1ba72b1c2454c3b965be523ba8450afe5b61448826c17ad7a26d5272a9587",
            "cdf_mse_fpa.csv": "e937e6c1a224ffe00892dbd2ae607debaa4d99ef5bb609647661b0c070f88384",
            "cdf_mse_independent.csv": "0b4cd66c29ec89c61f665bdefd37768d21c6874485803724c373c312302c2638",
            "cdf_mse_report.json": "ddbac71c9e465cd1ad711161197e27d3f970fa5705b06d55617bbe5c89dbf7c2",
        },
    ),
    (
        "cdf-mse", MC_WIDE_BETAS,
        {
            "cdf_mse_clayton-0.05.csv": "859876a89681a10e7209019e49e4b254e127e69d950e91f1622a3dea0ca9aa05",
            "cdf_mse_clayton-30.csv": "6f44ed20ce5782e48b57f0f11331183ac98db65b87caafaae12e777be9a80535",
            "cdf_mse_fpa.csv": "7a3f037e580da3285a01f0588d95a29745cd1d9cdd079216bcce36845552be2a",
            "cdf_mse_independent.csv": "802b709c30edb7501bea1623a7e720050255168a586f219f41ffdbb93a7dfdc3",
            "cdf_mse_report.json": "b83284d600838eef6794f7cb63ba9579a689ace9119de5fc1643d4f9547c6402",
        },
    ),
    (
        "pmf-users", [],
        {
            "pmf_users_clayton-1.csv": "99c3b11344d4bca13ac6ff429ab346ed6d01d6e0645f7c4801807efb2bf2b9e6",
            "pmf_users_clayton-2.csv": "9e7539603988144ce6673a76b9967b3c98c035925930047e51e59a790c6c731d",
            "pmf_users_fpa.csv": "96c86e4b3988ace7982c7ac67d194d97b0d0ee316bdacb02b1478230984ba1b7",
            "pmf_users_independent.csv": "b13f179803af72a5563b4f388814483521e78aac2e3105e92d199d3278c5e975",
            "pmf_users_report.json": "0b75ad3668542fd0b5a9261bbb3b8104abb9e0aa451c84e52e289d63870452e1",
        },
    ),
    (
        "pmf-users", MC_WIDE_BETAS,
        {
            "pmf_users_clayton-0.05.csv": "d211ab5017c79acf19c04fd96a18835259d258ceda1c467eba8a562495ef88dc",
            "pmf_users_clayton-30.csv": "ef328d8506af20c51fa85be00e985dfea6d77cf4ad2d403ef9ceb1569016aa46",
            "pmf_users_fpa.csv": "c5e82a2be8a5ec8e5e5b60de18eabf85283f7e520e77204a549cf4d681f80895",
            "pmf_users_independent.csv": "35e4eb3f673d60ac7c38db35a39708a6c0f9820322ff625ebf4563dc21b0063d",
            "pmf_users_report.json": "e442bad6fad52f23c61363f53675bc8dfa4f3bec54ac307bde0c262f6aa538fe",
        },
    ),
    # port-sweep frozen with the rows above, copula-check before the config
    # table replaced the hand-written plan builder
    (
        "port-sweep", [],
        {
            "port_sweep_clayton-1.csv": "632aa15977e1071931120b687dc54d6b46ae5333477002f45d810cafb5ab99dd",
            "port_sweep_clayton-2.csv": "2a683a2a2064a295773beae6ca45d06475063506cd7a7790e56d1be2c49aee15",
            "port_sweep_fpa.csv": "0337c1e38de08db5228f0ec84287ea3b46fee57e86b5136da6ecf1d0e5bba3ee",
            "port_sweep_independent.csv": "2aeb139cd85b0a0454774282bc1fe60b17d1bcd996d0944de0d8508de8c752c6",
            "port_sweep_report.json": "f69ed74455e0d620080017658494f47710d7a092f28325035ccef611c0e2144b",
        },
    ),
    (
        "port-sweep", ["--set", "system.K=2", "--set", "mc.n_grid=[1,20]"],
        {
            "port_sweep_clayton-1.csv": "a649e63a16d9c85e958b08886f83a689d1847b0dc90c2d8f5a3714515dc6fc1d",
            "port_sweep_clayton-2.csv": "e2ca6e38a05ea96c84c5dc1141941002a8619b38745081ee5ae6a893630081d0",
            "port_sweep_fpa.csv": "0c39c2c6406d26200e996273ab68e53db5d5d4b843cd6fa2cbc8561d26e4ebbf",
            "port_sweep_independent.csv": "d2eb68e859b76aab6d491b92e4dc4a893cdcb36d2a7da1e888459cda066f98b4",
            "port_sweep_report.json": "8842f99261ddeb0c9a6e05349ca487f8b0740cae19eaa0f1035c5585daa8c03d",
        },
    ),
    (
        "copula-check", [],
        {
            "copula_check_clayton-1.csv": "3e5e9816179246f7f13f5ab507d18ad0fae537bd202f1f628362d74fb2782940",
            "copula_check_report.json": "329072d518ad1d345eb9fa4afbce093b6cdfc15b4cb82284441a2e940f493e23",
        },
    ),
]


@pytest.mark.parametrize(
    "command, extra, golden", MC_GOLDEN,
    ids=["cdf-fast", "cdf-wide-betas", "pmf-fast", "pmf-wide-betas", "sweep-fast",
         "sweep-two-users", "copula-fast"],
)
def test_mc_outputs_match_frozen_sha256(tmp_path, command, extra, golden):
    assert main([command, "--out", str(tmp_path), *FAST_MC, *extra, "--seed", "0"]) == 0
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(golden)
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the seed-0 data files at the CLI defaults, no flag but the
# seed: the reduced plans above can miss a change that only the default
# sizes show (copula-check's 100k rows and four betas, train's five
# variants).  The copula-check report was taken again when kstest's Exp(1)
# CDF moved from a Cephes expm1 port to numpy's expm1: only
# max_ks_statistic and min_p_value moved, D by 1.1e-16 (clayton-0.5).  The
# cdf-mse, pmf-users and port-sweep digests were taken again when trial
# blocks came to hold BLOCK_USERS users (25 blocks per variant instead of
# 31, or 62 for the sweep) and the independent best gain came to be one
# Exp(1)/N draw per user: only the empirical values, sup_gap and the mean
# check's empirical mean moved, every pass flag held, and the sweep's fpa
# CSV did not move.  train's Clayton files were taken again when the
# Clayton map moved to a vectorized softplus: mse, eta and train_loss moved
# in their last digits (at most 1.1e-15 relative), participants and
# test_acc did not; copula-check and the other train files did not move
DEFAULT_GOLDEN = {
    "cdf-mse": {
        "cdf_mse_clayton-1.csv": "f1dc249f624afe3daf7657678fc431f23d541b22c007086303090a971fe37165",
        "cdf_mse_clayton-2.csv": "5406c167c9add32155eade6ff8ccf9bcb8bfbf7bc33a4b989ac84580a3720a02",
        "cdf_mse_fpa.csv": "5d3bb65c718ef1c49d72e530f595744871209afc001e444317a98c524f563ac5",
        "cdf_mse_independent.csv": "25793962a57d6e2b82263097ae97e0cfec12f5ea4f213ac3f433a00f867a2532",
        "cdf_mse_report.json": "99ed249a4e5f5dcf44d0f877aab8879207bc702c9e6ea58aa539cfc201b20370",
    },
    "pmf-users": {
        "pmf_users_clayton-1.csv": "e3e87d963a78b6b1e9e6de8470c601b5c568ec2ff8063b1e7049b0290573b020",
        "pmf_users_clayton-2.csv": "37e20e9db4b4b2aff87afe1f075f37a883810bea1a145249e08899f9bf8d9a43",
        "pmf_users_fpa.csv": "bbb2b300f9b3965956373d05efe7fe431521560ccc7377c005078f218769fb51",
        "pmf_users_independent.csv": "b4541afc35374990b4a75448c3c62621d1dd48ea74d201dda2e60663e3a9e417",
        "pmf_users_report.json": "63d8bd4edac7f4805c576121cba10dfe6f717c4271e559b5086fa5e474bb0c02",
    },
    "port-sweep": {
        "port_sweep_clayton-1.csv": "c7916040182b29216acbba6e66bfd7237d2b10e4ce6505b201d485a2df40a2dc",
        "port_sweep_clayton-2.csv": "9e406c2e485a6e4a4d02b2cae549cfa53f8e577edc53ba033666b59796273984",
        "port_sweep_fpa.csv": "41dcff2dc5b7490526fe004328fa99d83b09411d772652ea8ecff168bb78a1f3",
        "port_sweep_independent.csv": "fa8f7a292b1d281aa1cf9f4a7fbd5e95345d00205733a10ba053083fd9f73c26",
        "port_sweep_report.json": "f9d3345e4b2dfc7b8b035d834a5b4e5f50bce6b730a6915104b7c4ba6304bc9f",
    },
    "copula-check": {
        "copula_check_clayton-0.5.csv": "510bb9f8734a73ea8a29272415cea005b784bd881492add6581de234b8ba3993",
        "copula_check_clayton-1.csv": "ee8a0b97d769f10ec4f65076ebe8e88ee5142035a20ca231eeda2e3f201e2b46",
        "copula_check_clayton-2.csv": "809451aa7e4ea0085730cfef72f743dbdd82126c5f7ff8dff0a9726230ab7ea2",
        "copula_check_clayton-5.csv": "f9b7d78e82dc8966f050c00e120bedb38bc536180a7abaffbe8f08bf0bf82192",
        "copula_check_report.json": "ce1de668f10853d37c1775c59d0e85b687fb4edb6476a3fd8251808fd26accff",
    },
    "train": {
        "train_clayton-1.csv": "6d9d0aa5129979e621287f85eddd0f63d40303e205d86bb390a3a56d45fdf02d",
        "train_clayton-1.jsonl": "7fe6e69b61f58f181eb0712056f9590547fd07299ff0220ef7518459ccf62fb7",
        "train_clayton-2.csv": "4bb6a7f7d7e3b17b09782b6268675349079f497a29d1d45d23421261e96c26a4",
        "train_clayton-2.jsonl": "6c27eac641d43be5cf0fc5cd8b0e209e7e79b15997b6cbf5d3fe15ebc2cb0cb4",
        "train_fpa.csv": "c2a142fd9cad6f2c598f74f141d5cc329033e131f7e8a9e7ee9f6c25d1cf7e04",
        "train_fpa.jsonl": "004d85b5feb84fc99c4e86812d7eec91c575dbb0f24bb6adc2a7d575e61c8f48",
        "train_ideal.csv": "719310e0ab948e8144601e59ff585eb776c755db05e487aa241cb24ed361e17f",
        "train_ideal.jsonl": "ea9ee472c467b939b32ddfc8a35e82b1de6d244f0c21d5ee1cbdc5538ff9e47f",
        "train_independent.csv": "83f2dc50ba136f956e19895860402e4a50404cfcec4b31d4ea0c82d436fc3042",
        "train_independent.jsonl": "bed155d2dd09f2d7a48560de7579403ebb4899eb9e97cbab680de81ea5c80217",
    },
}


@pytest.mark.parametrize("command, golden", DEFAULT_GOLDEN.items(), ids=list(DEFAULT_GOLDEN))
def test_default_outputs_match_frozen_sha256(tmp_path, command, golden):
    assert main([command, "--out", str(tmp_path), "--seed", "0"]) == 0
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(golden)
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_bound_output_matches_frozen_sha256(tmp_path):
    # the default bound section, frozen with the port-sweep and copula-check rows
    assert main(["bound", "--out", str(tmp_path), "--seed", "0"]) == 0
    digest = hashlib.sha256((tmp_path / "bound.csv").read_bytes()).hexdigest()
    assert digest == "ac5a0ac9c8c29fc289b2b1d923fd1a1f22e98eb71861dfd3f61c14c78d1acc56"


# a block of BLOCK_USERS users holds 409 trials of K=20 users, or 204 of
# K=40, whatever the port count, so 400 trials take 1 block, or 2
@pytest.mark.parametrize("command", ["cdf-mse", "pmf-users", "port-sweep"])
@pytest.mark.parametrize("n_users, blocks", [(20, 1), (40, 2)])
def test_mc_manifest_records_telemetry(tmp_path, command, n_users, blocks):
    assert main([command, "--out", str(tmp_path), *FAST_MC, "--set", f"system.K={n_users}"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    report_name = f"{command.replace('-', '_')}_report.json"
    report = json.loads((tmp_path / report_name).read_text())
    telemetry = manifest["telemetry"]
    assert set(telemetry) == set(report) == {"independent", "clayton-1", "clayton-2", "fpa"}
    assert BLOCK_USERS // 20 == 409 and BLOCK_USERS // 40 == 204
    for label, block in telemetry.items():
        assert block["trials"] == 400
        assert block["blocks"] == blocks
        assert block["seconds"] > 0
        assert block["trials_per_s"] == pytest.approx(400 / block["seconds"])
        assert 0 < block["sample_s"] <= block["seconds"]
        assert 0 <= block["closed_form_s"] <= block["seconds"] - block["sample_s"]
        failing = sum(not p["pass"] for p in report[label]["points"])
        assert block["failing_points"] == failing
    # the telemetry stays out of the hashed data files
    for name in {p.name for p in tmp_path.iterdir()} - {"manifest.json"}:
        text = (tmp_path / name).read_text()
        assert "seconds" not in text and "trials_per_s" not in text, name


def test_bound_manifest_records_telemetry(tmp_path):
    assert main(["bound", "--out", str(tmp_path), "--set", "bound.rounds=7"]) == 0
    telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
    assert set(telemetry) == {"rounds", "psi", "final_value", "seconds", "records"}
    assert telemetry["records"] is None  # the schedule came from the config
    cfg, _ = load_config(None, ["bound.rounds=7"])
    assert telemetry["psi"] == cli._build(analytics.ConvergenceConstants, cfg, ("bound",)).psi
    rows = (tmp_path / "bound.csv").read_text().splitlines()
    assert telemetry["rounds"] == len(rows) - 1 == 7
    assert telemetry["final_value"] == float(rows[-1].split(",")[1])
    assert telemetry["seconds"] >= 0
    assert "seconds" not in (tmp_path / "bound.csv").read_text()


def test_bound_constant_schedule(tmp_path, capsys):
    out = tmp_path / "bound"
    rc = main(
        [
            "bound",
            "--out", str(out),
            "--set", "bound.rounds=10",
            "--set", "bound.participants=8",
            "--set", "bound.mse=0.002",
        ]
    )
    assert rc == 0
    rows = (out / "bound.csv").read_text().splitlines()
    assert rows[0] == "round,bound"
    assert len(rows) == 11
    values = [float(r.split(",")[1]) for r in rows[1:]]
    # constant residual: the trajectory approaches its fixed point
    assert values[0] > values[-1]
    assert "psi=" in capsys.readouterr().out


def test_bound_from_training_records(tmp_path):
    train_out = tmp_path / "train"
    assert (
        main(
            ["train", "--out", str(train_out), *FAST_FL,
             "--set", "system.tau=0.5", "--set", 'fl.variants=["independent"]']
        )
        == 0
    )
    records_csv = train_out / "train_independent.csv"
    out = tmp_path / "bound"
    rc = main(
        ["bound", "--out", str(out), "--records", str(records_csv),
         "--set", "bound.n_users=3"]
    )
    assert rc == 0
    rows = (out / "bound.csv").read_text().splitlines()
    assert len(rows) == 3  # header + the 2 recorded rounds
    # the manifest names its input by path and by the digest train listed for it
    listed = json.loads((train_out / "manifest.json").read_text())["outputs"]
    digest = {o["path"]: o["sha256"] for o in listed}["train_independent.csv"]
    records = json.loads((out / "manifest.json").read_text())["telemetry"]["records"]
    assert records == {"path": str(records_csv), "sha256": digest}


def test_bound_inline_schedule(tmp_path):
    out = tmp_path / "b"
    rc = main(
        ["bound", "--out", str(out),
         "--set", "bound.schedule=[[10,0.001],[5,0.002]]"]
    )
    assert rc == 0
    assert len((out / "bound.csv").read_text().splitlines()) == 3
    rc = main(
        ["bound", "--out", str(out), "--set", 'bound.schedule=[["x",1]]']
    )
    assert rc == 2


def test_failing_gate_prints_its_failures_lines(tmp_path, monkeypatch, capsys):
    # honest runs pass their own bands, so exercise the failure path with
    # a doctored report: main prints its FAIL lines to stderr and exits 1
    line = "FAIL doctored: x=1 empirical=0.9 analytic=0.1 stderr=0.01"
    assert DOCTORED.failures() == [line]
    monkeypatch.setattr(mc, "run_mse_cdf_experiment", lambda plan: {"doctored": DOCTORED})
    assert main(["cdf-mse", "--out", str(tmp_path), *FAST_MC]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_copula_check_fails_on_scaled_exponential_marginals(tmp_path, monkeypatch, capsys):
    # every port Exp(scale 1.05) instead of Exp(1): the KS check and the
    # max-gain CDF reject it at 100k rows
    real = mc.sample_port_gains

    def stretched(dep, n_users, n_ports, rng):
        out = real(dep, n_users, n_ports, rng)
        return type(out)(gains=1.05 * out.gains)

    monkeypatch.setattr(mc, "sample_port_gains", stretched)
    assert main(["copula-check", "--out", str(tmp_path), *FAST_MC,
                 "--set", "mc.diag_rows=100000"]) == 1
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "statistical-failure"
    report = json.loads((tmp_path / "copula_check_report.json").read_text())
    assert report["all_pass"] is False and report["marginal_checks"][0]["passed"] is False
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("FAIL ") for line in err)
    (ks,) = [line for line in err if line.startswith("FAIL diagnostics: ")]
    assert "'max_ks_statistic'" in ks and "'passed': False" in ks


def test_training_divergence_exits_1(tmp_path, capsys):
    out = tmp_path / "blowup"
    with np.errstate(over="ignore"):
        rc = main(
            [
                "train",
                "--out", str(out),
                "--set", 'fl.variants=["independent"]',
                "--set", "fl.optimizer=\"sgd\"",
                "--set", "fl.lr=1e6",
                "--set", "fl.separation=1e3",
                "--set", "fl.rounds=50",
                "--set", "fl.samples=200",
                "--set", "fl.clients=2",
                "--set", "fl.classes=2",
                "--set", "fl.dims=4",
                "--set", "system.tau=1e6",
            ]
        )
    assert rc == 1
    assert "DIVERGED" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "diverged"
    # partial records still land on disk
    rows = (out / "train_independent.csv").read_text().splitlines()
    assert 1 < len(rows) < 52


def test_default_out_dir_is_under_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["bound", "--set", "bound.rounds=3"])
    assert rc == 0
    assert (tmp_path / "runs" / "bound" / "bound.csv").exists()
    assert (tmp_path / "runs" / "bound" / "manifest.json").exists()


def test_main_freezes_the_heap_once_per_process(tmp_path):
    # a fresh interpreter: the first command freezes its heap, a second one
    # adds nothing, so a caller's later garbage stays collectable
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import gc, sys\n"
            "from fluidfed.cli import main\n"
            "assert gc.get_freeze_count() == 0\n"
            "assert main(['bound', '--out', sys.argv[1]]) == 0\n"
            "frozen = gc.get_freeze_count()\n"
            "assert main(['bound', '--out', sys.argv[1]]) == 0\n"
            "assert 0 < gc.get_freeze_count() <= frozen, (frozen, gc.get_freeze_count())\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                   check=True, stdout=subprocess.DEVNULL)


# ------------------------------------------------------ forked workers


def _see_cpus(monkeypatch, n: int) -> None:
    """Make train and copula-check see ``n`` usable CPUs: with one they run
    their variants or blocks in this process, with two in two forked
    workers where they can fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_train_outputs_do_not_depend_on_the_workers(tmp_path, monkeypatch, capsys):
    # clayton-1 diverges after its first round; in a worker it still prints
    # its DIVERGED line, exits 1 and writes its partial records
    run_training = fedlearn.run_training

    def clayton_1_diverges(fl, link, dep, *args, **kwargs):
        records = run_training(fl, link, dep, *args, **kwargs)
        if dep == Clayton(1.0):
            raise fedlearn.TrainingDivergedError("parameters went nonfinite at round 2",
                                                 records[:1])
        return records

    monkeypatch.setattr(fedlearn, "run_training", clayton_1_diverges)
    runs = []
    for n_cpus in (1, 2):
        _see_cpus(monkeypatch, n_cpus)
        out = tmp_path / str(n_cpus)
        rc = main(["train", "--out", str(out), *FAST_FL, *DEFAULT_FL_VARIANTS, "--seed", "4"])
        printed = capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        runs.append((rc, printed.out, printed.err, manifest["outputs"], files))
        assert manifest["status"] == "diverged"
        workers = 0 if n_cpus == 1 or not hasattr(os, "fork") else 2
        assert {b["worker_processes"] for b in manifest["telemetry"].values()} == {workers}
        assert [label for label, block in manifest["telemetry"].items() if block["diverged"]] == [
            "clayton-1"]
    assert runs[0] == runs[1]
    rc, stdout, stderr, _, files = runs[0]
    assert rc == 1
    assert stderr == "clayton-1: DIVERGED (parameters went nonfinite at round 2)\n"
    assert stdout.splitlines()[2].startswith("clayton-1: 1 rounds,")
    assert len(files) == 10
    for name, data in files.items():  # rounds, and a header line in the CSVs
        rounds = 1 if "clayton-1" in name else 2
        assert data.count(b"\n") == rounds + name.endswith(".csv"), name


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["in-process", "two-workers"])
def test_train_worker_errors_reach_main(tmp_path, monkeypatch, n_cpus):
    _see_cpus(monkeypatch, n_cpus)
    run_training = fedlearn.run_training

    def fpa_fails(fl, link, dep, *args, **kwargs):
        if dep == PerfectDependence():
            raise SamplingError("sampler produced a nonfinite draw")
        return run_training(fl, link, dep, *args, **kwargs)

    monkeypatch.setattr(fedlearn, "run_training", fpa_fails)
    with pytest.raises(SamplingError, match="nonfinite draw"):
        main(["train", "--out", str(tmp_path / "out"), *FAST_FL, *DEFAULT_FL_VARIANTS])
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_killed_train_worker_fails_the_command(tmp_path, monkeypatch):
    _see_cpus(monkeypatch, 2)
    parent, run_training = os.getpid(), fedlearn.run_training

    def fpa_worker_dies(fl, link, dep, *args, **kwargs):
        if dep == PerfectDependence() and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_training(fl, link, dep, *args, **kwargs)

    monkeypatch.setattr(fedlearn, "run_training", fpa_worker_dies)
    with pytest.raises(RuntimeError, match=r"task 4 ended \(killed by signal 9\) with no outcome"):
        main(["train", "--out", str(tmp_path / "out"), *FAST_FL, *DEFAULT_FL_VARIANTS])
    assert not (tmp_path / "out").exists()


def test_copula_check_outputs_do_not_depend_on_the_workers(tmp_path, monkeypatch, capsys):
    # beta 2's block draws Clayton(1) samples, so its checks fail; through a
    # worker it still prints the same FAIL lines and exits 1
    sample = mc.sample_port_gains

    def clayton_1_for_2(dep, *args):
        return sample(Clayton(1.0) if dep == Clayton(2.0) else dep, *args)

    monkeypatch.setattr(mc, "sample_port_gains", clayton_1_for_2)
    runs = []
    for n_cpus in (1, 2):
        _see_cpus(monkeypatch, n_cpus)
        out = tmp_path / str(n_cpus)
        rc = main(["copula-check", "--out", str(out), "--set", "mc.diag_rows=20000", "--seed", "4"])
        printed = capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        runs.append((rc, printed.out, printed.err, manifest["outputs"], files))
        workers = 0 if n_cpus == 1 or not hasattr(os, "fork") else 2
        assert {b["worker_processes"] for b in manifest["telemetry"].values()} == {workers}
        assert list(manifest["telemetry"]) == ["clayton-0.5", "clayton-1", "clayton-2", "clayton-5",
                                               "jakes"]
    assert runs[0] == runs[1]
    rc, stdout, stderr, _, files = runs[0]
    assert rc == 1
    assert stderr and all(line.startswith("FAIL ") for line in stderr.splitlines())
    assert "beta=2: kendall tau 0.33" in stdout and stdout.count("(FAIL)") == 1
    assert len(files) == 5


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_manifest_records_the_peak_rss_of_the_process_and_its_workers(tmp_path, monkeypatch):
    _see_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main(["copula-check", "--out", str(out), *FAST_MC]) == 0
    peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
    assert peak["process"] > 0 and peak["workers"] > 0
    # without getrusage both are null, and the run still succeeds
    monkeypatch.setattr(cli, "resource", None)
    assert main(["bound", "--out", str(tmp_path / "bound")]) == 0
    manifest = json.loads((tmp_path / "bound" / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] == {"process": None, "workers": None}


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["in-process", "two-workers"])
def test_copula_check_block_out_of_memory_exits_3(tmp_path, monkeypatch, capsys, n_cpus):
    # 10^13 rows of 10 ports are 728 TiB: each block's first request fails at once
    _see_cpus(monkeypatch, n_cpus)
    rc = main(["copula-check", "--out", str(tmp_path / "a"), "--set", "mc.diag_rows=10000000000000"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "a").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_killed_copula_check_worker_fails_the_command(tmp_path, monkeypatch):
    # beta 0.5's worker dies once beta 1's has started; beta 1's would then
    # sleep a minute, unless the command kills it on its way out
    _see_cpus(monkeypatch, 2)
    parent, sample, pids = os.getpid(), mc.sample_port_gains, tmp_path / "pids"

    def first_dies_second_hangs(dep, *args):
        if os.getpid() != parent:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if dep == Clayton(0.5):
                _within(30, lambda: len(pids.read_text().split()) == 2)
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)
        return sample(dep, *args)

    monkeypatch.setattr(mc, "sample_port_gains", first_dies_second_hangs)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"task 0 ended \(killed by signal 9\) with no outcome"):
        main(["copula-check", "--out", str(tmp_path / "out"), "--set", "mc.diag_rows=2000"])
    assert time.monotonic() - t0 < 30
    assert not (tmp_path / "out").exists()
    workers = [int(pid) for pid in pids.read_text().split()]
    assert len(workers) == 2
    for pid in workers:  # killed and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _live_group(pgid: int) -> set:
    """Pids of the processes of group ``pgid`` that have not exited (zombies have)."""
    pids = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited meanwhile
            continue
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            pids.add(int(entry))
    return pids


def _within(seconds: float, condition) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process groups in /proc")
def test_no_train_worker_outlives_its_command(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("train forks no workers on one usable CPU")
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "fluidfed.cli", "train", "--out", str(tmp_path),
            "--set", "fl.clients=100", "--set", "fl.rounds=100", "--set", "fl.samples=20000"]
    proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src},
                            start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        assert _within(60, lambda: _live_group(proc.pid) - {proc.pid}), "no worker started"
        time.sleep(0.2)  # into their first variants
        proc.kill()
        proc.wait(timeout=10)
        assert _within(10, lambda: not _live_group(proc.pid)), _live_group(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
