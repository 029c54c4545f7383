"""End-to-end CLI tests: config precedence, exit codes, outputs, manifests."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluidfed import __version__, analytics, cli, fedlearn
from fluidfed import montecarlo as mc
from fluidfed.cli import ConfigError, load_config, main, parse_variant
from fluidfed.channel import Clayton, GaussianJakes, Independent, PerfectDependence, SamplingError
from fluidfed.fedlearn import FlConfig
from fluidfed.montecarlo import BLOCK_VALUES, DEFAULT_VARIANTS, McPlan
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
    assert "p_max" not in cfg["system"] and plan.p_max == reference.p_max
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


def test_power_pairs_are_mutually_exclusive(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps({"system": {"tau": 0.1, "p_max": 0.02, "p_max_dbm": 13.0}})
    )
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(str(p), None)
    # a user-supplied linear value silently retires the default dbm key
    p.write_text(json.dumps({"system": {"tau": 0.1, "sigma2_dbm": -20.0}}))
    cfg, _ = load_config(str(p), None)
    assert "sigma2" not in cfg["system"]
    assert cfg["system"]["sigma2_dbm"] == -20.0


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
    assert parse_variant("FPA", 0.5) == parse_variant("perfect", 0.5) == PerfectDependence()
    assert parse_variant("jakes", 0.7) == GaussianJakes(aperture=0.7)
    with pytest.raises(ConfigError, match="could not convert"):
        parse_variant("clayton:x", 0.5)
    with pytest.raises(ConfigError, match="clayton beta must be finite and > 0"):
        parse_variant("clayton:-1", 0.5)
    with pytest.raises(ConfigError, match="unknown variant"):
        parse_variant("dipole", 0.5)


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


MNIST = ["--set", "fl.data=mnist", "--set", "fl.mnist_labels={idx}/labels.idx"]


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
        ("cdf-mse", "system.p_max_dbm=4000", "system.p_max_dbm: p_max overflows"),
        ("port-sweep", "mc.n_grid=[0,5]", "n_grid entries must be >= 1"),
        ("port-sweep", "mc.n_grid=[5,3]", "n_grid must not be empty"),
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
        ("pmf-users", 'mc.variants=["fpa","perfect"]', "`fpa` is listed more than once"),
        ("cdf-mse", "mc.variants=[3]", "must be a string"),
        ("train", 'fl.variants=["clayton:1e999"]', "clayton beta must be finite"),
        ("train", "fl.variants=[]", "fl.variants must not be empty"),
        # both labelled `clayton-2`: the second run would overwrite the first's files
        ("train", 'fl.variants=["clayton:2","clayton:2.0"]', "`clayton-2` is listed more than once"),
        _flags(23, "train", ["--benchmark", "ota", "--set", 'fl.variants=["ideal"]'],
               "fl.variants must not be empty"),
        ("train", "system.tau=-1", "tau must be finite and > 0"),
        ("train", "fl.split=1.5", "split must be in (0, 1]"),
        ("train", "fl.batch=0", "fl.batch: batch_size must be >= 1"),
        ("train", "fl.separation=NaN", "`fl.separation` must be a finite number"),
        ("train", "fl.lr=1e999", "`fl.lr` must be a finite number"),
        _flags(29, "train", ["--set", "fl.data=mnist"],
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
    # every data file has LF line ends, the Monte-Carlo CSVs included
    assert not [p.name for p in out.iterdir() if b"\r" in p.read_bytes()]


@pytest.mark.parametrize("command, extra", [("cdf-mse", FAST_MC), ("train", FAST_FL)],
                         ids=["cdf-mse", "train"])
def test_failing_command_leaves_no_directory(tmp_path, monkeypatch, command, extra):
    # cdf-mse fails in its experiment, train in its second variant
    run_training, calls = fedlearn.run_training, []

    def fail(*args, **kwargs):
        raise SamplingError("sampler produced a nonfinite draw")

    def second_run_fails(*args, **kwargs):
        calls.append(None)
        return (run_training if len(calls) == 1 else fail)(*args, **kwargs)

    monkeypatch.setattr(mc, "run_mse_cdf_experiment", fail)
    monkeypatch.setattr(fedlearn, "run_training", second_run_fails)
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


def test_round_records_serialize_and_read_back(tmp_path):
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

    csv_path = tmp_path / "run.csv"
    csv_path.write_text(files["train_run.csv"])
    sched = cli._schedule_from_records(csv_path)
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


def test_schedule_reader_rejects_wrong_csv(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="round-record"):
        cli._schedule_from_records(p)


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
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cdf-mse", "--out", str(out1), "--seed", "1", *FAST_MC]) == 0
    assert main(["cdf-mse", "--out", str(out2), "--seed", "2", *FAST_MC]) == 0
    blob1 = (out1 / "cdf_mse_independent.csv").read_bytes()
    blob2 = (out2 / "cdf_mse_independent.csv").read_bytes()
    assert blob1 != blob2


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


# no command loads scipy.stats, whose import costs over half a second;
# the check runs in a fresh interpreter
FOOTPRINT = """
import sys
from fluidfed import cli
argv = sys.argv[1:]
if argv:
    assert cli.main(argv) == 0
print('scipy.stats' in sys.modules)
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
        ["bound"],
    ],
    ids=["import", "cdf-mse", "pmf-users", "port-sweep", "copula-check", "train", "bound"],
)
def test_no_command_loads_scipy_stats(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    args = [*argv[:1], "--out", str(tmp_path / "out"), *argv[1:]] if argv else []
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "False"


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


def test_train_benchmark_flag_restricts_variants(tmp_path):
    out = tmp_path / "only-ideal"
    rc = main(["train", "--out", str(out), *FAST_FL, "--benchmark", "ideal"])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "train_ideal.csv" in names
    assert "train_independent.csv" not in names
    out2 = tmp_path / "no-ideal"
    rc = main(["train", "--out", str(out2), *FAST_FL, "--benchmark", "ota"])
    assert rc == 0
    names2 = {p.name for p in out2.iterdir()}
    assert "train_ideal.csv" not in names2
    assert "train_independent.csv" in names2


@pytest.mark.parametrize("ideal", ["ideal", "Ideal", " IDEAL "])
def test_benchmark_ota_drops_ideal_however_it_is_spelled(tmp_path, ideal):
    # --benchmark decides on the parsed variants, so every spelling parse_variant
    # reads as `ideal` is dropped, and the manifest lists what was kept
    out = tmp_path / "t"
    args = ["train", "--out", str(out), *FAST_FL,
            "--set", f'fl.variants=["{ideal}","independent"]', "--benchmark", "ota"]
    assert main(args) == 0
    assert {p.name for p in out.iterdir()} == {
        "train_independent.csv", "train_independent.jsonl", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["fl"]["variants"] == ["independent"]
    assert manifest["config_sources"]["fl.variants"] == "flag"


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
# and ragged shards of 61/60/60 rows in one cohort
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
]


@pytest.mark.parametrize("extra, golden", TRAIN_GOLDEN, ids=["fast", "adam-ragged"])
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
# bound: only min_p_value moved
MC_WIDE_BETAS = ["--set", "system.K=40", "--set", "system.N=33",
                 "--set", 'mc.variants=["independent","clayton:0.05","clayton:30","fpa"]']
MC_GOLDEN = [
    (
        "cdf-mse", [],
        {
            "cdf_mse_clayton-1.csv": "350f1d7882db8a02309d20dd260f2570ad96ce74e13f3f2bc0d965f58fe9f65a",
            "cdf_mse_clayton-2.csv": "27f9e9d25e0e076a2a01e83467f4ec5caf4bdfc85e261fe95e97511ca17f61f3",
            "cdf_mse_fpa.csv": "93483f46c4be23f3a89f1bbe0a9225c858b98d102d16e00adcd97cf9822933ea",
            "cdf_mse_independent.csv": "36e82479e7a54b39f89e25ac9792b5554a3d13eb552114d3fa6e146b080aa9c2",
            "cdf_mse_report.json": "ee3d160056734780a01d570e65559a3f9ffd98e8f744835e575854d210d13c42",
        },
    ),
    (
        "cdf-mse", MC_WIDE_BETAS,
        {
            "cdf_mse_clayton-0.05.csv": "49f6a852ad7aec337a4e2f64f9e2ccefd9239035b167672624066a9d229fe1c6",
            "cdf_mse_clayton-30.csv": "f2b24d518234d773fe9f09c4678eec99d3d1b6e98439f9037d79c7de17eb6ad6",
            "cdf_mse_fpa.csv": "aef8430be44578b838706d56823da4c67072ab76cf83ef0733e3e7c3564f2b02",
            "cdf_mse_independent.csv": "68c714eabb5171c25b3f1545472723e477b3f1da55f93e5e57cd6762946db72e",
            "cdf_mse_report.json": "f976b264e0dc688ccac1bee8de52676e0bd50b8469e4cea5ac7c33dcc1403c84",
        },
    ),
    (
        "pmf-users", [],
        {
            "pmf_users_clayton-1.csv": "bd7997580fbff0c7f711e4adbf478873d294a1b670bf24b57ee3f8b8f09ca431",
            "pmf_users_clayton-2.csv": "fa5f9000ce1143c6b608be50030c723ff58fe6a40e8f85a768fad510dee7da09",
            "pmf_users_fpa.csv": "871910f0685761d8c54a1933db46739be10eefa4dccc5b67405bed6caade712e",
            "pmf_users_independent.csv": "87396c38ac951d1f28045451ee279e6377e291e1cab4fac4a5e235fca9e0df52",
            "pmf_users_report.json": "f2bdbbeeb8374bd2126fa8c73aee5128e9055df0abd585cfa499d372acb4e172",
        },
    ),
    (
        "pmf-users", MC_WIDE_BETAS,
        {
            "pmf_users_clayton-0.05.csv": "6e9d1d7e11acbcf3d21a8f568240fddbf7052490369219f14e289d667d3a1199",
            "pmf_users_clayton-30.csv": "281f8b43dcd646e68ecab120cd3ad5d93fdd1c8887133587b432cbf6e68573fa",
            "pmf_users_fpa.csv": "d989b7141aa1f3467a239b8fa67c7f1c16a62bf422b8afc7bc73adc0520347f2",
            "pmf_users_independent.csv": "5fdff620f84af71985cce17f3cd385f393925a59328020f9a4883617bde4c5b9",
            "pmf_users_report.json": "5d458bee51ea8de5807441e34ee3f9ec6c43527aa87602856b39f2e077545a6d",
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
        "copula-check", [],
        {
            "copula_check_clayton-1.csv": "3e5e9816179246f7f13f5ab507d18ad0fae537bd202f1f628362d74fb2782940",
            "copula_check_report.json": "329072d518ad1d345eb9fa4afbce093b6cdfc15b4cb82284441a2e940f493e23",
        },
    ),
]


@pytest.mark.parametrize(
    "command, extra, golden", MC_GOLDEN,
    ids=["cdf-fast", "cdf-wide-betas", "pmf-fast", "pmf-wide-betas", "sweep-fast", "copula-fast"],
)
def test_mc_outputs_match_frozen_sha256(tmp_path, command, extra, golden):
    assert main([command, "--out", str(tmp_path), *FAST_MC, *extra, "--seed", "0"]) == 0
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(golden)
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_bound_output_matches_frozen_sha256(tmp_path):
    # the default bound section, frozen with the port-sweep and copula-check rows
    assert main(["bound", "--out", str(tmp_path), "--seed", "0"]) == 0
    digest = hashlib.sha256((tmp_path / "bound.csv").read_bytes()).hexdigest()
    assert digest == "ac5a0ac9c8c29fc289b2b1d923fd1a1f22e98eb71861dfd3f61c14c78d1acc56"


# a block of BLOCK_VALUES gains holds 327 trials of K=20 users x 10 ports,
# or 546 at the sweep's 6 ports, so 400 trials take 2 blocks, or 1
@pytest.mark.parametrize("command, blocks", [("cdf-mse", 2), ("pmf-users", 2), ("port-sweep", 1)])
def test_mc_manifest_records_telemetry(tmp_path, command, blocks):
    assert main([command, "--out", str(tmp_path), *FAST_MC]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    report_name = f"{command.replace('-', '_')}_report.json"
    report = json.loads((tmp_path / report_name).read_text())
    telemetry = manifest["telemetry"]
    assert set(telemetry) == set(report) == {"independent", "clayton-1", "clayton-2", "fpa"}
    assert BLOCK_VALUES // 200 == 327 and BLOCK_VALUES // 120 == 546
    for label, block in telemetry.items():
        assert block["trials"] == 400
        assert block["blocks"] == blocks
        assert block["seconds"] > 0
        assert block["trials_per_s"] == pytest.approx(400 / block["seconds"])
        failing = sum(not p["pass"] for p in report[label]["points"])
        assert block["failing_points"] == failing
    # the telemetry stays out of the hashed data files
    for name in {p.name for p in tmp_path.iterdir()} - {"manifest.json"}:
        text = (tmp_path / name).read_text()
        assert "seconds" not in text and "trials_per_s" not in text, name


def test_bound_manifest_records_telemetry(tmp_path):
    assert main(["bound", "--out", str(tmp_path), "--set", "bound.rounds=7"]) == 0
    telemetry = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]
    assert set(telemetry) == {"rounds", "psi", "final_value", "seconds"}
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
             "--set", "system.tau=0.5", "--benchmark", "ota"]
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
