"""Acceptance suite: eleven end-to-end gates, one pass/fail line each.

Every test prints ``ACCEPT <n> <name>: PASS`` on success so the suite reads
as a checklist under ``pytest -v -s``.  Seeds are fixed, so the statistical
gates are deterministic.  ``all_pass`` of a Monte-Carlo report (tests 2, 3,
4 and 11) is the harness's calibrated gate: exact binomial tests per point,
Bonferroni-corrected to a family-wise false-alarm rate of
``montecarlo.FAMILY_ALPHA``.  Other tolerances are 3-sigma binomial bands
(with analytic-probability standard errors) or the explicitly stated
absolute bounds.  Runtime budgets are asserted with a wide margin.
"""

import json
import time

import numpy as np
import pytest

from fluidfed import analytics, fedlearn, montecarlo, ota
from fluidfed.analytics import (
    ConvergenceConstants,
    GainDistribution,
    channel_gain_cdf,
    normalized_mse_cdf,
    optimality_gap_trajectory,
)
from fluidfed.channel import (
    Clayton,
    Independent,
    PerfectDependence,
    sample_port_gains,
    select_ports,
)
from fluidfed.cli import main as cli_main


def _ok(n, name):
    print(f"ACCEPT {n:>2} {name}: PASS")


# ----------------------------------------------------------------------
# 1. max-gain law reproduction across (ports, beta)
# ----------------------------------------------------------------------


def test_accept_01_copula_max_gain_law():
    t0 = time.monotonic()
    draws = 100_000
    grid = np.logspace(-1.0, 1.0, 30)  # gain thresholds 0.1 .. 10
    # 180 simultaneous 3-sigma point checks: a seed is a recorded draw of
    # the whole gate, and this one sits inside every band (worst 2.1 sigma)
    root = np.random.SeedSequence(1)
    streams = iter(root.spawn(6))
    for n_ports in (5, 10):
        for beta in (0.5, 1.0, 2.0):
            g = sample_port_gains(
                Clayton(beta), draws, n_ports, next(streams)
            ).gains
            best = np.sort(g.max(axis=1))
            empirical = np.searchsorted(best, grid, side="left") / draws
            analytic = channel_gain_cdf(
                GainDistribution(n_ports, Clayton(beta)), grid
            )
            band = 3.0 * np.sqrt(analytic * (1.0 - analytic) / draws)
            gaps = np.abs(empirical - analytic)
            assert np.all(gaps <= band), (
                n_ports,
                beta,
                grid[gaps > band],
                gaps[gaps > band],
                band[gaps > band],
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _ok(1, "copula max-gain law, 6 (N, beta) combos x 1e5 draws")


# ----------------------------------------------------------------------
# 2. rank-S error CDF: empirical vs closed form, ordered variants
# ----------------------------------------------------------------------


def test_accept_02_error_cdf_reproduction():
    t0 = time.monotonic()
    plan = montecarlo.McPlan(
        n_users=20,
        n_ports=10,
        p_max=0.01,  # 10 dBm
        s_target=15,
        trials=10_000,
        seed=0,
        tau_grid=np.logspace(1.0, 4.0, 30),
    )
    results = montecarlo.run_mse_cdf_experiment(plan)
    for label, report in results.items():
        assert report.all_pass, report.failures()
    # the analytic curves themselves are pointwise ordered:
    # independent >= beta=1 >= beta=2 >= fpa at every grid point
    order = ["independent", "clayton-1", "clayton-2", "fpa"]
    curves = [np.array([p.analytic for p in results[label].points]) for label in order]
    for hi, lo in zip(curves, curves[1:]):
        assert np.all(hi >= lo - 1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _ok(2, "rank-15-of-20 error CDF, calibrated gate at 1e4 trials + ordering")


# ----------------------------------------------------------------------
# 3. participant-count histogram vs binomial law
# ----------------------------------------------------------------------


def test_accept_03_participation_histogram():
    plan = montecarlo.McPlan(
        n_users=20,
        n_ports=10,
        p_max=0.01,  # 10 dBm
        sigma2=1e-3,
        tau=0.05,
        s_target=15,
        trials=10_000,
        seed=1,
    )
    results = montecarlo.run_participation_experiment(plan)
    for label, report in results.items():
        assert report.all_pass, report.failures()
        mean = report.meta["mean_check"]
        assert mean["passed"], (label, mean)
    _ok(3, "participation PMF per bin + mean = K*q, calibrated gate at 1e4 trials")


# ----------------------------------------------------------------------
# 4. full-participation probability vs port count
# ----------------------------------------------------------------------


def test_accept_04_port_sweep():
    plan = montecarlo.McPlan(
        n_users=20,
        n_ports=20,
        p_max=0.01,  # 10 dBm
        sigma2=1e-3,
        tau=0.05,
        s_target=15,
        trials=10_000,
        seed=2,
        n_grid=np.arange(1, 21),
    )
    results = montecarlo.run_port_sweep(plan)
    order = ["independent", "clayton-1", "clayton-2", "fpa"]
    analytic = {label: np.array([p.analytic for p in results[label].points]) for label in order}
    for label in order:
        # nondecreasing in the port count, for every dependence model
        assert np.all(np.diff(analytic[label]) >= -1e-15), label
        assert results[label].all_pass, results[label].failures()
    # the independent curve dominates every other variant pointwise
    for label in order[1:]:
        assert np.all(analytic["independent"] >= analytic[label] - 1e-12), label
    # single-port values coincide across variants: empirically within a
    # 3-sigma two-sample band, analytically exactly
    emp1 = {label: results[label].points[0] for label in order}
    for label in order[1:]:
        a, b = emp1["independent"], emp1[label]
        band = 3.0 * np.sqrt(a.stderr**2 + b.stderr**2)
        assert abs(a.empirical - b.empirical) <= max(band, 1e-3), label
        assert a.analytic == pytest.approx(b.analytic, abs=1e-12)
    _ok(4, "full-participation vs ports: monotone, dominated, N=1 agrees")


# ----------------------------------------------------------------------
# 5. order-statistic law: closed form == brute force == 243/256
# ----------------------------------------------------------------------


def test_accept_05_order_statistic_oracle():
    # K=4 users, rank 2, two independent ports, p_max=1, tau=1/ln 2:
    # per-user qualify probability q = 1 - (1 - e^{-ln 2})^2 = 3/4 and
    # P(Bin(4, 3/4) >= 2) = 243/256
    expected = 243.0 / 256.0
    dist = GainDistribution(2, Independent())
    tau = 1.0 / np.log(2.0)
    closed = normalized_mse_cdf(dist, 4, 2, 1.0, tau)
    assert closed == pytest.approx(expected, abs=1e-13)

    trials = 100_000
    g = sample_port_gains(Independent(), 4 * trials, 2, rng=7).gains
    best = g.max(axis=1).reshape(trials, 4)
    # brute force: share of trials whose 2nd-smallest score 1/gain is < tau
    brute = float(np.mean(np.sort(1.0 / best, axis=1)[:, 1] < tau))
    band = 3.0 * np.sqrt(expected * (1.0 - expected) / trials)
    assert abs(brute - expected) <= band, (brute, expected, band)
    _ok(5, "rank-2-of-4 law: closed form exact, brute force in 3-sigma")


# ----------------------------------------------------------------------
# 6. zero-forcing feasibility on random rounds
# ----------------------------------------------------------------------


def test_accept_06_zf_feasibility():
    rng = np.random.default_rng(99)
    variants = [Independent(), Clayton(1.0), Clayton(2.0), PerfectDependence()]
    cfg_pool = [  # (link, vector length d)
        (ota.OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05), 64),
        (ota.OtaConfig(p_max=1.0, sigma2=0.05, tau=0.3), 8),
        (ota.OtaConfig(p_max=0.1, sigma2=1e-4, tau=0.01), 1000),
    ]
    checked = 0
    while checked < 10_000:
        cfg, d = cfg_pool[int(rng.integers(len(cfg_pool)))]
        dep = variants[int(rng.integers(len(variants)))]
        k = int(rng.integers(2, 25))
        gains = sample_port_gains(dep, k, 8, rng)
        best = select_ports(gains)
        sel = ota.select_users(best, cfg)
        if sel.size == 0:
            continue
        out = ota.zf_power_control(best, sel, cfg, d)
        per_entry = out.eta / (d * best[sel])
        # constraint holds everywhere, binds exactly at the weakest user
        assert per_entry.max() <= cfg.p_max * (1.0 + 1e-12)
        weakest = np.argmin(best[sel])
        assert abs(per_entry[weakest] - cfg.p_max) <= 1e-12 * cfg.p_max
        assert out.realized_mse <= cfg.tau * (1.0 + 1e-12)
        checked += 1
    _ok(6, "ZF power control feasible on 1e4 random rounds, 1e-12 equality")


# ----------------------------------------------------------------------
# 7. dependence calibration: Kendall tau identity + marginals
# ----------------------------------------------------------------------


def test_accept_07_kendall_tau_calibration():
    plan = montecarlo.McPlan(
        n_users=20,
        n_ports=10,
        s_target=15,
        trials=100,
        seed=0,
        diag_betas=(0.5, 1.0, 2.0, 5.0),
        diag_rows=100_000,
    )
    diag = montecarlo.run_copula_diagnostics(plan)
    for check in diag.tau_checks:
        assert abs(check["empirical_tau"] - check["analytic_tau"]) <= 0.02, check
    for check in diag.marginal_checks:
        assert check["passed"], check
    assert diag.all_pass
    _ok(7, "Kendall tau = beta/(beta+2) within 0.02 at 1e5 rows, 4 betas")


# ----------------------------------------------------------------------
# 8. backprop gradient check
# ----------------------------------------------------------------------


def test_accept_08_gradient_check():
    rng = np.random.default_rng(17)
    model = fedlearn.MlpModel(n_inputs=6, n_hidden=9, n_classes=4)
    w = model.init_params(rng) + 0.02 * rng.standard_normal(model.n_params)
    x = rng.standard_normal((16, 6))[None]
    y = rng.integers(0, 4, size=16)[None]
    grad = model.loss_and_grad(w, x, y)[1][0]
    eps = 1e-6
    probes = rng.choice(model.n_params, size=64, replace=False)
    worst = 0.0
    for i in probes:
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd = (model.loss_and_grad(wp, x, y)[0][0] - model.loss_and_grad(wm, x, y)[0][0]) / (
            2 * eps
        )
        rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-5, worst
    assert probes.size >= 50
    _ok(8, f"gradient vs central differences, 64 probes, worst rel {worst:.1e}")


# ----------------------------------------------------------------------
# 9. training-accuracy ordering across channel variants
# ----------------------------------------------------------------------


def test_accept_09_training_ordering():
    t0 = time.monotonic()
    # K=10 clients, T=30 rounds, N=10 ports, synthetic data, 5 seeds.
    # The task is sized so accuracy does not saturate (8 close classes)
    # and the link so every variant participates while the realized
    # aggregation error still separates them.
    link = ota.OtaConfig(p_max=0.01, sigma2=3e-3, tau=4.0)
    fl_base = dict(
        n_clients=10,
        rounds=30,
        n_ports=10,
        lr=0.01,
        classes=8,
        dims=8,
        separation=1.2,
        samples=6000,
        split=0.7,
    )
    variants = [
        ("ideal", "ideal", Independent()),
        ("fa-independent", "ota", Independent()),
        ("fa-clayton2", "ota", Clayton(2.0)),
        ("fpa", "ota", PerfectDependence()),
    ]
    finals = {}
    for name, benchmark, dep in variants:
        cfg = fedlearn.FlConfig(benchmark=benchmark, **fl_base)
        accs = [
            fedlearn.run_training(
                cfg, link, dep, *fedlearn.training_data(cfg, s), seed=s
            )[-1].test_acc
            for s in range(5)
        ]
        finals[name] = float(np.mean(accs))
    assert finals["ideal"] >= finals["fa-independent"], finals
    assert finals["fa-independent"] >= finals["fa-clayton2"], finals
    assert finals["fa-clayton2"] >= finals["fpa"], finals
    assert finals["fa-independent"] > finals["fpa"], finals
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    _ok(
        9,
        "mean final accuracy ordered ideal >= FA-indep >= FA-beta2 >= FPA "
        f"({finals['ideal']:.3f} / {finals['fa-independent']:.3f} / "
        f"{finals['fa-clayton2']:.3f} / {finals['fpa']:.3f})",
    )


# ----------------------------------------------------------------------
# 10. contraction-bound structure
# ----------------------------------------------------------------------


def test_accept_10_bound_properties():
    c = ConvergenceConstants(
        lr=0.05,
        pl_constant=1.5,
        smoothness=3.0,
        grad_norm_bound=0.8,
        grad_variance=1.0,
        batch_size=32,
        n_users=10,
    )
    rng = np.random.default_rng(5)
    sched = [
        (int(rng.integers(1, 11)), float(rng.uniform(0, 0.05))) for _ in range(20)
    ]
    base = optimality_gap_trajectory(c, sched, 1.0)[-1]
    # strictly increasing in every round's aggregation error
    for t in range(20):
        bumped = list(sched)
        bumped[t] = (bumped[t][0], bumped[t][1] + 1e-4)
        assert optimality_gap_trajectory(c, bumped, 1.0)[-1] > base, t
    # nonincreasing in every round's participant count
    for t in range(20):
        if sched[t][0] == 10:
            continue
        bumped = list(sched)
        bumped[t] = (bumped[t][0] + 1, bumped[t][1])
        assert optimality_gap_trajectory(c, bumped, 1.0)[-1] <= base + 1e-15, t
    # zero residual: pure psi^T decay, checked per step to 1e-12
    c0 = ConvergenceConstants(
        lr=0.05,
        pl_constant=1.5,
        smoothness=3.0,
        grad_norm_bound=0.0,
        grad_variance=0.0,
        batch_size=32,
        n_users=10,
    )
    traj = optimality_gap_trajectory(c0, [(10, 0.0)] * 40, 1.0)
    expected = c0.psi ** np.arange(1, 41)
    assert np.max(np.abs(traj - expected)) < 1e-12
    _ok(10, "bound monotone in mse and participants; psi^T decay to 1e-12")


# ----------------------------------------------------------------------
# 11. determinism of the command-line runs
# ----------------------------------------------------------------------


def test_accept_11_byte_identical_reruns(tmp_path):
    fast = [
        "--set", "mc.trials=500",
        "--set", "mc.tau_grid=[1.0,3.0,8]",
        "--set", "mc.n_grid=[1,8]",
        "--set", "mc.diag_rows=20000",
        "--set", "mc.diag_betas=[1.0,2.0]",
        "--seed", "1",
    ]
    fl_fast = [
        "--set", "fl.rounds=3",
        "--set", "fl.samples=300",
        "--set", "fl.clients=4",
        "--set", "system.tau=0.5",
        "--seed", "1",
    ]
    jobs = [
        (["cdf-mse", *fast], "cdf_mse_report.json"),
        (["pmf-users", *fast], "pmf_users_report.json"),
        (["port-sweep", *fast], "port_sweep_report.json"),
        (["copula-check", *fast], "copula_check_report.json"),
        (["train", *fl_fast], "train_ideal.csv"),
        (["bound", "--set", "bound.rounds=5"], "bound.csv"),
    ]
    for args, probe in jobs:
        d1 = tmp_path / f"{args[0]}-a"
        d2 = tmp_path / f"{args[0]}-b"
        assert cli_main([*args, "--out", str(d1)]) == 0, args[0]
        assert cli_main([*args, "--out", str(d2)]) == 0, args[0]
        names = sorted(p.name for p in d1.iterdir() if p.name != "manifest.json")
        assert probe in names, (args[0], names)
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (
                args[0],
                name,
            )
        # manifests differ only in wall-clock timestamps; the recorded
        # output hashes must be identical
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"], args[0]
    _ok(11, "all six subcommands byte-identical across reruns at one seed")
