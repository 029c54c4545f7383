"""Monte Carlo harness tests: reports, determinism, block layout, diagnostics.

Trial counts here are kept modest; the full-size statistical gates live in
the acceptance suite.
"""

import json
import math
import os
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.stats import binom

from fluidfed import forked, montecarlo
from fluidfed.channel import (
    Clayton,
    GaussianJakes,
    Independent,
    PerfectDependence,
    first_qualifying_port,
    sample_best_gains,
    sample_port_gains,
)
from fluidfed.montecarlo import (
    BLOCK_USERS,
    ComparisonReport,
    CopulaDiagnostics,
    GridPointCheck,
    DEFAULT_VARIANTS,
    McPlan,
    run_copula_diagnostics,
    run_mse_cdf_experiment,
    run_participation_experiment,
    run_port_sweep,
    trial_streams,
)


def _small_plan(**kw):
    base = dict(
        n_users=8,
        n_ports=5,
        p_max=0.01,
        sigma2=1e-3,
        tau=0.05,
        s_target=6,
        trials=3000,
        seed=0,
        tau_grid=np.logspace(1.0, 3.5, 12),
        n_grid=np.arange(1, 9),
        gain_grid=np.linspace(0.1, 5.0, 10),
        diag_betas=(1.0, 2.0),
        diag_rows=20_000,
    )
    base.update(kw)
    return McPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        _small_plan(trials=0)
    # s_target > n_users: only the error-CDF experiment reads it, and it
    # rejects it before drawing
    plan = _small_plan(s_target=9)
    with pytest.raises(ValueError, match="s_target must be in 1..n_users"):
        run_mse_cdf_experiment(plan)
    for name in ("tau_grid", "gain_grid"):
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            _small_plan(**{name: np.array([1.0, np.inf])})
    # the samplers compute max(n_grid) + 1 as an int64
    with pytest.raises(ValueError, match=r"n_grid entries must be < 2\*\*63 - 1"):
        _small_plan(n_grid=np.array([2**63 - 1]))


@pytest.mark.parametrize("name, entries, label", [
    ("variants", (Clayton(2.0), Clayton(2.0)), "clayton-2"),
    ("variants", (PerfectDependence(), Independent(), PerfectDependence()), "fpa"),
    ("diag_betas", (2, 2.0000001), "clayton-2"),
])
def test_plan_rejects_entries_that_share_a_label(name, entries, label):
    # reports and output files are keyed by label: the second entry would
    # replace the first's report while still counting in the Bonferroni split
    with pytest.raises(ValueError, match=f"^{name} entry `{label}` is listed more than once"):
        _small_plan(**{name: entries})


def test_trial_streams_are_distinct_and_reproducible():
    a = trial_streams(7, 5)
    b = trial_streams(np.random.SeedSequence(7), 5)
    assert len(a) == 5
    for sa, sb in zip(a, b):
        assert sa.spawn_key == sb.spawn_key
        assert np.array_equal(
            np.random.default_rng(sa).integers(0, 2**32, 4),
            np.random.default_rng(sb).integers(0, 2**32, 4),
        )
    draws = {tuple(np.random.default_rng(s).integers(0, 2**32, 4)) for s in a}
    assert len(draws) == 5


def _direct_trials(plan, v, n_sampled, draw):
    """Variant v's (trials, K) per-user values, drawn by ``draw`` straight
    from the stated layout: blocks of max(1, BLOCK_USERS // K) trials,
    block b from SeedSequence(seed).spawn(V)[v].spawn(n_blocks)[b]."""
    k = plan.n_users
    per = max(1, BLOCK_USERS // k)
    n_blocks = -(-plan.trials // per)
    root = np.random.SeedSequence(plan.seed).spawn(len(plan.variants))[v]
    dep = plan.variants[v]
    blocks = []
    for b, stream in enumerate(root.spawn(n_blocks)):
        rows = min(per, plan.trials - b * per)
        blocks.append(draw(dep, rows * k, n_sampled, stream).reshape(rows, k))
    return np.concatenate(blocks), n_blocks


def test_blocks_follow_the_stated_seed_path(monkeypatch):
    # trials=5000 at K=8 spans 5 blocks of 1024 trials, the last one short,
    # whether the draws have N=5 ports or the sweep's 8; the per-trial loop
    # below is the reference reduction of each block's draws (the samplers'
    # laws are tested in test_channel)
    plan = _small_plan(trials=5000)
    calls = []

    def counted(name):
        real = getattr(montecarlo, name)

        def sampler(dep, n_users, n_ports, *rest):
            calls.append((name, n_users, n_ports))
            return real(dep, n_users, n_ports, *rest)

        monkeypatch.setattr(montecarlo, name, sampler)

    counted("sample_port_gains")
    counted("sample_best_gains")
    counted("first_qualifying_port")
    cdf = run_mse_cdf_experiment(plan)
    pmf = run_participation_experiment(plan)
    sweep = run_port_sweep(plan)
    threshold = plan.sigma2 / (plan.p_max * plan.tau)
    n_grid = np.asarray(plan.n_grid)

    def first_ports(dep, n_users, n_ports, stream):
        return first_qualifying_port(dep, n_users, n_ports, threshold, stream)

    for v, label in enumerate(dep.label for dep in plan.variants):
        best, n_blocks = _direct_trials(plan, v, plan.n_ports, sample_best_gains)
        assert best.shape == (5000, 8) and n_blocks == 5
        scores, heard = [], []
        for trial in best:
            scores.append(np.sort(1.0 / (plan.p_max * trial))[plan.s_target - 1])
            heard.append(int(np.sum(trial >= threshold)))
        scores = np.array(scores)
        assert [p.empirical for p in cdf[label].points] == [
            np.mean(scores < tau) for tau in plan.tau_grid
        ]
        assert [p.empirical for p in pmf[label].points] == list(
            np.bincount(heard, minlength=plan.n_users + 1) / plan.trials
        )
        assert pmf[label].meta["mean_check"]["empirical_mean"] == sum(heard) / plan.trials

        first, sweep_blocks = _direct_trials(plan, v, int(n_grid.max()), first_ports)
        assert sweep_blocks == 5
        full = [[all(trial < n) for n in n_grid] for trial in first]
        assert [p.empirical for p in sweep[label].points] == list(
            np.mean(full, axis=0)
        )
    # cdf and pmf draw the same blocks through sample_best_gains, the sweep
    # through first_qualifying_port; none builds a full matrix
    assert BLOCK_USERS // 8 == 1024
    best = "sample_best_gains"
    cdf_calls = [(best, 1024 * 8, 5)] * 4 + [(best, (5000 - 4 * 1024) * 8, 5)]
    first = "first_qualifying_port"
    sweep_calls = [(first, 1024 * 8, 8)] * 4 + [(first, (5000 - 4 * 1024) * 8, 8)]
    assert calls == cdf_calls * 4 + cdf_calls * 4 + sweep_calls * 4


def test_mse_cdf_experiment_passes_and_is_seed_stable():
    plan = _small_plan()
    out1 = run_mse_cdf_experiment(plan)
    out2 = run_mse_cdf_experiment(_small_plan())
    assert set(out1) == {"independent", "clayton-1", "clayton-2", "fpa"}
    for label, report in out1.items():
        assert report.all_pass, report.failures()
        assert report.meta["family_alpha"] == montecarlo.FAMILY_ALPHA
        assert [p.x for p in report.points] == list(plan.tau_grid)
        # same seed -> identical empirical points
        for p1, p2 in zip(report.points, out2[label].points):
            assert p1.empirical == p2.empirical


@pytest.mark.parametrize(
    "run, sampler",
    [
        (run_mse_cdf_experiment, "sample_best_gains"),
        (run_participation_experiment, "sample_best_gains"),
        (run_port_sweep, "first_qualifying_port"),
    ],
    ids=["run_mse_cdf_experiment", "run_participation_experiment", "run_port_sweep"],
)
def test_gate_rejects_clayton_1_samples_against_the_clayton_2_law(monkeypatch, run, sampler):
    # power of the calibrated gate at the default plan (K=20, N=10, 10k
    # trials): the sampler the experiment calls draws Clayton(1) where the
    # law is Clayton(2)
    real = getattr(montecarlo, sampler)

    def clayton_1(dep, *args):
        return real(Clayton(1.0) if dep == Clayton(2.0) else dep, *args)

    monkeypatch.setattr(montecarlo, sampler, clayton_1)
    out = run(McPlan(variants=(Clayton(2.0),)))
    report = out["clayton-2"]
    assert not report.all_pass
    assert any(": x=" in line for line in report.failures())  # a grid point fails


@pytest.mark.parametrize("trials", [1, 7, 400, 10_000])
def test_gate_p_values_and_flags_match_scipy_binom(trials):
    # random (count, probability) points, half of them drawn from the law so
    # the p-values spread over (0, 1], plus the edges k = 0, k = trials and
    # p in {0, 1}; the reference is the two-sided test on scipy.stats.binom
    rng = np.random.default_rng(trials)
    p = rng.uniform(size=4000)
    k = np.where(rng.uniform(size=4000) < 0.5, rng.binomial(trials, p),
                 rng.integers(0, trials + 1, size=4000))
    edge_k, edge_p = np.meshgrid([0, trials // 2, trials], [0.0, 0.3, 1.0])
    k, p = np.concatenate([k, edge_k.ravel()]), np.concatenate([p, edge_p.ravel()])
    ref = np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, trials, p), binom.sf(k - 1, trials, p)))
    np.testing.assert_allclose(montecarlo._p_values(k, trials, p), ref, rtol=1e-12, atol=1e-14)
    for alpha in (1e-6, montecarlo.FAMILY_ALPHA, 0.05):
        checks = montecarlo._check_points(k, k, p, trials, alpha)
        assert [c.passed for c in checks] == list(ref > alpha)


def test_gate_deep_tail_is_exact():
    # 2 min(P[X <= 2], P[X >= 2]) under Bin(20, 1e-9); mpmath: 1.8999999772e-16
    (pv,) = montecarlo._p_values(np.array([2]), 20, np.array([1e-9]))
    assert pv == pytest.approx(2 * 1.8999999772e-16, rel=1e-10, abs=0)


@pytest.mark.parametrize("n, k, p", [(200, 37, 0.9891691831956325), (1000, 963, 0.4849)])
def test_gate_p_values_match_an_mpmath_sum_where_scipy_binom_is_off(n, k, p):
    # scipy.stats.binom's two-sided p-value is 5.9e-2 relative off at the
    # first point and 9e-12 at the second; the exact sum at 60 digits
    with mp.workdps(60):
        p_, q_ = mp.mpf(p), 1 - mp.mpf(p)
        terms = [mp.binomial(n, j) * p_**j * q_ ** (n - j) for j in range(n + 1)]
        expected = min(mp.mpf(1), 2 * min(mp.fsum(terms[: k + 1]), mp.fsum(terms[k:])))
    (got,) = montecarlo._p_values(np.array([k]), n, np.array([p]))
    assert got == pytest.approx(float(expected), rel=1e-12, abs=0)


def test_participation_experiment_bins_and_mean():
    out = run_participation_experiment(_small_plan())
    for label, report in out.items():
        assert len(report.points) == 9  # s = 0..8
        assert report.all_pass, report.failures()
        mean = report.meta["mean_check"]
        assert mean["passed"]
        emp_pmf = np.array([p.empirical for p in report.points])
        assert emp_pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_port_sweep_is_monotone_and_passes():
    out = run_port_sweep(_small_plan())
    for label, report in out.items():
        assert report.all_pass, report.failures()
        # prefix-nested sampling makes even the empirical sweep monotone
        emp = np.array([p.empirical for p in report.points])
        assert np.all(np.diff(emp) >= 0), label
        assert np.all(np.diff([p.analytic for p in report.points]) >= -1e-15), label


def test_port_sweep_rejects_jakes_variant():
    plan = _small_plan(variants=(GaussianJakes(0.5),))
    with pytest.raises(TypeError):
        run_port_sweep(plan)


def test_mse_cdf_rejects_jakes_variant():
    plan = _small_plan(variants=(GaussianJakes(0.5),))
    with pytest.raises(TypeError):
        run_mse_cdf_experiment(plan)


def test_copula_diagnostics_pass_and_serialize():
    diag = run_copula_diagnostics(_small_plan())
    assert diag.failures() == [] and diag.all_pass
    assert {c["beta"] for c in diag.marginal_checks} == {1.0, 2.0}
    for check in diag.tau_checks:
        assert abs(check["empirical_tau"] - check["analytic_tau"]) <= 0.02
    # the Bessel-model gaps are informational: present, finite, no flag
    assert set(diag.jakes_gaps) >= {"independent", "fpa", "clayton-1"}
    assert all(np.isfinite(v) for v in diag.jakes_gaps.values())
    blob = diag.to_json_dict()
    json.dumps(blob)  # must be JSON-clean
    assert blob["all_pass"] is True


def test_copula_marginal_gate_is_bonferroni_corrected():
    diag = run_copula_diagnostics(_small_plan())
    for check in diag.marginal_checks:
        assert check["family_alpha"] == montecarlo.FAMILY_ALPHA
        # 2 betas x 5 ports share the family-wise rate
        assert check["alpha"] == pytest.approx(montecarlo.FAMILY_ALPHA / 10)
        assert check["passed"] == (check["min_p_value"] > check["alpha"])
        assert 0 < check["max_ks_statistic"] < 1


def test_copula_marginal_gate_rejects_scaled_exponential_marginals(monkeypatch):
    # power at the default 100k rows and 10 ports: every port is
    # Exp(scale 1.05) instead of Exp(1), a sup distance of about 0.018.  One
    # beta keeps the test fast; the rejection also holds at the stricter
    # per-test level of the default plan's 4 betas x 10 ports.
    real = montecarlo.sample_port_gains

    def stretched(dep, n_users, n_ports, rng):
        out = real(dep, n_users, n_ports, rng)
        return type(out)(gains=1.05 * out.gains)

    monkeypatch.setattr(montecarlo, "sample_port_gains", stretched)
    diag = run_copula_diagnostics(McPlan(diag_betas=(1.0,)))
    (check,) = diag.marginal_checks
    assert not check["passed"]
    assert check["min_p_value"] < montecarlo.FAMILY_ALPHA / 40
    assert not diag.all_pass
    assert diag.failures()[-1] == f"FAIL diagnostics: {check}"


@pytest.mark.parametrize("seed", [4, 8, 25, 30])
def test_kendall_gate_holds_its_level_at_2000_rows(seed):
    # at these seeds a fixed 0.02 band failed a correct sampler (betas 0.5,
    # 1, 2, and 1 and 2 together); Hoeffding's band at FAMILY_ALPHA / 4 is
    # sqrt(2 ln 8000 / 1000) = 0.134 at 2000 rows
    diag = run_copula_diagnostics(McPlan(diag_rows=2000, seed=seed))
    gaps = [abs(c["empirical_tau"] - c["analytic_tau"]) for c in diag.tau_checks]
    assert max(gaps) > 0.02
    assert all(c["passed"] for c in diag.tau_checks)
    band = math.sqrt(2.0 * math.log(2.0 * 4 / montecarlo.FAMILY_ALPHA) / 1000)
    assert max(gaps) <= band == pytest.approx(0.134, abs=5e-4)


@pytest.mark.parametrize("rows", [2000, 20_000, 100_000])
def test_kendall_gate_rejects_clayton_1_samples_against_the_clayton_2_law(monkeypatch, rows):
    # tau 1/3 judged as 1/2, at the default four betas
    real = montecarlo.sample_port_gains

    def clayton_1(dep, *args):
        return real(Clayton(1.0) if dep == Clayton(2.0) else dep, *args)

    monkeypatch.setattr(montecarlo, "sample_port_gains", clayton_1)
    diag = run_copula_diagnostics(McPlan(diag_rows=rows))
    assert [c["beta"] for c in diag.tau_checks if not c["passed"]] == [2.0]
    assert f"FAIL diagnostics: {diag.tau_checks[2]}" in diag.failures()


def _scipy_ks(gains):
    """Per column scipy.stats.kstest against Exp(1): the D values, and
    the smallest exact p-value."""
    per_column = [stats.kstest(gains[:, j], "expon") for j in range(gains.shape[1])]
    return [float(r.statistic) for r in per_column], min(float(r.pvalue) for r in per_column)


def _mpmath_ks(column):
    """Two-sided KS statistic of one column against Exp(1), D+ and D- on
    the CDF 1 - e^-g, each term at 50 digits on the column's own doubles."""
    n = len(column)
    with mp.workdps(50):
        cdf = [1 - mp.exp(-mp.mpf(float(g))) for g in np.sort(column)]
        return max(max(mp.mpf(i + 1) / n - f, f - mp.mpf(i) / n) for i, f in enumerate(cdf))


@pytest.mark.parametrize("rows, ports", [(20, 2), (500, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kstest_statistic_matches_mpmath(rows, ports, seed):
    gains = sample_port_gains(Clayton(1.0 + seed), rows, ports, seed).gains
    exact = max(_mpmath_ks(gains[:, j]) for j in range(ports))
    max_d, _ = montecarlo.kstest(gains)
    assert abs(max_d - exact) <= 2 * np.finfo(float).eps


def _massart(d, n):
    return min(1.0, 2.0 * math.exp(-2.0 * n * d * d))


@pytest.mark.parametrize("rows, ports", [(20, 2), (500, 3), (20_000, 10)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_sort_kstest_matches_scipy_column_by_column(rows, ports, seed):
    gains = sample_port_gains(Clayton(1.0 + seed), rows, ports, seed).gains
    d, exact = _scipy_ks(gains)
    max_d, min_p = montecarlo.kstest(gains)
    assert abs(max_d - max(d)) <= 2 * np.finfo(float).eps
    assert min_p == _massart(max_d, rows)
    assert min_p >= exact


def test_one_sort_kstest_finds_a_stretched_last_column():
    # Exp(scale 1.05) in the last port only, at the default 100k rows: the
    # largest D is not column 0's, and the default plan's gate rejects it
    plan = McPlan()
    gains = sample_port_gains(Clayton(2.0), plan.diag_rows, plan.n_ports, 3).gains
    gains[:, -1] *= 1.05
    d, exact = _scipy_ks(gains)
    assert int(np.argmax(d)) == plan.n_ports - 1
    max_d, min_p = montecarlo.kstest(gains)
    assert abs(max_d - max(d)) <= 2 * np.finfo(float).eps
    assert min_p == _massart(max_d, plan.diag_rows) >= exact
    assert min_p < montecarlo.FAMILY_ALPHA / (len(plan.diag_betas) * plan.n_ports)


@pytest.mark.parametrize("bessel", [False, True], ids=["clayton", "bessel"])
def test_a_copula_check_block_peaks_within_one_and_a_half_gain_matrices(bessel):
    # a block holds its gain matrix plus chunk- or column-sized scratch: a
    # whole-block complex draw (Bessel, 5x) or a copy of the block for the
    # KS sort (Clayton, 2.3x) breaks the bound
    plan = McPlan()
    assert (plan.diag_rows, plan.n_ports) == (100_000, 10)
    dep = GaussianJakes(plan.jakes_aperture) if bessel else Clayton(2.0)
    tracemalloc.start()
    try:
        montecarlo._diag_block(plan, [dep], np.random.SeedSequence(3).spawn(1), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * plan.diag_rows * plan.n_ports * 8


@pytest.mark.parametrize("n", [2, 10, 140, 141, 2000, 100_000])
def test_ks_p_value_never_falls_below_the_exact_tail(n):
    # Massart's bound is a valid p-value at every n, so the marginal gate
    # keeps its false-alarm rate; kstwo switches method at n = 140/141.  The
    # grid spans [0, 1] and the D where the bound is 1e-12 .. 1, around the
    # gate's levels
    at_p = np.sqrt(np.log(2.0 / np.logspace(-12.0, 0.0, 13)) / (2 * n))
    grid = np.concatenate([np.linspace(0.0, 1.0, 101), at_p[at_p <= 1.0]])
    p = [montecarlo._ks_p_value(float(d), n) for d in grid]
    assert p == [_massart(float(d), n) for d in grid]
    assert np.all(p >= stats.kstwo.sf(grid, n))


def test_inversion_count_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in range(1, 401):
        perm = rng.permutation(n)
        brute = int(np.count_nonzero(np.triu(perm[:, None] > perm[None, :])))
        assert montecarlo._inversions(perm) == brute, n


def test_kendalltau_is_nan_on_tied_samples():
    # copula-check passes continuous gains, which do not tie; a tie in
    # either sample gives NaN, and untied samples still match scipy
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(12, 300))
        tied = rng.integers(0, rng.integers(2, 12), n)  # more rows than values
        untied, other = rng.permutation(n), rng.standard_normal(n)
        assert np.isnan(montecarlo.kendalltau(tied, untied))
        assert np.isnan(montecarlo.kendalltau(untied, tied))
        assert montecarlo.kendalltau(untied, other) == stats.kendalltau(untied, other).statistic
    for x, y in (([0.0, 1.0], [2.0, 3.0]), ([0.0, 1.0], [3.0, 2.0]), ([3, 1, 2], [0.5, 0.7, 0.1])):
        assert montecarlo.kendalltau(x, y) == stats.kendalltau(x, y).statistic
    assert np.isnan(montecarlo.kendalltau([1, 1], [2, 3]))
    assert np.isnan(montecarlo.kendalltau([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]))  # as scipy's
    with pytest.raises(ValueError, match="same size"):  # as scipy's
        montecarlo.kendalltau([1, 2, 3], [1, 2])


@pytest.mark.parametrize("rows, seeds", [(100_000, range(1)), (2000, range(20))],
                         ids=["default", "bench-tiny"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_kendalltau_matches_scipy_on_the_default_blocks(beta, rows, seeds):
    # the blocks copula-check draws for beta at the default plan, and at
    # the bench's small diag_rows over several seeds: none of them ties,
    # so a sampler that starts drawing ties fails here before copula-check
    # reports NaN
    plan = McPlan(diag_rows=rows)
    for seed in seeds:
        stream = np.random.SeedSequence(seed).spawn(len(plan.diag_betas) + 1)[
            plan.diag_betas.index(beta)]
        gains = sample_port_gains(Clayton(beta), plan.diag_rows, plan.n_ports, stream).gains
        x, y = gains[:, 0], gains[:, 1]
        assert montecarlo.kendalltau(x, y) == stats.kendalltau(x, y).statistic, seed


@pytest.mark.parametrize("ties", ["none", "x", "y", "pairs", "constant-x", "constant-y"])
def test_kendalltau_matches_scipy_past_2_to_the_16(ties):
    # at n = 70_001 _inversions pads to 2**17; untied samples match scipy,
    # and rounding to 0.1 ties one column, or both, and then repeats (x, y)
    # pairs, which gives NaN, as a constant column does in scipy too
    n = 70_001
    gains = sample_port_gains(Clayton(2.0), n, 2, 5).gains
    x, y = gains[:, 0], gains[:, 1]
    if ties in ("x", "pairs"):
        x = np.round(x, 1)
    if ties in ("y", "pairs"):
        y = np.round(y, 1)
    if ties == "pairs":
        assert len(set(zip(x.tolist(), y.tolist()))) < n // 10
    if ties.startswith("constant"):
        (x if ties == "constant-x" else y)[:] = 0.5
        assert np.isnan(stats.kendalltau(x, y).statistic)
    got = montecarlo.kendalltau(x, y)
    if ties == "none":
        assert got == stats.kendalltau(x, y).statistic
    else:
        assert np.isnan(got)


def test_max_gain_counts_are_strict_where_maxima_sit_on_grid_points():
    # copula-check's sorted insertion points are the boolean matrix's
    # strict < counts, also where a row's maximum equals a grid point
    grid = np.linspace(0.05, 6.0, 24)
    rng = np.random.default_rng(3)
    gains = rng.standard_exponential((5000, 4))
    on_grid = rng.random(gains.shape) < 0.5
    gains[on_grid] = rng.choice(grid, on_grid.sum())
    best = gains.max(axis=1)
    assert np.isin(best, grid).sum() > 2000
    expected = (best[:, None] < grid).sum(axis=0)
    assert np.array_equal(montecarlo._below_per_point(gains, grid), expected)


def test_kendalltau_of_a_constant_column_is_nan():
    # as scipy's, and without a RuntimeWarning (warnings are errors here);
    # fewer than two rows give NaN too
    assert np.isnan(montecarlo.kendalltau(np.ones(50), np.arange(50.0)))
    assert np.isnan(montecarlo.kendalltau(np.arange(50), np.full(50, 3)))
    for n in (0, 1):
        assert np.isnan(montecarlo.kendalltau(np.arange(n), np.arange(n)))
    assert np.isnan(stats.kendalltau(np.ones(50), np.arange(50.0)).statistic)


@pytest.mark.parametrize("field, value, message", [
    ("n_ports", 1, "n_ports must be >= 2"),
    ("diag_rows", 1, "diag_rows must be >= 2"),
    # GaussianJakes checks the aperture, before the first beta's draw
    ("jakes_aperture", -0.5, "aperture must be >= 0"),
    ("jakes_aperture", np.nan, "aperture must be >= 0 and finite"),
    ("jakes_aperture", np.inf, "aperture must be >= 0 and finite"),
])
def test_copula_diagnostics_reject_plans_they_cannot_diagnose(monkeypatch, field, value, message):
    # the Kendall check pairs ports 1 and 2 over at least two rows; the plan
    # is rejected before any draw, with the field (or GaussianJakes's own
    # aperture check) named first
    def no_draw(*args):
        raise AssertionError("drew before checking the plan")

    monkeypatch.setattr(montecarlo, "sample_port_gains", no_draw)
    with pytest.raises(ValueError, match=f"^{message}"):
        run_copula_diagnostics(_small_plan(**{field: value}))


def _spy_calls(monkeypatch, names) -> list:
    """Wrap each montecarlo function of ``names``; the list of their calls, in order."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _fn=getattr(montecarlo, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(montecarlo, name, spy)
    return calls


def test_copula_diagnostics_evaluate_one_closed_form_per_label_before_any_draw(monkeypatch):
    # each diagnosed beta, independent and fpa: one max-gain law each, which
    # the CDF reports and the Bessel gaps share; the blocks run in this
    # process, as a forked block's draw would be counted in its worker only
    monkeypatch.setattr(forked, "workers", lambda tasks: 0)
    calls = _spy_calls(monkeypatch, ["channel_gain_cdf", "sample_port_gains"])
    betas = (0.5, 1.0, 2.0)
    diag = run_copula_diagnostics(_small_plan(diag_betas=betas, diag_rows=500))
    blocks = len(betas) + 1  # one per beta, then the Bessel block
    assert calls == ["channel_gain_cdf"] * (len(betas) + 2) + ["sample_port_gains"] * blocks
    assert set(diag.jakes_gaps) == {"independent", "fpa", *diag.cdf_reports}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_copula_diagnostics_build_the_closed_form_table_before_the_first_fork(monkeypatch):
    # two usable CPUs: the four blocks run in two forked workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = _spy_calls(monkeypatch, ["channel_gain_cdf"])
    fork = forked._fork

    def spy_fork(*args):
        calls.append("fork")
        return fork(*args)

    monkeypatch.setattr(forked, "_fork", spy_fork)
    betas = (0.5, 1.0, 2.0)
    diag = run_copula_diagnostics(_small_plan(diag_betas=betas, diag_rows=500))
    assert calls == ["channel_gain_cdf"] * (len(betas) + 2) + ["fork"] * (len(betas) + 1)
    assert {entry["worker_processes"] for entry in diag.telemetry.values()} == {2}


@pytest.mark.parametrize("run", [run_mse_cdf_experiment, run_participation_experiment,
                                 run_port_sweep], ids=lambda run: run.__name__)
def test_wide_experiment_peak_memory_stays_under_one_block_matrix(run):
    # K = 200, N = 64: blocks of 40 trials, 8000 users, whose one value per
    # user is 62.5 KiB; a block's whole 8000 x 64 gain matrix would be
    # 3.9 MiB (measured peaks 0.3-0.7 MiB)
    plan = McPlan(n_users=200, n_ports=64, trials=200, n_grid=np.arange(1, 65))
    run(plan)  # first-call allocations stay out of the measured peak
    tracemalloc.start()
    try:
        run(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_participation_mean_law_is_evaluated_before_the_variant_draws(monkeypatch):
    # 100 trials are one block: per variant, its mean law and then one draw
    calls = _spy_calls(monkeypatch, ["qualify_probability", "sample_best_gains"])
    plan = _small_plan(trials=100)
    run_participation_experiment(plan)
    assert calls == ["qualify_probability", "sample_best_gains"] * len(plan.variants)


def test_copula_diagnostics_telemetry_stays_out_of_the_report():
    diag = run_copula_diagnostics(_small_plan(diag_rows=500))
    assert set(diag.telemetry) == {"clayton-1", "clayton-2", "jakes"}
    for label, entry in diag.telemetry.items():
        seconds = {"sample_s", "cdf_s"} | ({"ks_s", "kendall_s"} if label != "jakes" else set())
        assert set(entry) == {"rows", "ports", "worker_processes"} | seconds
        assert (entry["rows"], entry["ports"]) == (500, 5)
        assert entry["worker_processes"] == forked.workers(3)
        assert min(entry[name] for name in seconds) >= 0
    assert "telemetry" not in diag.to_json_dict()


def test_comparison_report_failures_list_points_then_the_mean_check():
    good = GridPointCheck(1.0, 0.5, 0.5, 0.01, True)
    bad = GridPointCheck(2.0, 0.9, 0.5, 0.01, False)
    r = ComparisonReport(label="x", points=[good, bad])
    assert r.failures() == ["FAIL x: x=2 empirical=0.9 analytic=0.5 stderr=0.01"]
    assert not r.all_pass
    assert r.sup_gap == pytest.approx(0.4)
    mean = {"empirical_mean": 3.14159, "analytic_mean": 2.5, "stderr": 0.1, "passed": False}
    r2 = ComparisonReport(label="y", points=[good, bad], meta={"mean_check": mean})
    assert r2.failures() == ["FAIL y: x=2 empirical=0.9 analytic=0.5 stderr=0.01",
                             "FAIL y: mean participation 3.142 vs analytic 2.5"]
    r3 = ComparisonReport(label="z", points=[good], meta={"mean_check": mean})
    assert r3.failures() == ["FAIL z: mean participation 3.142 vs analytic 2.5"]
    assert not r3.all_pass
    r4 = ComparisonReport(label="w", points=[good], meta={"mean_check": dict(mean, passed=True)})
    assert r4.failures() == [] and r4.all_pass


def test_copula_diagnostics_failures_list_cdf_lines_then_ks_and_kendall():
    cdf = ComparisonReport("clayton-1", [GridPointCheck(2.0, 0.9, 0.5, 0.01, False)])
    ks, tau = {"beta": 1.0, "passed": False}, {"beta": 1.0, "passed": True}
    diag = CopulaDiagnostics([ks], [tau, {"beta": 2.0, "passed": False}],
                             {"clayton-1": cdf}, jakes_gaps={}, meta={})
    assert diag.failures() == [
        "FAIL clayton-1: x=2 empirical=0.9 analytic=0.5 stderr=0.01",
        "FAIL diagnostics: {'beta': 1.0, 'passed': False}",
        "FAIL diagnostics: {'beta': 2.0, 'passed': False}",
    ]
    assert not diag.all_pass
    passing = CopulaDiagnostics([dict(ks, passed=True)], [tau], {}, jakes_gaps={}, meta={})
    assert passing.failures() == [] and passing.all_pass


def test_default_variants_cover_the_dependence_range():
    labels = [dep.label for dep in DEFAULT_VARIANTS]
    assert labels == ["independent", "clayton-1", "clayton-2", "fpa"]
    assert DEFAULT_VARIANTS == (Independent(), Clayton(1.0), Clayton(2.0), PerfectDependence())
