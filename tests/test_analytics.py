"""Closed-form law tests with independently derived frozen values.

The frozen constants below were produced by a 50-digit (400-digit for the
deep tails) mpmath evaluation of the direct (unstabilized) formulas —
max-gain CDF (N m^-beta - N + 1)^(-1/beta) and explicit binomial
enumeration — so they exercise a different code path than the stable
expm1/log1p and Loader binomial implementation under test.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import binom

import fluidfed
from fluidfed.analytics import (
    ConvergenceConstants,
    GainDistribution,
    binomial_tails,
    channel_gain_cdf,
    normalized_mse_cdf,
    optimality_gap_trajectory,
    participation_pmf_vector,
    qualify_probability,
    round_residual,
)
from fluidfed.channel import (
    Clayton,
    GaussianJakes,
    Independent,
    PerfectDependence,
    sample_port_gains,
)
from fluidfed.montecarlo import DEFAULT_VARIANTS

# ------------------------------------------------------------ gain CDF

# (n_ports, beta, x) -> direct-form value at 50 dps
CLAYTON_CDF_FROZEN = [
    (10, 2.0, 1.0, 0.24979320210386332),
    (10, 2.0, 3.0, 0.69414874771450322),
    (5, 0.5, 1.0, 0.19088503087684395),
    (5, 1.0, 2.0, 0.56098205535492412),
    (2, 1.0, 0.25, 0.12435300177159621),
    (10, 5.0, 0.5, 0.24868597188308584),
]


@pytest.mark.parametrize("n,beta,x,expected", CLAYTON_CDF_FROZEN)
def test_clayton_cdf_frozen_values(n, beta, x, expected):
    got = channel_gain_cdf(GainDistribution(n, Clayton(beta)), x)
    assert got == pytest.approx(expected, rel=1e-12)


def test_independent_cdf_is_power_of_marginal():
    # (1 - e^-1)^10, mpmath: 0.010185894032016961065
    got = channel_gain_cdf(GainDistribution(10, Independent()), 1.0)
    assert got == pytest.approx(0.010185894032016961, rel=1e-13)


def test_fpa_cdf_is_the_marginal():
    got = channel_gain_cdf(GainDistribution(10, PerfectDependence()), np.log(1.5))
    assert got == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_cdf_limits_match_beta_extremes():
    x = np.linspace(0.01, 6.0, 40)
    m = -np.expm1(-x)
    near_indep = channel_gain_cdf(GainDistribution(8, Clayton(1e-6)), x)
    near_fpa = channel_gain_cdf(GainDistribution(8, Clayton(1e6)), x)
    assert np.max(np.abs(near_indep - m**8)) < 1e-4
    assert np.max(np.abs(near_fpa - m)) < 1e-4


def test_cdf_basic_properties():
    dist = GainDistribution(6, Clayton(1.3))
    assert channel_gain_cdf(dist, 0.0) == 0.0
    assert channel_gain_cdf(dist, 50.0) == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(0.0, 10.0, 200)
    f = channel_gain_cdf(dist, x)
    assert np.all(np.diff(f) >= 0)
    assert np.all((f >= 0) & (f <= 1))
    with pytest.raises(ValueError):
        channel_gain_cdf(dist, -0.1)


def test_cdf_monotone_in_beta_and_port_count():
    # more dependence -> stochastically smaller max -> larger CDF
    x = np.linspace(0.1, 5.0, 25)
    prev = channel_gain_cdf(GainDistribution(10, Independent()), x)
    for beta in (0.5, 1.0, 2.0, 5.0):
        cur = channel_gain_cdf(GainDistribution(10, Clayton(beta)), x)
        assert np.all(cur >= prev - 1e-12), beta
        prev = cur
    fpa = channel_gain_cdf(GainDistribution(10, PerfectDependence()), x)
    assert np.all(fpa >= prev - 1e-12)
    # more ports -> stochastically larger max -> smaller CDF
    f5 = channel_gain_cdf(GainDistribution(5, Clayton(1.0)), x)
    f10 = channel_gain_cdf(GainDistribution(10, Clayton(1.0)), x)
    assert np.all(f10 <= f5 + 1e-12)


def test_single_port_ignores_dependence():
    x = np.linspace(0.0, 4.0, 9)
    for dep in (Independent(), Clayton(2.0), PerfectDependence()):
        got = channel_gain_cdf(GainDistribution(1, dep), x)
        assert np.allclose(got, -np.expm1(-x), atol=1e-14)


def test_gain_distribution_rejects_jakes():
    with pytest.raises(TypeError):
        GainDistribution(4, GaussianJakes(0.5))


def test_qualify_probability_complements_cdf():
    dist = GainDistribution(10, Clayton(2.0))
    q = qualify_probability(dist, 2.0)
    assert q == pytest.approx(1.0 - channel_gain_cdf(dist, 2.0), abs=1e-15)
    # frozen: 1 - direct-form F(2.0) at 50 dps
    assert q == pytest.approx(0.52192661780584111, rel=1e-12)
    with pytest.raises(ValueError):
        qualify_probability(dist, -1.0)


DEEP_X = (30.0, 38.0, 100.0, 700.0)
# 1 - F(x) at DEEP_X from the direct forms at 400 digits, where 1 - F
# rounds to 0 in double precision; one port and perfect dependence share
# the marginal tail e^-x
DEEP_QUALIFY = {
    "marginal": (9.357622968840175e-14, 3.1391327920480296e-17,
                 3.720075976020836e-44, 9.85967654375977e-305),
    ("independent", 10): (9.357622968836235e-13, 3.139132792048029e-16,
                          3.720075976020836e-43, 9.859676543759771e-304),
    ("independent", 64): (5.988878700040058e-12, 2.009044986910737e-15,
                          2.380848624653335e-42, 6.310192988006253e-303),
    ("clayton-0.001", 10): (9.35762296883623e-13, 3.139132792048029e-16,
                            3.720075976020836e-43, 9.859676543759771e-304),
    ("clayton-0.001", 64): (5.9888787000400406e-12, 2.009044986910737e-15,
                            2.380848624653335e-42, 6.310192988006253e-303),
    ("clayton-2", 10): (9.357622968828353e-13, 3.139132792048028e-16,
                        3.720075976020836e-43, 9.859676543759771e-304),
    ("clayton-2", 64): (5.988878700004752e-12, 2.009044986910733e-15,
                        2.380848624653335e-42, 6.310192988006253e-303),
    ("clayton-200", 10): (9.35762296804815e-13, 3.1391327920479405e-16,
                          3.720075976020836e-43, 9.859676543759771e-304),
    ("clayton-200", 64): (5.988878696509433e-12, 2.0090449869103398e-15,
                          2.380848624653335e-42, 6.310192988006253e-303),
}
DEEP_DEPS = {
    "independent": Independent(),
    "clayton-0.001": Clayton(1e-3),
    "clayton-2": Clayton(2.0),
    "clayton-200": Clayton(200.0),
    "fpa": PerfectDependence(),
}


@pytest.mark.parametrize("n", [1, 10, 64])
@pytest.mark.parametrize("label", list(DEEP_DEPS))
def test_qualify_probability_deep_tail_matches_mpmath(label, n):
    key = "marginal" if n == 1 or label == "fpa" else (label, n)
    dist = GainDistribution(n, DEEP_DEPS[label])
    for x, expected in zip(DEEP_X, DEEP_QUALIFY[key]):
        assert qualify_probability(dist, x) == pytest.approx(expected, rel=1e-14, abs=0), x


# --------------------------------------------------- binomial-tail laws


def test_rank_two_of_four_closed_form_is_243_over_256():
    # K=4, S=2, two independent ports, p_max=1, tau=1/ln2:
    # threshold ln2 -> F=(1/2)^2 -> q=3/4 -> 1 - (1/4)^4 - 4(3/4)(1/4)^3
    dist = GainDistribution(2, Independent())
    got = normalized_mse_cdf(dist, 4, 2, 1.0, 1.0 / np.log(2.0))
    assert got == pytest.approx(243.0 / 256.0, abs=1e-14)


def test_mse_cdf_matches_scipy_binomial_tail():
    dist = GainDistribution(10, Clayton(2.0))
    taus = np.logspace(0.0, 3.0, 13)
    ours = normalized_mse_cdf(dist, 20, 15, 0.01, taus)
    q = 1.0 - channel_gain_cdf(dist, 1.0 / (0.01 * taus))
    ref = binom.sf(14, 20, q)
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-13)


# Pr(Bin(200, q) >= 15) on the default tau grid (N=10, p_max=0.01) at 400
# digits; past the listed head every value rounds to 1.0
DEEP_MSE_CDF = {
    "independent": [9.672355650227823e-29, 3.41281335336995e-15, 1.4090734016087345e-05,
                    0.48317349330735315, 0.9999991121212448],
    "clayton-1": [9.642926676339256e-29, 3.3307940065600934e-15, 1.2715552609297334e-05,
                  0.43366317492649076, 0.9999911724984551],
    "clayton-2": [9.61359806504829e-29, 3.2509824767905685e-15, 1.1490321062483403e-05,
                  0.38832049632128324, 0.9999493338716403, 0.9999999999999984],
    "fpa": [1.0414418790555311e-43, 6.31141041777543e-30, 3.616080362455382e-19,
            5.242174311094931e-11, 2.7983300913498047e-05, 0.058508734957750524,
            0.8193544971785853, 0.9996449459154807, 0.9999999970995423,
            0.9999999999999999],
}


@pytest.mark.parametrize("label", list(DEEP_MSE_CDF))
def test_mse_cdf_deep_tail_matches_mpmath_at_200_users(label):
    dep = next(dep for dep in DEFAULT_VARIANTS if dep.label == label)
    head = DEEP_MSE_CDF[label]
    expected = np.array(head + [1.0] * (30 - len(head)))
    got = normalized_mse_cdf(GainDistribution(10, dep), 200, 15, 0.01, np.logspace(1.0, 4.0, 30))
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)


def test_mse_cdf_two_of_twenty_at_q_one_in_a_billion():
    # one port, p_max=1, tau=1/ln(1e9): q = e^-ln(1e9) = 1e-9 and
    # Pr(Bin(20, 1e-9) >= 2) = 1.8999999772e-16 (mpmath), below 1 - Pr(X < 2)'s ulp
    got = normalized_mse_cdf(GainDistribution(1), 20, 2, 1.0, 1.0 / np.log(1e9))
    assert got == pytest.approx(1.8999999772e-16, rel=1e-10, abs=0)


def test_mse_cdf_frozen_value():
    # K=20 S=15, independent N=10, threshold 1/(p_max*tau)=2 -> q=1-(1-e^-2)^10
    # mpmath tail: 0.68249461907849719516
    dist = GainDistribution(10, Independent())
    got = normalized_mse_cdf(dist, 20, 15, 0.01, 50.0)
    assert got == pytest.approx(0.68249461907849720, rel=1e-12)


def test_mse_cdf_is_nondecreasing_in_tau_and_bounded():
    dist = GainDistribution(10, Clayton(1.0))
    taus = np.logspace(-1, 4, 60)
    f = normalized_mse_cdf(dist, 20, 15, 0.01, taus)
    assert np.all(np.diff(f) >= -1e-15)
    assert np.all((f >= 0) & (f <= 1))


def test_mse_cdf_edge_ranks():
    dist = GainDistribution(4, Independent())
    with pytest.raises(ValueError):
        normalized_mse_cdf(dist, 10, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        normalized_mse_cdf(dist, 10, 11, 1.0, 1.0)
    with pytest.raises(ValueError):
        normalized_mse_cdf(dist, 10, 5, 1.0, -2.0)


# the participation threshold sigma2/(p_max*tau) at p_max=0.01, sigma2=1e-3, tau=0.05
THRESHOLD = 1e-3 / (0.01 * 0.05)


def test_participation_pmf_sums_to_one_and_matches_scipy():
    dist = GainDistribution(10, Clayton(2.0))
    pmf = participation_pmf_vector(dist, 20, THRESHOLD)
    assert pmf.shape == (21,)
    assert np.isclose(pmf.sum(), 1.0, atol=1e-12)
    q = qualify_probability(dist, THRESHOLD)
    ref = binom.pmf(np.arange(21), 20, q)
    assert np.allclose(pmf, ref, rtol=1e-10, atol=1e-14)
    # frozen: P(count=10) at q = 0.52192661780584111 (mpmath enumeration)
    assert pmf[10] == pytest.approx(0.17283776919534384, rel=1e-11)


def _log_relative_error(got, expected):
    """|got - expected| / expected in units of max(1, |log expected|) * eps.

    exp turns an absolute error d in a log into a relative error d, so a
    value formed as exp(log) is good to a few eps times |log| at best.
    """
    ref = float(expected)
    return abs(got - ref) / ref / max(1.0, abs(float(mp.log(expected)))) / np.finfo(float).eps


def test_participation_pmf_is_one_hot_where_q_is_0_or_1():
    # threshold 800: q = e^-800 underflows to 0; threshold 1e-20: F ~ 1e-200, q = 1
    dist = GainDistribution(10, Independent())
    assert qualify_probability(dist, 800.0) == 0.0 and qualify_probability(dist, 1e-20) == 1.0
    nobody = participation_pmf_vector(dist, 20, 800.0)
    everybody = participation_pmf_vector(dist, 20, 1e-20)
    assert nobody.tolist() == [1.0] + [0.0] * 20
    # q rounds to 1, yet P(count = 19) = 20 F (1 - F)^19 = 1.9999999999999989e-199
    # (mpmath, 60 digits); every lower count underflows
    assert everybody[:19].tolist() == [0.0] * 19 and everybody[20] == 1.0
    assert _log_relative_error(everybody[19], mp.mpf("1.9999999999999989e-199")) < 4


@pytest.mark.parametrize("threshold", [0.05, 1e-3])
def test_participation_pmf_lower_tail_matches_mpmath(threshold):
    # independent ports, N=10, K=20; 0.05 is sigma2/(p_max*tau) at tau=2 and
    # the default link. F = 7.7e-14 and 1.0e-30 there, so q rounds toward 1
    # and log(1 - q) loses F's digits; counts below 20 are all in the tail
    pmf = participation_pmf_vector(GainDistribution(10, Independent()), 20, threshold)
    with mp.workdps(60):
        f = (-mp.expm1(-mp.mpf(threshold))) ** 10
        expected = [mp.binomial(20, s) * (1 - f) ** s * f ** (20 - s) for s in range(21)]
        for s, want in enumerate(expected):
            if want > mp.mpf("1e-290"):  # below that, subnormal or 0 in double
                assert _log_relative_error(pmf[s], want) < 4, s
            else:
                assert pmf[s] < 1e-290, s


def _gain_cdf_oracle(n, dep, x):
    """Direct-form best-port CDF at the working mpmath precision."""
    m = -mp.expm1(-mp.mpf(x))
    if isinstance(dep, PerfectDependence) or m == 0:
        return m
    if isinstance(dep, Independent):
        return m**n
    beta = mp.mpf(dep.beta)
    return (n * m**-beta - n + 1) ** (-1 / beta)


@pytest.mark.parametrize("n", [1, 10, 64])
@pytest.mark.parametrize("label", list(DEEP_DEPS))
def test_cdf_relative_precision_matches_mpmath_from_1e_200_to_1(label, n):
    dist = GainDistribution(n, DEEP_DEPS[label])
    assert channel_gain_cdf(dist, 0.0) == 0.0
    # near x = 0, F grows like x^N under independence and like a multiple of x
    # otherwise; one grid for each reaches F = 1e-200, and both end at 1 - 1e-13
    xs = np.concatenate([np.logspace(-200.0, 1.5, 41), np.logspace(-200.0 / n, 1.5, 40)])
    got = channel_gain_cdf(dist, xs)
    with mp.workdps(60):
        for x, value in zip(xs, got):
            want = _gain_cdf_oracle(n, DEEP_DEPS[label], x)
            if want > mp.mpf("1e-200"):
                assert _log_relative_error(value, want) < 4, x


def test_participation_mean_is_k_times_q():
    dist = GainDistribution(10, Independent())
    pmf = participation_pmf_vector(dist, 20, THRESHOLD)
    q = qualify_probability(dist, 2.0)
    mean = float(np.arange(21) @ pmf)
    assert mean == pytest.approx(20.0 * q, rel=1e-12)


def test_participation_pmf_shifts_down_with_dependence():
    # dependence shrinks the max gain, so fewer users clear the threshold
    means = []
    for dep in (Independent(), Clayton(1.0), Clayton(2.0), PerfectDependence()):
        pmf = participation_pmf_vector(GainDistribution(10, dep), 20, THRESHOLD)
        means.append(float(np.arange(21) @ pmf))
    assert means[0] > means[1] > means[2] > means[3]


def test_participation_pmf_validation():
    # the link's own values are checked by OtaConfig (tests/test_ota.py)
    dist = GainDistribution(10, Independent())
    for n_users, threshold in [(0, 2.0), (20, -1.0), (20, np.inf), (20, np.nan)]:
        with pytest.raises(ValueError):
            participation_pmf_vector(dist, n_users, threshold)


def test_import_pulls_in_no_scipy():
    # the package runs on numpy alone; scipy is a test-only oracle.  Nor does
    # it import multiprocessing: its forked workers are plain os.fork
    src = str(Path(fluidfed.__file__).resolve().parents[1])
    code = ("import sys, fluidfed, fluidfed.montecarlo, fluidfed.fedlearn, fluidfed.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')]\n"
            "assert not loaded, sorted(loaded)")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _mp_far_tail(k, n, p):
    """Pr(Bin(n, p) >= k) for k at or past the mode, and the term at k, at
    30 digits: the exact term at k, then term ratios until they fall
    below 1e-35."""
    with mp.workdps(30):
        p = mp.mpf(p)
        at_k = term = total = mp.binomial(n, k) * p**k * (1 - p) ** (n - k)
        for j in range(k, n):
            term *= (n - j) * p / ((j + 1) * (1 - p))
            total += term
            if term < total * mp.mpf("1e-35"):
                break
        return total, at_k


@pytest.mark.parametrize("n", [10_000, 100_000, 200_000])
@pytest.mark.parametrize("p", [0.5, 0.3125, 0.015625])
def test_binomial_tails_match_mpmath_from_the_mode_out_to_1e_300(n, p):
    # the gate's sizes: mc-default's trials, copula-check's diag rows and
    # mc-wide's K * trials mean check.  p and 1 - p are both exact in
    # double, so the reference is the law the routine is handed.  Each
    # side of the mode is checked, the lower one through n - X ~ Bin(n, 1 - p);
    # the far tail to within a few dozen eps per unit of |ln P|, and the
    # near one, 1 - (far tail without its term at k) >= 1/2, as closely
    eps, mode, sd = np.finfo(float).eps, int((n + 1) * p), np.sqrt(n * p * (1 - p))
    for upper in (True, False):
        step, k = max(1, int(sd / 2)), mode
        while 0 <= k <= n:
            kk, pp = (k, p) if upper else (n - k, 1 - p)
            far, at_k = _mp_far_tail(kk, n, pp)
            if far < mp.mpf("1e-300"):
                break
            at_most, at_least = binomial_tails(k, n, p, 1 - p)
            got_far, got_near = (at_least, at_most) if upper else (at_most, at_least)
            bound = 48 * eps * max(1.0, abs(float(mp.log(far))))
            assert abs(got_far - far) <= bound * far, (k, upper)
            assert abs(got_near - (1 - far + at_k)) <= 48 * eps, (k, upper)
            k, step = (k + step if upper else k - step), int(step * 1.6) + 1


@pytest.mark.parametrize("n", [10**4, 10**6, 10**8])
def test_binomial_tail_from_the_median_holds_to_1e8_trials(n):
    # Bin(n, 1/2) is symmetric, so Pr(X >= n/2) = Pr(X <= n/2) = (1 + Pr(X = n/2))/2;
    # the far tail from n/2 spans 40 + 10 sd = 50040 terms at n = 1e8
    want = (1 + mp.binomial(n, n // 2) / mp.mpf(2) ** n) / 2
    for tail in binomial_tails(n // 2, n, 0.5, 0.5):
        assert abs(tail - want) <= 48 * np.finfo(float).eps * want


def test_binomial_tails_are_exact_at_the_edges():
    n, k = 50, np.array([0, 1, 49, 50])
    at_most, at_least = binomial_tails(k, n, 0.0, 1.0)  # X = 0
    assert at_most.tolist() == [1.0] * 4 and at_least.tolist() == [1.0, 0.0, 0.0, 0.0]
    at_most, at_least = binomial_tails(k, n, 1.0, 0.0)  # X = n
    assert at_most.tolist() == [0.0, 0.0, 0.0, 1.0] and at_least.tolist() == [1.0] * 4
    for p in (1e-9, 0.375, 1 - 2**-20):
        at_most, at_least = binomial_tails(k, n, p, 1 - p)
        assert at_least[0] == 1.0 and at_most[-1] == 1.0
        # Pr(X <= 0) = q^n and Pr(X >= n) = p^n, each to a few ulp
        assert at_most[0] == pytest.approx(float(mp.mpf(1 - p) ** n), rel=8 * np.finfo(float).eps)
        assert at_least[-1] == pytest.approx(float(mp.mpf(p) ** n), rel=8 * np.finfo(float).eps)


def order_statistic_cdf_oracle(effective_gains, s_target, p_max, tau):
    """Brute-force `normalized_mse_cdf` from sampled gains.

    ``effective_gains`` is an (M, K) array of per-trial best-port gains.
    Each trial's error scores 1/(p_max * gain) are sorted and the frequency
    of (S-th smallest) < tau is returned.
    """
    g = np.asarray(effective_gains, dtype=float)
    if g.ndim != 2:
        raise ValueError("effective_gains must be (trials, n_users)")
    if not (1 <= s_target <= g.shape[1]):
        raise ValueError("s_target must be in 1..n_users")
    ranked = np.sort(1.0 / (p_max * g), axis=1)[:, s_target - 1]
    return float(np.mean(ranked < tau))


def test_order_statistic_oracle_agrees_with_closed_form():
    # moderate MC so this stays fast; the acceptance suite runs the big one
    rng = np.random.default_rng(301)
    trials, k, n = 40000, 6, 4
    beta = 1.5
    g = sample_port_gains(Clayton(beta), trials * k, n, rng).gains
    gains = g.max(axis=1).reshape(trials, k)
    p_max, tau = 0.5, 3.0
    emp = order_statistic_cdf_oracle(gains, 4, p_max, tau)
    ana = normalized_mse_cdf(GainDistribution(n, Clayton(beta)), k, 4, p_max, tau)
    se = np.sqrt(ana * (1 - ana) / trials)
    assert abs(emp - ana) <= 3 * se


def test_order_statistic_oracle_validation():
    with pytest.raises(ValueError):
        order_statistic_cdf_oracle(np.ones(5), 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        order_statistic_cdf_oracle(np.ones((5, 3)), 4, 1.0, 1.0)


# ------------------------------------------------------- convergence bound


def _constants(**kw):
    base = dict(
        lr=0.1,
        pl_constant=1.0,
        smoothness=2.0,
        grad_norm_bound=1.0,
        grad_variance=1.0,
        batch_size=4,
        n_users=4,
    )
    base.update(kw)
    return ConvergenceConstants(**base)


def test_bound_trajectory_frozen_hand_computed():
    # psi=0.9; residual(S,mse) = 0.2(1-S/4)^2 + 0.02/S^2 * (S/4) + mse
    c = _constants()
    traj = optimality_gap_trajectory(
        c, [(4, 0.01), (2, 0.05), (3, 0.0)], first_round_gap=1.0
    )
    assert traj == pytest.approx([0.91125, 0.922625, 0.84452916666666667], rel=1e-13)


def test_bound_trajectory_rejects_an_empty_schedule():
    with pytest.raises(ValueError, match="at least one round"):
        optimality_gap_trajectory(_constants(), [], 1.0)


def test_bound_strictly_increases_with_any_round_mse():
    c = _constants()
    sched = [(4, 0.01), (3, 0.02), (2, 0.0), (4, 0.005)]
    base = optimality_gap_trajectory(c, sched, 1.0)[-1]
    for t in range(len(sched)):
        bumped = list(sched)
        bumped[t] = (bumped[t][0], bumped[t][1] + 1e-3)
        assert optimality_gap_trajectory(c, bumped, 1.0)[-1] > base


def test_bound_nonincreasing_in_participants():
    c = _constants()
    sched = [(2, 0.01), (1, 0.02), (3, 0.0), (2, 0.005)]
    base = optimality_gap_trajectory(c, sched, 1.0)[-1]
    for t in range(len(sched)):
        bumped = list(sched)
        bumped[t] = (bumped[t][0] + 1, bumped[t][1])
        assert optimality_gap_trajectory(c, bumped, 1.0)[-1] <= base + 1e-15


def test_bound_pure_contraction_decays_geometrically():
    # zero residual: full participation, no gradient noise, no mse
    c = _constants(grad_norm_bound=0.0, grad_variance=0.0)
    sched = [(4, 0.0)] * 25
    traj = optimality_gap_trajectory(c, sched, 2.0)
    expected = 2.0 * c.psi ** np.arange(1, 26)
    assert np.max(np.abs(traj - expected)) < 1e-12


def test_bound_skipped_rounds_hold_the_value():
    c = _constants()
    traj = optimality_gap_trajectory(c, [(4, 0.0), (0, 0.0), (4, 0.0)], 1.0)
    assert traj[1] == traj[0]
    assert traj[2] < traj[1]


def test_bound_residual_terms():
    c = _constants()
    # full participation, zero mse: only the minibatch-noise term remains,
    # lr^2 * L / S^2 * (S * variance / batch) = 0.01 * 2 / 16 * 1
    got = round_residual(c, 4, 0.0)
    assert got == pytest.approx(0.00125, rel=1e-12)
    with pytest.raises(ValueError):
        round_residual(c, 0, 0.0)
    with pytest.raises(ValueError):
        round_residual(c, 5, 0.0)
    with pytest.raises(ValueError):
        round_residual(c, 2, -0.1)


def test_constants_validation():
    with pytest.raises(ValueError):
        _constants(lr=0.0)
    with pytest.raises(ValueError):
        _constants(lr=1.0)
    with pytest.raises(ValueError):
        _constants(pl_constant=-1.0)
    with pytest.raises(ValueError):
        _constants(batch_size=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _constants(lr=0.99, pl_constant=0.9)  # psi = 0.109, contracting
        _constants(lr=0.5, pl_constant=0.001)  # psi = 0.9995, contracting
        assert not caught


@pytest.mark.parametrize("lr, pl_constant", [(0.5, 3.0), (0.9, 3.0), (0.5, 1e308), (1e-9, 1e-9)])
def test_constants_reject_psi_outside_zero_to_one(lr, pl_constant):
    # psi < 0 lets the recursion undershoot the gap or alternate in sign;
    # lr * mu below 2**-53 rounds psi to 1, which never contracts
    with pytest.raises(ValueError, match=r"^pl_constant makes psi = 1 - lr \* pl_constant = .*, outside \[0, 1\)$"):
        _constants(lr=lr, pl_constant=pl_constant)
    assert _constants(lr=0.5, pl_constant=2.0).psi == 0.0


def test_bound_trajectory_rejects_a_value_that_overflows():
    # each residual is finite, but by round 5 their sum is not
    c = _constants(smoothness=1e308)
    with pytest.raises(ValueError, match="^the bound overflows at round 5$"):
        optimality_gap_trajectory(c, [(4, 1.0)] * 10, 1.0)
    with pytest.raises(ValueError, match="^the bound overflows at round 1$"):
        optimality_gap_trajectory(c, [(4, 10.0)], 1.0)
