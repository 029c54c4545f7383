"""Port-gain sampler tests: marginals, dependence, correlation structure."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros
from scipy.stats import kendalltau, kstest

from fluidfed import channel
from fluidfed.channel import (
    Clayton,
    GaussianJakes,
    Independent,
    PerfectDependence,
    PortGainMatrix,
    SamplingError,
    first_qualifying_port,
    jakes_correlation_matrix,
    sample_best_gains,
    sample_port_gains,
    select_ports,
)

# first positive zero of J0, divided by 2*pi (scipy.special.jn_zeros oracle)
APERTURE_FIRST_NULL = 0.38273987478100613


def test_independent_shape_and_marginal():
    g = sample_port_gains(Independent(), 2000, 4, 7).gains
    assert g.shape == (2000, 4)
    assert np.all(g > 0)
    # Exp(1) has mean 1, variance 1
    assert abs(g.mean() - 1.0) < 0.05
    ks = kstest(g.ravel(), "expon")
    assert ks.statistic < 1.6276 / np.sqrt(g.size)


def test_perfect_dependence_repeats_one_draw_per_row():
    g = sample_port_gains(PerfectDependence(), 50, 6, 3).gains
    assert np.all(g == g[:, :1])
    # rows still vary
    assert np.unique(g[:, 0]).size == 50


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_clayton_marginals_are_unit_exponential(beta):
    g = sample_port_gains(Clayton(beta), 20000, 3, 11).gains
    for j in range(3):
        ks = kstest(g[:, j], "expon")
        assert ks.statistic < 1.6276 / np.sqrt(20000), (beta, j)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_clayton_kendall_tau_identity(beta):
    g = sample_port_gains(Clayton(beta), 30000, 2, 5).gains
    tau = kendalltau(g[:, 0], g[:, 1]).statistic
    assert abs(tau - beta / (beta + 2.0)) < 0.02


def test_clayton_extreme_betas_stay_finite():
    # tiny beta: near-independent; huge beta: near-comonotone.  Both must
    # come out of the log-domain path without under/overflow.
    lo = sample_port_gains(Clayton(1e-4), 5000, 4, 2).gains
    hi = sample_port_gains(Clayton(1e3), 5000, 4, 2).gains
    assert np.all(np.isfinite(lo)) and np.all(lo > 0)
    assert np.all(np.isfinite(hi)) and np.all(hi > 0)
    # huge beta is nearly comonotone in rank: tau = beta/(beta+2) ~ 0.998
    tau_hi = kendalltau(hi[:, 0], hi[:, 1]).statistic
    assert tau_hi > 0.99
    # tiny beta is nearly independent: Kendall tau near zero
    tau_lo = kendalltau(lo[:, 0], lo[:, 1]).statistic
    assert abs(tau_lo) < 0.03


@pytest.mark.parametrize("beta", [1e-4, 1e3])
def test_clayton_extreme_betas_keep_the_max_gain_law(beta):
    # the sampled max-gain distribution must track the closed form even
    # where a naive (non-log-domain) frailty draw would under/overflow
    from fluidfed.analytics import GainDistribution, channel_gain_cdf

    g = sample_port_gains(Clayton(beta), 20000, 6, 9).gains
    best = np.sort(g.max(axis=1))
    grid = np.linspace(0.05, 6.0, 25)
    empirical = np.searchsorted(best, grid, side="left") / best.size
    analytic = channel_gain_cdf(GainDistribution(6, Clayton(beta)), grid)
    assert np.max(np.abs(empirical - analytic)) < 0.015


def test_same_seed_reproduces_gains_exactly():
    a = sample_port_gains(Clayton(2.0), 100, 5, 42).gains
    b = sample_port_gains(Clayton(2.0), 100, 5, 42).gains
    assert np.array_equal(a, b)
    c = sample_port_gains(Clayton(2.0), 100, 5, 43).gains
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("beta", [1e-4, 1.0, 2.0, 1e3])
def test_clayton_in_place_evaluation_matches_the_plain_expression(beta):
    # reference: the latent-frailty formula as one expression, same draws
    gen = np.random.default_rng(5)
    log_v = np.log(gen.standard_gamma(1.0 / beta + 1.0, size=300))
    log_v += beta * np.log(gen.uniform(size=300))
    e = gen.standard_exponential(size=(300, 7))
    with np.errstate(divide="ignore"):
        log_u = -np.logaddexp(0.0, np.log(e) - log_v[:, None]) / beta
    expected = -np.log(-np.expm1(log_u))
    got = sample_port_gains(Clayton(beta), 300, 7, 5).gains
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("aperture", [0.0, 0.5, 3.0])
def test_jakes_in_place_evaluation_matches_the_plain_expression(aperture):
    eigval, eigvec = np.linalg.eigh(jakes_correlation_matrix(6, aperture))
    eigval = np.where(eigval < 1e-12 * eigval.max(), 0.0, eigval)
    gen = np.random.default_rng(8)
    z = (gen.standard_normal((300, 6)) + 1j * gen.standard_normal((300, 6))) / np.sqrt(2.0)
    expected = np.abs(z @ (eigvec * np.sqrt(eigval)).T) ** 2
    got = sample_port_gains(GaussianJakes(aperture), 300, 6, 8).gains
    assert np.array_equal(got, expected)


BEST_GAIN_DEPS = [Clayton(b) for b in (1e-3, 0.05, 0.5, 1.0, 2.0, 5.0, 30.0, 200.0)] + [
    Independent(),
    PerfectDependence(),
    GaussianJakes(0.5),
]


@pytest.mark.parametrize("n_ports", [1, 3, 10, 64])
@pytest.mark.parametrize("dep", BEST_GAIN_DEPS, ids=repr)
def test_best_gains_are_the_row_max_of_the_full_matrix(dep, n_ports):
    # same bits as reducing the full matrix, and the same draws consumed
    n_users = 20_000 // n_ports + 3
    full_gen, best_gen = np.random.default_rng(21), np.random.default_rng(21)
    full = sample_port_gains(dep, n_users, n_ports, full_gen).gains.max(axis=1)
    best = sample_best_gains(dep, n_users, n_ports, best_gen)
    assert best.shape == (n_users,) and best.dtype == full.dtype
    assert best.tobytes() == full.tobytes()
    assert best_gen.bit_generator.state == full_gen.bit_generator.state
    seeded = sample_best_gains(dep, n_users, n_ports, np.random.SeedSequence(21))
    assert seeded.tobytes() == sample_best_gains(dep, n_users, n_ports, 21).tobytes()


def _poisoned(method, value):
    class Poisoned(np.random.Generator):
        pass

    def draw(self, *args, **kwargs):
        out = getattr(np.random.Generator, method)(self, *args, **kwargs)
        out.flat[1] = value
        return out

    setattr(Poisoned, method, draw)
    return Poisoned(np.random.PCG64(4))


@pytest.mark.parametrize(
    "dep, method, value",
    [
        (Independent(), "standard_exponential", np.nan),
        (Independent(), "standard_exponential", np.inf),
        (PerfectDependence(), "standard_exponential", np.nan),
        (Clayton(2.0), "standard_exponential", np.nan),
        (Clayton(2.0), "standard_exponential", 0.0),
        (Clayton(2.0), "standard_gamma", np.inf),
        (GaussianJakes(0.5), "standard_normal", np.nan),
        (Clayton(2.0), "uniform", np.nan),
    ],
)
def test_best_gains_raise_where_the_full_sampler_raises(dep, method, value):
    with np.errstate(all="ignore"):
        with pytest.raises(SamplingError):
            sample_port_gains(dep, 6, 4, _poisoned(method, value))
        with pytest.raises(SamplingError):
            sample_best_gains(dep, 6, 4, _poisoned(method, value))
        with pytest.raises(SamplingError):
            first_qualifying_port(dep, 6, 4, 2.0, _poisoned(method, value))


def _first_at_or_above(gains, threshold):
    """The brute force: each row's first column with gain >= threshold, or
    the column count where there is none."""
    hit = gains >= threshold
    return np.where(hit.any(axis=1), hit.argmax(axis=1), gains.shape[1])


FIRST_PORT_DEPS = [Independent(), PerfectDependence(), GaussianJakes(0.5)] + [
    Clayton(b) for b in (0.05, 1.0, 2.0, 30.0)
]
THRESHOLDS = [1e-3, 2.0, 6.0, 40.0]


# 0 and 750 lie outside the range where Clayton compares to a cutoff
@pytest.mark.parametrize("threshold", [*THRESHOLDS, 0.0, 750.0])
@pytest.mark.parametrize("n_ports", [1, 10, 64])
@pytest.mark.parametrize("dep", FIRST_PORT_DEPS, ids=repr)
def test_first_qualifying_port_is_the_first_port_of_the_gain_matrix(dep, n_ports, threshold):
    # same decisions as the gain matrix, and the same draws consumed
    n_users = 20_000 // n_ports + 3
    full_gen, first_gen = np.random.default_rng(31), np.random.default_rng(31)
    gains = sample_port_gains(dep, n_users, n_ports, full_gen).gains
    first = first_qualifying_port(dep, n_users, n_ports, threshold, first_gen)
    assert first.shape == (n_users,)
    assert np.array_equal(first, _first_at_or_above(gains, threshold))
    assert first_gen.bit_generator.state == full_gen.bit_generator.state


def _cutoff_draws(beta, threshold, n_users, seed):
    """ln V of the Clayton draws of ``seed``, and latent exponentials set
    to each row's cutoff e* and 1..4 ulps either side, in shuffled order."""
    gen = np.random.default_rng(seed)
    log_v = np.log(gen.standard_gamma(1.0 / beta + 1.0, size=n_users))
    log_v += beta * np.log(gen.uniform(size=n_users))
    cut = np.exp(channel._clayton_log_cutoff(log_v, beta, threshold))
    columns = [cut]
    for toward in (0.0, np.inf):
        moved = cut
        for _ in range(4):
            moved = np.nextafter(moved, toward)
            columns.append(moved)
    return log_v, np.random.default_rng(seed + 1).permuted(np.stack(columns, axis=1), axis=1)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("beta", [0.05, 1.0, 2.0, 30.0])
def test_first_qualifying_port_decides_the_cutoff_band_by_the_gain_map(beta, threshold):
    log_v, exps = _cutoff_draws(beta, threshold, 500, 7)
    by_gain = channel._clayton_gains(exps.copy(), log_v[:, None], beta) >= threshold
    # a few ulps from e*, a plain comparison with it misjudges some entries
    cut = np.exp(channel._clayton_log_cutoff(log_v, beta, threshold))
    assert np.any((exps <= cut[:, None]) != by_gain)
    assert np.array_equal(channel._clayton_reaches(exps, log_v, beta, threshold), by_gain)

    # end to end: the sampler's own frailties, these exponentials
    class AtCutoff(np.random.Generator):
        def standard_exponential(self, size=None):
            super().standard_exponential(size=size)
            return exps.copy()

    dep, n_users, n_ports = Clayton(beta), *exps.shape
    gains = sample_port_gains(dep, n_users, n_ports, AtCutoff(np.random.PCG64(7))).gains
    assert np.array_equal(gains >= threshold, by_gain)
    first = first_qualifying_port(dep, n_users, n_ports, threshold, AtCutoff(np.random.PCG64(7)))
    assert np.array_equal(first, _first_at_or_above(gains, threshold))


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("beta", [0.05, 1.0, 2.0, 30.0])
def test_clayton_log_cutoff_matches_mpmath(beta, threshold):
    # ln e* = ln V + ln(m^-beta - 1), m = 1 - e^-t; at t = 40 the naive
    # log(-expm1(-t)) is 0 and would put e* at 0
    log_v = np.array([0.0, -1.5, 3.0])
    got = channel._clayton_log_cutoff(log_v, beta, threshold)
    with mp.workdps(50):
        m = -mp.expm1(-mp.mpf(threshold))
        tail = mp.log(mp.power(m, -mp.mpf(beta)) - 1)
        expected = [float(mp.mpf(v) + tail) for v in log_v]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)


def test_best_gains_validate_like_the_full_sampler():
    with pytest.raises(ValueError):
        sample_best_gains(Clayton(1.0), 0, 3, rng=0)
    with pytest.raises(ValueError):
        sample_best_gains(PerfectDependence(), 3, 0, rng=0)
    with pytest.raises(TypeError):
        sample_best_gains(object(), 2, 2, 0)


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        Clayton(0.0)
    with pytest.raises(ValueError):
        Clayton(float("inf"))
    with pytest.raises(ValueError):
        sample_port_gains(Independent(), 0, 2, 0)
    with pytest.raises(ValueError):
        sample_port_gains(Independent(), 2, 0, 0)
    with pytest.raises(ValueError):
        Clayton(-1.0)
    with pytest.raises(ValueError):
        GaussianJakes(aperture=-0.5)


# ---------------------------------------------------------------- jakes


def test_jakes_matrix_unit_diagonal_and_symmetry():
    cov = jakes_correlation_matrix(8, 1.3)
    assert np.array_equal(np.diag(cov), np.ones(8))
    assert np.allclose(cov, cov.T)
    assert cov.shape == (8, 8)


def test_jakes_single_port_degenerates():
    assert np.array_equal(jakes_correlation_matrix(1, 0.7), [[1.0]])


def test_jakes_zero_aperture_is_rank_one():
    # zero spacing: all ports perfectly correlated, samples exactly equal
    g = sample_port_gains(GaussianJakes(0.0), 200, 5, 1).gains
    assert np.allclose(g, g[:, :1], rtol=0, atol=1e-12)


def test_jakes_first_null_decorrelates_adjacent_ports():
    # with 2 ports spanning the first Bessel zero the off-diagonal vanishes
    cov = jakes_correlation_matrix(2, APERTURE_FIRST_NULL)
    assert abs(cov[0, 1]) < 1e-12
    # the commonly quoted 4-digit aperture lands close but not exactly
    cov_r = jakes_correlation_matrix(2, 0.3825)
    assert abs(cov_r[0, 1]) < 1e-3


def test_jakes_covariance_stays_psd_over_grid():
    worst = np.inf
    for n in (2, 4, 8, 16, 24):
        for w in (0.0, 0.25, 0.5, 1.0, 2.5, 5.0):
            cov = jakes_correlation_matrix(n, w)
            worst = min(worst, np.linalg.eigvalsh(cov).min())
    assert worst > -1e-10


def test_jakes_marginals_are_unit_exponential():
    g = sample_port_gains(GaussianJakes(0.5), 40000, 4, 23).gains
    assert abs(g.mean() - 1.0) < 0.025
    ks = kstest(g[:, 0], "expon")
    assert ks.statistic < 1.6276 / np.sqrt(40000)


def test_jakes_neighbor_correlation_decays_with_aperture():
    def corr(aperture):
        g = sample_port_gains(GaussianJakes(aperture), 30000, 2, 4).gains
        return np.corrcoef(g[:, 0], g[:, 1])[0, 1]

    tight, wide = corr(0.05), corr(2.0)
    assert tight > 0.9
    assert abs(wide) < 0.1


# ------------------------------------------------------------- selection


def test_select_ports_returns_each_rows_max():
    gains = np.array([[0.2, 1.7, 0.4], [3.0, 0.1, 0.5]])
    assert np.array_equal(select_ports(PortGainMatrix(gains=gains)), [1.7, 3.0])


def test_select_ports_rejects_empty():
    with pytest.raises(ValueError):
        select_ports(PortGainMatrix(np.empty((0, 3))))


def test_best_port_gain_grows_with_port_count():
    # more ports, more selection diversity: mean max gain increases
    means = []
    for n in (1, 4, 16):
        g = sample_port_gains(Independent(), 20000, n, 8).gains
        means.append(g.max(axis=1).mean())
    assert means[0] < means[1] < means[2]
    # harmonic-number check for the independent max: E max = H_n
    h4 = 1 + 1 / 2 + 1 / 3 + 1 / 4
    assert abs(means[1] - h4) < 0.05


def test_unknown_dependence_spec_raises():
    with pytest.raises(TypeError):
        sample_port_gains(object(), 2, 2, 0)
