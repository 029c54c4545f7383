"""Port-gain sampler tests: marginals, dependence, correlation structure."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import j0, jn_zeros
from scipy.stats import binom, kendalltau, kstest

from fluidfed import channel
from fluidfed.analytics import GainDistribution, channel_gain_cdf, qualify_probability
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


@pytest.mark.parametrize("n_users, n_ports, aperture", [
    *(pytest.param(300, 6, aperture, id=str(aperture)) for aperture in (0.0, 0.5, 3.0)),
    # three whole chunks and a short fourth; aperture 0 is the rank-1 case
    *(pytest.param(3 * (channel._JAKES_CHUNK // n) + 7, n, 0.0, id=f"chunks-N{n}")
      for n in (1, 10, 64)),
])
def test_jakes_in_place_evaluation_matches_the_plain_expression(n_users, n_ports, aperture):
    eigval, eigvec = np.linalg.eigh(jakes_correlation_matrix(n_ports, aperture))
    eigval = np.where(eigval < 1e-12 * eigval.max(), 0.0, eigval)
    plain = np.random.default_rng(8)
    z = (plain.standard_normal((n_users, n_ports))
         + 1j * plain.standard_normal((n_users, n_ports))) / np.sqrt(2.0)
    expected = np.abs(z @ (eigvec * np.sqrt(eigval)).T) ** 2
    gen = np.random.default_rng(8)
    got = sample_port_gains(GaussianJakes(aperture), n_users, n_ports, gen).gains
    assert got.tobytes() == expected.tobytes()
    # 2 K N normals drawn, no more and no fewer
    assert gen.bit_generator.state == plain.bit_generator.state


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance, over the pooled values."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, pooled, side="right") / a.size
                  - np.searchsorted(b, pooled, side="right") / b.size).max()


def _same_law_band(n, alpha=1e-6):
    """P(distance > band) <= alpha for two samples of n >= 458 from one law:
    the two-sample DKW bound with Massart's constant 2 (Wei & Dudley 2012),
    conservative for a discrete law."""
    assert n >= 458
    return np.sqrt(np.log(2.0 / alpha) / n)


LAW_ROWS = 20_000  # band 0.027 at 1e-6 per case
POWER_ROWS = 100_000  # band 0.012


def _row_max_of_full_matrix(dep, n_users, n_ports, seed):
    return sample_port_gains(dep, n_users, n_ports, seed).gains.max(axis=1)


@pytest.mark.parametrize("n_ports", [1, 3, 10, 64])
@pytest.mark.parametrize("dep", [PerfectDependence(), GaussianJakes(0.5)], ids=repr)
def test_best_gains_are_the_row_max_of_the_full_matrix(dep, n_ports):
    # these reduce the full form's draws: same bits, same draws consumed
    n_users = 20_000 // n_ports + 3
    full_gen, best_gen = np.random.default_rng(21), np.random.default_rng(21)
    full = _row_max_of_full_matrix(dep, n_users, n_ports, full_gen)
    best = sample_best_gains(dep, n_users, n_ports, best_gen)
    assert best.shape == (n_users,) and best.dtype == full.dtype
    assert best.tobytes() == full.tobytes()
    assert best_gen.bit_generator.state == full_gen.bit_generator.state
    seeded = sample_best_gains(dep, n_users, n_ports, np.random.SeedSequence(21))
    assert seeded.tobytes() == sample_best_gains(dep, n_users, n_ports, 21).tobytes()


def _ks_to_law(sample, cdf):
    """One-sample Kolmogorov-Smirnov distance of ``sample`` to the CDF ``cdf``."""
    x = np.sort(sample)
    f, n = cdf(x), x.size
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


def _one_sample_band(n, alpha=1e-6):
    """P(distance > band) <= alpha for n draws from a continuous law: the
    DKW bound with Massart's constant 2 (Massart 1990)."""
    return np.sqrt(np.log(2.0 / alpha) / (2 * n))


def _independent_best_gains(n_ports, seed, chunks=10, rows=100_000):
    """``chunks * rows`` independent best gains, a block of N x rows
    uniforms at a time."""
    streams = np.random.SeedSequence(seed).spawn(chunks)
    return np.concatenate([sample_best_gains(Independent(), rows, n_ports, s) for s in streams])


@pytest.mark.parametrize("n_ports", [1, 3, 10, 64])
def test_independent_best_gains_follow_the_max_of_n_exponentials(n_ports):
    # the Exp(1) quantile of the largest of N uniforms, against the law
    # (1 - e^-x)^N itself: within the band at 1e-6 per case (1M rows, band
    # 0.0027), and outside it for N - 1 ports, whose distance is at least
    # max F^(N-1) (1 - F), 0.0058 at N = 64
    best = _independent_best_gains(n_ports, 21)
    assert best.dtype == np.float64
    band = _one_sample_band(best.size)

    def law(x):
        return (-np.expm1(-x)) ** n_ports

    assert _ks_to_law(best, law) <= band
    if n_ports > 1:
        assert _ks_to_law(_independent_best_gains(n_ports - 1, 21), law) > band
    one = sample_best_gains(Independent(), 300, n_ports, 21)
    assert one.shape == (300,)
    assert sample_best_gains(Independent(), 300, n_ports, np.random.SeedSequence(21)).tobytes() \
        == one.tobytes()


@pytest.mark.parametrize("n_ports", [1, 3, 10, 64])
@pytest.mark.parametrize("beta", [1e-3, 0.05, 0.5, 1.0, 2.0, 5.0, 30.0, 200.0])
def test_clayton_best_gains_follow_the_row_max_law(beta, n_ports):
    # one Exp(1)/N per row through the gain map, against the full matrix's
    # row maxima from other draws: equal in law at 1e-6 per case
    dep = Clayton(beta)
    best = sample_best_gains(dep, LAW_ROWS, n_ports, 21)
    assert best.shape == (LAW_ROWS,) and best.dtype == np.float64
    full = _row_max_of_full_matrix(dep, LAW_ROWS, n_ports, 22)
    assert _ks_distance(best, full) <= _same_law_band(LAW_ROWS)
    seeded = sample_best_gains(dep, LAW_ROWS, n_ports, np.random.SeedSequence(21))
    assert seeded.tobytes() == best.tobytes()


@pytest.mark.parametrize("n_ports", [3, 10])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_best_gain_law_check_rejects_an_n_minus_1_shortcut(beta, n_ports):
    # the shortcut Exp(1)/(N - 1) is the N - 1 port sampler; its distance
    # is 0.021-0.12 here, but under 0.008 at N = 64 or beta = 30
    dep, band = Clayton(beta), _same_law_band(POWER_ROWS)
    full = _row_max_of_full_matrix(dep, POWER_ROWS, n_ports, 22)
    assert _ks_distance(sample_best_gains(dep, POWER_ROWS, n_ports, 21), full) <= band
    assert _ks_distance(sample_best_gains(dep, POWER_ROWS, n_ports - 1, 21), full) > band


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
    "dep, method, value, samplers",
    [
        (Independent(), "standard_exponential", np.nan, "gains"),
        (Independent(), "standard_exponential", np.inf, "gains"),
        (Independent(), "random", np.nan, "best"),
        (Independent(), "random", 1.0, "best"),  # -ln(1 - u) = inf
        (PerfectDependence(), "standard_exponential", np.nan, "gains best first"),
        (Clayton(2.0), "standard_exponential", np.nan, "gains best"),
        (Clayton(2.0), "standard_exponential", 0.0, "gains best"),
        (Clayton(2.0), "standard_gamma", np.inf, "gains best first"),
        (GaussianJakes(0.5), "standard_normal", np.nan, "gains best first"),
        (Clayton(2.0), "uniform", np.nan, "gains best first"),
    ],
)
def test_best_gains_raise_where_the_full_sampler_raises(dep, method, value, samplers):
    # every sampler that draws by ``method`` raises on a poisoned draw: the
    # independent best gain draws uniforms and no exponentials, independent
    # and Clayton first ports no exponentials, and a Clayton first port
    # checks ln V, since V = inf gives a finite p = 1
    calls = {
        "gains": lambda rng: sample_port_gains(dep, 6, 4, rng),
        "best": lambda rng: sample_best_gains(dep, 6, 4, rng),
        "first": lambda rng: first_qualifying_port(dep, 6, 4, 2.0, rng),
    }
    with np.errstate(all="ignore"):
        for name in samplers.split():
            with pytest.raises(SamplingError):
                calls[name](_poisoned(method, value))


def _first_at_or_above(gains, threshold):
    """The brute force: each row's first column with gain >= threshold, or
    the column count where there is none."""
    hit = gains >= threshold
    return np.where(hit.any(axis=1), hit.argmax(axis=1), gains.shape[1])


THRESHOLDS = [1e-3, 2.0, 6.0, 40.0]


# 0 and 750 lie outside the range where Clayton's cutoff is positive and finite
@pytest.mark.parametrize("threshold", [*THRESHOLDS, 0.0, 750.0])
@pytest.mark.parametrize("n_ports", [1, 10, 64])
@pytest.mark.parametrize("dep", [PerfectDependence(), GaussianJakes(0.5)], ids=repr)
def test_first_qualifying_port_is_the_first_port_of_the_gain_matrix(dep, n_ports, threshold):
    # these reduce the full form's draws: same decisions, same draws consumed
    n_users = 20_000 // n_ports + 3
    full_gen, first_gen = np.random.default_rng(31), np.random.default_rng(31)
    gains = sample_port_gains(dep, n_users, n_ports, full_gen).gains
    first = first_qualifying_port(dep, n_users, n_ports, threshold, first_gen)
    assert first.shape == (n_users,)
    assert np.array_equal(first, _first_at_or_above(gains, threshold))
    assert first_gen.bit_generator.state == full_gen.bit_generator.state


@pytest.mark.parametrize("threshold", [*THRESHOLDS, 0.0, 750.0])
@pytest.mark.parametrize("n_ports", [1, 10, 64])
@pytest.mark.parametrize("dep", [Independent()] + [Clayton(b) for b in (0.05, 1.0, 2.0, 30.0)],
                         ids=repr)
def test_first_qualifying_port_follows_the_gain_matrix_law(dep, n_ports, threshold):
    # one geometric draw per row, against the first ports of a full matrix
    # from other draws: equal in law at 1e-6 per case
    first = first_qualifying_port(dep, LAW_ROWS, n_ports, threshold, 31)
    assert first.shape == (LAW_ROWS,) and first.dtype == np.int64
    assert first.min() >= 0 and first.max() <= n_ports
    gains = sample_port_gains(dep, LAW_ROWS, n_ports, 32).gains
    assert _ks_distance(first, _first_at_or_above(gains, threshold)) <= _same_law_band(LAW_ROWS)


@pytest.mark.parametrize("dep", [Independent(), Clayton(1.0), Clayton(2.0)], ids=repr)
def test_first_port_law_check_rejects_a_geometric_without_the_minus_1(dep):
    # Geometric(p) capped at N, not Geometric(p) - 1: each port one later
    gains = sample_port_gains(dep, LAW_ROWS, 10, 32).gains
    ref = _first_at_or_above(gains, 2.0)
    first = first_qualifying_port(dep, LAW_ROWS, 10, 2.0, 31)
    band = _same_law_band(LAW_ROWS)
    assert _ks_distance(first, ref) <= band < _ks_distance(np.minimum(first + 1, 10), ref)


@pytest.mark.parametrize("dep", [Independent(), Clayton(0.05), Clayton(2.0), Clayton(30.0)],
                         ids=repr)
def test_first_qualifying_port_edges(dep):
    # every gain reaches t <= 0
    for threshold in (0.0, -1.0):
        assert np.array_equal(first_qualifying_port(dep, 50, 7, threshold, 1), np.zeros(50))
    # p = 0 where e^-t underflows: Geometric(0) would raise; at t = 700 the
    # draws saturate at INT64_MAX and are capped before subtracting 1
    for threshold in (700.0, 750.0, 1e6):
        assert np.array_equal(first_qualifying_port(dep, 50, 7, threshold, 1), np.full(50, 7))


def test_clayton_first_port_of_a_zero_frailty_is_none():
    # u = 0 gives ln V = -inf and p = 0: that row reaches no port
    first = first_qualifying_port(Clayton(2.0), 6, 4, 1e-3, _poisoned("uniform", 0.0))
    assert first[1] == 4 and np.all(np.delete(first, 1) < 4)


def test_clayton_first_port_at_a_huge_beta_takes_an_infinite_cutoff_quietly():
    # at beta = 1e4 and t = 2, ln e* passes ln(DBL_MAX): e* = inf gives p = 1
    # with no overflow warning, and nearly every qualifying user stops at
    # port 0, so its share follows the best-port law at 1e-6
    dep, n_ports, threshold = Clayton(1e4), 10, 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = first_qualifying_port(dep, LAW_ROWS, n_ports, threshold, 0)
    q = qualify_probability(GainDistribution(n_ports, dep), threshold)
    lo, hi = binom.interval(1 - 1e-6, LAW_ROWS, q)
    assert lo <= np.count_nonzero(first == 0) <= hi


def test_first_success_caps_saturated_draws():
    gen = np.random.default_rng(3)
    assert gen.geometric(5e-324) == np.iinfo(np.int64).max  # numpy's saturation
    first = channel._first_success(gen, np.array([5e-324, 1e-300, 0.0, 1.0]), 9)
    assert first.tolist() == [9, 9, 9, 0]


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


@pytest.mark.parametrize("aperture", [np.nan, np.inf, -np.inf, 1e308,
                                      pytest.param(np.float64(1e308), id="float64-1e308")])
def test_jakes_rejects_a_non_finite_aperture(aperture):
    # NaN passed an "aperture < 0" check and then failed to converge in eigh,
    # as did 1e308, whose Bessel argument 2*pi*W overflows (with no warning)
    with pytest.raises(ValueError, match="aperture must be >= 0 and finite"):
        GaussianJakes(aperture)
    # 2*pi*2.8e307 is still finite
    assert GaussianJakes(2.8e307).aperture == 2.8e307


# ---------------------------------------------------------------- jakes


def test_j0_is_scipy_j0_bit_for_bit_up_to_5():
    # the default layout's arguments 2*pi*|i-j|/(N-1)*W stay below pi
    x = np.concatenate([np.linspace(0.0, 5.0, 2_000_001), np.geomspace(1e-12, 1e-4, 1001)])
    assert np.array_equal(channel._j0(x), j0(x))
    assert np.array_equal(channel._j0(-x), channel._j0(x))


def test_j0_past_5_is_within_a_few_ulp_of_mpmath():
    # the Hankel form's phase x - pi/4 carries x's own rounding, so the
    # error is measured as J0 at an argument within an ulp: an ulp of
    # J0(x) plus |J0'(x)| = |J1(x)| times an ulp of x
    x = np.concatenate([np.linspace(5.0, 40.0, 701), np.geomspace(40.0, 1e4, 300)])
    got = channel._j0(x)
    ref0 = np.array([float(mp.besselj(0, mp.mpf(v))) for v in x])
    ref1 = np.array([float(mp.besselj(1, mp.mpf(v))) for v in x])
    ulps = np.abs(got - ref0) / (np.spacing(np.abs(ref0)) + np.abs(ref1) * np.spacing(x))
    assert ulps.max() <= 4


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
