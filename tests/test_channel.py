"""Port-gain sampler tests: marginals, dependence, correlation structure."""

import numpy as np
import pytest
from scipy.special import jn_zeros
from scipy.stats import kendalltau, kstest

from fluidfed.channel import (
    Clayton,
    EffectiveGains,
    GaussianJakes,
    Independent,
    PerfectDependence,
    PortGeometry,
    SamplingError,
    jakes_correlation_matrix,
    sample_best_gains,
    sample_clayton_exponential,
    sample_gaussian_jakes,
    sample_independent,
    sample_perfect_dependence,
    sample_port_gains,
    select_ports,
)

# first positive zero of J0, divided by 2*pi (scipy.special.jn_zeros oracle)
APERTURE_FIRST_NULL = 0.38273987478100613


def test_independent_shape_and_marginal():
    g = sample_independent(2000, 4, rng=7).gains
    assert g.shape == (2000, 4)
    assert np.all(g > 0)
    # Exp(1) has mean 1, variance 1
    assert abs(g.mean() - 1.0) < 0.05
    ks = kstest(g.ravel(), "expon")
    assert ks.statistic < 1.6276 / np.sqrt(g.size)


def test_perfect_dependence_repeats_one_draw_per_row():
    g = sample_perfect_dependence(50, 6, rng=3).gains
    assert np.all(g == g[:, :1])
    # rows still vary
    assert np.unique(g[:, 0]).size == 50


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_clayton_marginals_are_unit_exponential(beta):
    g = sample_clayton_exponential(20000, 3, beta, rng=11).gains
    for j in range(3):
        ks = kstest(g[:, j], "expon")
        assert ks.statistic < 1.6276 / np.sqrt(20000), (beta, j)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_clayton_kendall_tau_identity(beta):
    g = sample_clayton_exponential(30000, 2, beta, rng=5).gains
    tau = kendalltau(g[:, 0], g[:, 1]).statistic
    assert abs(tau - beta / (beta + 2.0)) < 0.02


def test_clayton_extreme_betas_stay_finite():
    # tiny beta: near-independent; huge beta: near-comonotone.  Both must
    # come out of the log-domain path without under/overflow.
    lo = sample_clayton_exponential(5000, 4, 1e-4, rng=2).gains
    hi = sample_clayton_exponential(5000, 4, 1e3, rng=2).gains
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

    g = sample_clayton_exponential(20000, 6, beta, rng=9).gains
    best = np.sort(g.max(axis=1))
    grid = np.linspace(0.05, 6.0, 25)
    empirical = np.searchsorted(best, grid, side="left") / best.size
    analytic = channel_gain_cdf(GainDistribution(6, Clayton(beta)), grid)
    assert np.max(np.abs(empirical - analytic)) < 0.015


def test_same_seed_reproduces_gains_exactly():
    a = sample_clayton_exponential(100, 5, 2.0, rng=42).gains
    b = sample_clayton_exponential(100, 5, 2.0, rng=42).gains
    assert np.array_equal(a, b)
    c = sample_clayton_exponential(100, 5, 2.0, rng=43).gains
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
    got = sample_clayton_exponential(300, 7, beta, rng=5).gains
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("aperture", [0.0, 0.5, 3.0])
def test_jakes_in_place_evaluation_matches_the_plain_expression(aperture):
    geometry = PortGeometry(n_ports=6, aperture=aperture)
    eigval, eigvec = np.linalg.eigh(jakes_correlation_matrix(geometry))
    eigval = np.where(eigval < 1e-12 * eigval.max(), 0.0, eigval)
    gen = np.random.default_rng(8)
    z = (gen.standard_normal((300, 6)) + 1j * gen.standard_normal((300, 6))) / np.sqrt(2.0)
    expected = np.abs(z @ (eigvec * np.sqrt(eigval)).T) ** 2
    got = sample_gaussian_jakes(300, geometry, rng=8).gains
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
    ],
)
def test_best_gains_raise_where_the_full_sampler_raises(dep, method, value):
    with np.errstate(all="ignore"):
        with pytest.raises(SamplingError):
            sample_port_gains(dep, 6, 4, _poisoned(method, value))
        with pytest.raises(SamplingError):
            sample_best_gains(dep, 6, 4, _poisoned(method, value))


def test_best_gains_validate_like_the_full_sampler():
    with pytest.raises(ValueError):
        sample_best_gains(Clayton(1.0), 0, 3, rng=0)
    with pytest.raises(ValueError):
        sample_best_gains(PerfectDependence(), 3, 0, rng=0)
    with pytest.raises(TypeError):
        sample_best_gains(object(), 2, 2, 0)


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        sample_clayton_exponential(10, 2, 0.0, rng=0)
    with pytest.raises(ValueError):
        sample_clayton_exponential(10, 2, float("inf"), rng=0)
    with pytest.raises(ValueError):
        sample_independent(0, 2, rng=0)
    with pytest.raises(ValueError):
        sample_independent(2, 0, rng=0)
    with pytest.raises(ValueError):
        Clayton(-1.0)
    with pytest.raises(ValueError):
        GaussianJakes(aperture=-0.5)
    with pytest.raises(ValueError):
        PortGeometry(n_ports=3, aperture=-1.0)


def test_dispatch_matches_direct_samplers():
    for dep, fn in [
        (Independent(), lambda r: sample_independent(8, 3, r)),
        (Clayton(1.5), lambda r: sample_clayton_exponential(8, 3, 1.5, r)),
        (PerfectDependence(), lambda r: sample_perfect_dependence(8, 3, r)),
    ]:
        via_dispatch = sample_port_gains(dep, 8, 3, 17).gains
        direct = fn(17).gains
        assert np.array_equal(via_dispatch, direct), dep


# ---------------------------------------------------------------- jakes


def test_jakes_matrix_unit_diagonal_and_symmetry():
    cov = jakes_correlation_matrix(PortGeometry(8, aperture=1.3), power=2.0)
    assert np.allclose(np.diag(cov), 2.0)
    assert np.allclose(cov, cov.T)
    assert cov.shape == (8, 8)


def test_jakes_single_port_degenerates():
    cov = jakes_correlation_matrix(PortGeometry(1, aperture=0.7), power=3.0)
    assert cov.shape == (1, 1) and cov[0, 0] == 3.0


def test_jakes_zero_aperture_is_rank_one():
    # zero spacing: all ports perfectly correlated, samples exactly equal
    g = sample_gaussian_jakes(200, PortGeometry(5, aperture=0.0), rng=1).gains
    assert np.allclose(g, g[:, :1], rtol=0, atol=1e-12)


def test_jakes_first_null_decorrelates_adjacent_ports():
    # with 2 ports spanning the first Bessel zero the off-diagonal vanishes
    cov = jakes_correlation_matrix(PortGeometry(2, APERTURE_FIRST_NULL))
    assert abs(cov[0, 1]) < 1e-12
    # the commonly quoted 4-digit aperture lands close but not exactly
    cov_r = jakes_correlation_matrix(PortGeometry(2, 0.3825))
    assert abs(cov_r[0, 1]) < 1e-3


def test_jakes_covariance_stays_psd_over_grid():
    worst = np.inf
    for n in (2, 4, 8, 16, 24):
        for w in (0.0, 0.25, 0.5, 1.0, 2.5, 5.0):
            cov = jakes_correlation_matrix(PortGeometry(n, w))
            worst = min(worst, np.linalg.eigvalsh(cov).min())
    assert worst > -1e-10


def test_jakes_marginals_exponential_with_power():
    g = sample_gaussian_jakes(
        40000, PortGeometry(4, aperture=0.5), rng=23, power=2.0
    ).gains
    assert abs(g.mean() - 2.0) < 0.05
    ks = kstest(g[:, 0] / 2.0, "expon")
    assert ks.statistic < 1.6276 / np.sqrt(40000)


def test_jakes_neighbor_correlation_decays_with_aperture():
    def corr(aperture):
        g = sample_gaussian_jakes(30000, PortGeometry(2, aperture), rng=4).gains
        return np.corrcoef(g[:, 0], g[:, 1])[0, 1]

    tight, wide = corr(0.05), corr(2.0)
    assert tight > 0.9
    assert abs(wide) < 0.1


# ------------------------------------------------------------- selection


def test_select_ports_picks_max_and_reports_one_based_index():
    from fluidfed.channel import PortGainMatrix

    gains = np.array([[0.2, 1.7, 0.4], [3.0, 0.1, 0.5]])
    eff = select_ports(PortGainMatrix(gains=gains))
    assert isinstance(eff, EffectiveGains)
    assert np.array_equal(eff.gain, [1.7, 3.0])
    assert np.array_equal(eff.port_index, [2, 1])


def test_select_ports_tie_goes_to_lowest_index():
    from fluidfed.channel import PortGainMatrix

    eff = select_ports(PortGainMatrix(np.array([[2.0, 2.0, 2.0]])))
    assert eff.port_index[0] == 1


def test_select_ports_rejects_empty():
    from fluidfed.channel import PortGainMatrix

    with pytest.raises(ValueError):
        select_ports(PortGainMatrix(np.empty((0, 3))))


def test_best_port_gain_grows_with_port_count():
    # more ports, more selection diversity: mean max gain increases
    means = []
    for n in (1, 4, 16):
        g = sample_independent(20000, n, rng=8).gains
        means.append(g.max(axis=1).mean())
    assert means[0] < means[1] < means[2]
    # harmonic-number check for the independent max: E max = H_n
    h4 = 1 + 1 / 2 + 1 / 3 + 1 / 4
    assert abs(means[1] - h4) < 0.05


def test_unknown_dependence_spec_raises():
    with pytest.raises(TypeError):
        sample_port_gains(object(), 2, 2, 0)
