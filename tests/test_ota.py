"""Selection + zero-forcing scaling tests."""

import numpy as np
import pytest

from fluidfed.ota import (
    NoParticipantsError,
    OtaConfig,
    dbm_to_linear,
    gain_threshold,
    ota_aggregate,
    select_users,
    zf_power_control,
)


def _eff(gains):
    return np.asarray(gains, dtype=float)


def test_dbm_conversions():
    assert dbm_to_linear(10.0) == pytest.approx(0.01, rel=1e-12)
    assert dbm_to_linear(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_linear(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_linear(-30.0) == pytest.approx(1e-6, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        OtaConfig(p_max=0.0, sigma2=1e-3, tau=0.05)
    with pytest.raises(ValueError):
        OtaConfig(p_max=0.01, sigma2=-1.0, tau=0.05)
    with pytest.raises(ValueError):
        OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.0)
    # finite fields whose threshold sigma2/(p_max*tau) overflows; p_max is
    # named when sigma2/p_max alone overflows
    with pytest.raises(ValueError, match=r"^p_max makes sigma2/\(p_max\*tau\) overflow"):
        OtaConfig(p_max=1e-320, sigma2=1e-3, tau=0.05)
    for sigma2, tau in [(1e-3, 1e-310), (1e300, 1e-10)]:
        with pytest.raises(ValueError, match=r"^tau makes sigma2/\(p_max\*tau\) overflow"):
            OtaConfig(p_max=0.01, sigma2=sigma2, tau=tau)


def test_zf_rejects_empty_vectors():
    cfg = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    with pytest.raises(ValueError, match="d must be >= 1"):
        zf_power_control(_eff([3.0]), np.array([0]), cfg, 0)


def test_threshold_and_selection_boundary_is_inclusive():
    cfg = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    thr = gain_threshold(cfg)
    assert thr == pytest.approx(2.0, rel=1e-12)
    eff = _eff([1.9999, 2.0, 2.0001, 5.0, 0.1])
    sel = select_users(eff, cfg)
    assert np.array_equal(sel, [1, 2, 3])  # >= threshold, boundary included


def test_zf_worked_example():
    # d=2, p_max=1, gains (1, 4): eta = 2*1*1 = 2, per-entry power
    # eta/(d*g) = (1, 1/4) binds at the weakest user
    cfg = OtaConfig(p_max=1.0, sigma2=0.1, tau=1.0)
    gains = np.array([1.0, 4.0])
    out = zf_power_control(_eff(gains), np.array([0, 1]), cfg, 2)
    assert out.eta == pytest.approx(2.0)
    assert out.realized_mse == pytest.approx(0.1)  # sigma2/(p_max*g_min)
    powers = out.eta / (out.d * gains)
    assert powers == pytest.approx([1.0, 0.25])
    assert powers[0] == pytest.approx(cfg.p_max, abs=1e-15)
    assert powers[1] < cfg.p_max


def test_power_constraint_binds_at_weakest_over_random_rounds():
    rng = np.random.default_rng(88)
    cfg, d = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05), 100
    for _ in range(500):
        k = int(rng.integers(1, 30))
        gains = rng.exponential(size=k) + gain_threshold(cfg)
        out = zf_power_control(_eff(gains), np.arange(k), cfg, d)
        powers = out.eta / (d * gains)
        assert powers.max() <= cfg.p_max * (1 + 1e-12)
        assert abs(powers[np.argmin(gains)] - cfg.p_max) <= 1e-12 * cfg.p_max
        assert out.realized_mse == pytest.approx(d * cfg.sigma2 / out.eta)


def test_threshold_selection_caps_realized_mse():
    rng = np.random.default_rng(11)
    cfg = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    rounds = 0
    while rounds < 300:
        gains = rng.exponential(scale=3.0, size=12)
        eff = _eff(gains)
        sel = select_users(eff, cfg)
        if sel.size == 0:
            continue
        out = zf_power_control(eff, sel, cfg, 50)
        assert out.realized_mse <= cfg.tau * (1 + 1e-12)
        rounds += 1


def test_select_and_scale_raises_when_nobody_qualifies():
    cfg = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    eff = _eff([0.5, 1.0, 1.99])
    with pytest.raises(NoParticipantsError):
        zf_power_control(eff, select_users(eff, cfg), cfg, 10)
    with pytest.raises(NoParticipantsError):
        zf_power_control(_eff([3.0]), np.array([], dtype=int), cfg, 10)


def test_zf_rejects_bad_gains():
    cfg = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)
    with pytest.raises(ValueError):
        zf_power_control(_eff([2.0, 0.0]), np.array([0, 1]), cfg, 10)
    with pytest.raises(ValueError):
        zf_power_control(_eff([2.0, np.inf]), np.array([0, 1]), cfg, 10)


def test_aggregate_is_unbiased_mean_with_matching_noise_variance():
    # one participant, unit updates: error = noise/sqrt(eta), so the
    # per-entry error variance must be sigma2/eta
    cfg, d = OtaConfig(p_max=1.0, sigma2=0.25, tau=100.0), 20000
    eff = _eff([2.0])
    out = zf_power_control(eff, np.array([0]), cfg, d)
    u = np.ones((1, d))
    est = ota_aggregate(u, out, cfg, rng=13)
    err = est - 1.0
    assert abs(err.mean()) < 3.0 * np.sqrt(cfg.sigma2 / out.eta / d)
    assert np.var(err) == pytest.approx(cfg.sigma2 / out.eta, rel=0.05)


def test_aggregate_error_shrinks_with_participant_count():
    # S participants: variance sigma2/(eta * S^2) per entry
    cfg = OtaConfig(p_max=1.0, sigma2=0.25, tau=100.0)
    gains = np.full(4, 2.0)
    out = zf_power_control(_eff(gains), np.arange(4), cfg, 20000)
    u = np.zeros((4, 20000))
    est = ota_aggregate(u, out, cfg, rng=14)
    assert np.var(est) == pytest.approx(cfg.sigma2 / out.eta / 16.0, rel=0.05)


def test_aggregate_with_zero_noise_is_exact_mean():
    cfg = OtaConfig(p_max=1.0, sigma2=1e-300, tau=1e300)
    out = zf_power_control(_eff([1.0, 3.0]), np.array([0, 1]), cfg, 5)
    u = np.array([[1.0, 2, 3, 4, 5], [5.0, 4, 3, 2, 1]])
    est = ota_aggregate(u, out, cfg, rng=0)
    assert np.allclose(est, [3.0, 3, 3, 3, 3], atol=1e-9)


def test_aggregate_shape_validation():
    cfg = OtaConfig(p_max=1.0, sigma2=0.1, tau=10.0)
    out = zf_power_control(_eff([2.0, 3.0]), np.array([0, 1]), cfg, 4)
    with pytest.raises(ValueError):
        ota_aggregate(np.ones((3, 4)), out, cfg, rng=0)  # row count != S
    with pytest.raises(ValueError):
        ota_aggregate(np.ones((2, 5)), out, cfg, rng=0)  # not the power-controlled d
    with pytest.raises(ValueError):
        ota_aggregate(np.ones(4), out, cfg, rng=0)  # not 2-D


def test_aggregate_same_seed_is_deterministic():
    cfg = OtaConfig(p_max=1.0, sigma2=0.1, tau=10.0)
    out = zf_power_control(_eff([2.0]), np.array([0]), cfg, 8)
    a = ota_aggregate(np.ones((1, 8)), out, cfg, rng=7)
    b = ota_aggregate(np.ones((1, 8)), out, cfg, rng=7)
    assert np.array_equal(a, b)
