"""Zero-forcing over-the-air aggregation with threshold-based user selection.

Each round the server wants the mean of the selected users' update vectors.
Users transmit simultaneously; user k inverts its own effective channel so
the superimposed signal is the plain sum, scaled by a shared denoising
factor.  With per-entry transmit budget p_max, receiver noise power sigma2
and vectors of length d (an argument of `zf_power_control`, the model
dimension in training):

* selection: user k participates iff its best-port gain reaches
  sigma2 / (tau * p_max), which caps the realized aggregation error at tau;
* denoising factor: eta = d * p_max * min selected gain, so the weakest
  participant transmits exactly at its power budget;
* per-user power: user k scales its vector to per-entry power
  eta / (d * gain_k) <= p_max, with equality at the weakest user;
* realized error of the normalized sum estimate:
  mse = (sigma2/p_max) * max_k 1/gain_k = d * sigma2 / eta.

`ota_aggregate` returns the mean estimate (1/S) * (sum_k u_k + z/sqrt(eta))
with real Gaussian noise z ~ N(0, sigma2 I); its per-entry error variance is
sigma2 / (eta * S^2).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .channel import RngLike

__all__ = [
    "NoParticipantsError",
    "OtaConfig",
    "SelectionOutcome",
    "gain_threshold",
    "select_users",
    "zf_power_control",
    "ota_aggregate",
]


class NoParticipantsError(Exception):
    """No user passed the participation threshold this round."""


@dataclass(frozen=True)
class OtaConfig:
    """Power budget, noise power, error target: the one check of a link and its threshold."""

    p_max: float
    sigma2: float
    tau: float

    def __post_init__(self):
        for name in ("p_max", "sigma2", "tau"):
            v = getattr(self, name)
            if not (v > 0) or not np.isfinite(v):
                raise ValueError(f"{name} must be finite and > 0")
        # p_max is named when sigma2/p_max alone overflows the threshold
        with np.errstate(over="ignore"):
            if not (self.p_max * self.tau > 0 and np.isfinite(gain_threshold(self))):
                name = "tau" if np.isfinite(self.sigma2 / self.p_max) else "p_max"
                raise ValueError(f"{name} makes sigma2/(p_max*tau) overflow")


@dataclass(frozen=True)
class SelectionOutcome:
    """Participants plus the zero-forcing scaling for one round.

    selected: ascending user indices (0-based)
    eta: shared denoising factor; selected user k transmits at per-entry
        power eta / (d * gain_k)
    realized_mse: aggregation error of the round, d * sigma2 / eta
    d: length of the transmitted vectors
    """

    selected: np.ndarray
    eta: float
    realized_mse: float
    d: int


def gain_threshold(cfg: OtaConfig) -> float:
    """Minimum best-port gain required to participate."""
    return cfg.sigma2 / (cfg.tau * cfg.p_max)


def select_users(gain: np.ndarray, cfg: OtaConfig) -> np.ndarray:
    """Indices (ascending) of the users whose (K,) best-port ``gain`` reaches the threshold."""
    return np.flatnonzero(gain >= gain_threshold(cfg))


def zf_power_control(
    gain: np.ndarray, selected: np.ndarray, cfg: OtaConfig, d: int
) -> SelectionOutcome:
    """Zero-forcing scaling for a given participant set sending length-``d`` vectors.

    ``gain`` is the (K,) array of best-port gains, ``selected`` indexes it.
    The denoising factor binds the power constraint at the weakest
    participant: eta = d * p_max * min gain.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    selected = np.asarray(selected, dtype=int)
    if selected.size == 0:
        raise NoParticipantsError("no users passed the participation threshold")
    gains = gain[selected]
    if np.any(gains <= 0) or not np.all(np.isfinite(gains)):
        raise ValueError("selected gains must be finite and > 0")
    g_min = float(gains.min())
    eta = d * cfg.p_max * g_min
    realized = cfg.sigma2 / (cfg.p_max * g_min)
    return SelectionOutcome(selected=selected, eta=eta, realized_mse=realized, d=d)


def ota_aggregate(
    updates: np.ndarray,
    outcome: SelectionOutcome,
    cfg: OtaConfig,
    rng: RngLike,
) -> np.ndarray:
    """Noisy mean of the participants' update vectors.

    ``updates`` is (S, d) with the ``d`` of ``outcome``, row k the vector of
    selected user k.  Returns (1/S) * (sum_k u_k + z / sqrt(eta)) with
    z ~ N(0, sigma2 I) real.
    """
    u = np.asarray(updates, dtype=float)
    s = outcome.selected.size
    if u.ndim != 2 or u.shape[0] != s:
        raise ValueError("updates must be (n_selected, d)")
    if u.shape[1] != outcome.d:
        raise ValueError(f"update dimension {u.shape[1]} != power-controlled d={outcome.d}")
    gen = np.random.default_rng(rng)
    noise = gen.standard_normal(outcome.d) * np.sqrt(cfg.sigma2)
    return (u.sum(axis=0) + noise / np.sqrt(outcome.eta)) / s
