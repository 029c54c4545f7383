"""Closed-form laws for best-port gains, participation, and convergence.

For Clayton-coupled Exp(1) ports the best-port power gain has CDF

    F(x) = ( N * (1 - e^-x)^-beta - N + 1 )^(-1/beta),

evaluated here in the equivalent stable form
m * (N - (N-1) * m^beta)^(-1/beta) with m = 1 - e^-x, which has no
singularity at x = 0 and degenerates correctly: m^N as beta -> 0
(independent ports) and m as beta -> inf (fully dependent ports, the
fixed-antenna case).

Downstream laws are binomial in the per-user qualify probability
q = 1 - F(threshold):

* normalized aggregation-error CDF at target rank S (the S-th order
  statistic of the per-user error scores over K users):
  Pr(Bin(K, q) >= S) with threshold x = 1/(p_max * tau);
* participation count PMF: Binomial(K, q) with threshold
  x = sigma2/(p_max * tau).

Binomial terms are computed in the log domain (gammaln) and accumulated
smallest-first with exact summation.

`optimality_gap_trajectory` evaluates the per-round contraction bound
psi^T * gap_1 + sum_t psi^(T-t) * residual_t with psi = 1 - lr * pl_constant
and residual_t combining the partial-participation penalty, the minibatch
gradient-variance term, and the round's aggregation MSE.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.special import gammaln

from .channel import Clayton, Independent, PerfectDependence

__all__ = [
    "GainDistribution",
    "ConvergenceConstants",
    "channel_gain_cdf",
    "qualify_probability",
    "normalized_mse_cdf",
    "participation_pmf_vector",
    "order_statistic_cdf_oracle",
    "round_residual",
    "optimality_gap_trajectory",
]

ClosedFormDependence = Union[Independent, Clayton, PerfectDependence]


@dataclass(frozen=True)
class GainDistribution:
    """Best-port gain law: N ports under a closed-form dependence model."""

    n_ports: int
    dependence: ClosedFormDependence = field(default_factory=Independent)

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if not isinstance(
            self.dependence, (Independent, Clayton, PerfectDependence)
        ):
            raise TypeError(
                "closed forms exist for Independent, Clayton, and "
                "PerfectDependence only"
            )


def channel_gain_cdf(dist: GainDistribution, x) -> np.ndarray | float:
    """CDF of the best-port power gain, vectorized over x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain threshold x must be >= 0")
    m = np.atleast_1d(-np.expm1(-arr))
    dep = dist.dependence
    n = dist.n_ports
    if isinstance(dep, PerfectDependence) or n == 1:
        out = m.copy()
    elif isinstance(dep, Independent):
        out = m**n
    else:
        # stable Clayton form: m * (N - (N-1) m^beta)^(-1/beta), via
        # expm1/log1p so both beta extremes keep full precision
        beta = dep.beta
        out = np.zeros_like(m)
        pos = m > 0
        mp = m[pos]
        spread = (n - 1) * (-np.expm1(beta * np.log(mp)))
        out[pos] = mp * np.exp(-np.log1p(spread) / beta)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def qualify_probability(dist: GainDistribution, threshold: float) -> float:
    """Probability a user's best-port gain reaches ``threshold``."""
    if not (threshold >= 0) or not np.isfinite(threshold):
        raise ValueError("threshold must be finite and >= 0")
    return 1.0 - float(channel_gain_cdf(dist, threshold))


def _log_binom(k: int, i: np.ndarray) -> np.ndarray:
    return gammaln(k + 1) - gammaln(i + 1) - gammaln(k - i + 1)


def _binom_pmf(k: int, i: np.ndarray, q: float) -> np.ndarray:
    """Binomial pmf terms via log-domain evaluation, q in (0, 1)."""
    logp = _log_binom(k, i) + i * math.log(q) + (k - i) * math.log1p(-q)
    return np.exp(logp)


def _binom_tail_at_least(k: int, s: int, q: float) -> float:
    """Pr(Bin(k, q) >= s), summing the shorter tail smallest-first."""
    if s <= 0:
        return 1.0
    if s > k:
        return 0.0
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    lower = np.arange(0, s)
    upper = np.arange(s, k + 1)
    if upper.size <= lower.size:
        terms = np.sort(_binom_pmf(k, upper, q))
        return min(1.0, math.fsum(terms))
    terms = np.sort(_binom_pmf(k, lower, q))
    return max(0.0, 1.0 - math.fsum(terms))


def _check_system(k: int, p_max: float, tau: float) -> None:
    if k < 1:
        raise ValueError("n_users must be >= 1")
    if not (p_max > 0):
        raise ValueError("p_max must be > 0")
    if not (tau > 0):
        raise ValueError("tau must be > 0")


def normalized_mse_cdf(
    dist: GainDistribution, n_users: int, s_target: int, p_max: float, tau
) -> np.ndarray | float:
    """CDF of the rank-S normalized aggregation error at threshold tau.

    The per-user error score is 1/(p_max * gain); with S participants the
    realized normalized error is the S-th smallest score among the K users,
    so Pr(error < tau) = Pr(Bin(K, q) >= S) with
    q = 1 - F_gain(1/(p_max * tau)).
    """
    _check_system(n_users, p_max, 1.0)
    if not (1 <= s_target <= n_users):
        raise ValueError("s_target must be in 1..n_users")
    taus = np.asarray(tau, dtype=float)
    if np.any(taus <= 0):
        raise ValueError("tau must be > 0")
    qs = 1.0 - channel_gain_cdf(dist, 1.0 / (p_max * taus))
    if taus.ndim == 0:
        return _binom_tail_at_least(n_users, s_target, float(qs))
    return np.array(
        [_binom_tail_at_least(n_users, s_target, float(q)) for q in qs]
    )


def participation_pmf_vector(
    dist: GainDistribution, n_users: int, p_max: float, sigma2: float, tau: float
) -> np.ndarray:
    """Full participation PMF over s = 0..K (sums to 1)."""
    _check_system(n_users, p_max, tau)
    if not (sigma2 > 0):
        raise ValueError("sigma2 must be > 0")
    q = qualify_probability(dist, sigma2 / (p_max * tau))
    s = np.arange(n_users + 1)
    if q <= 0.0:
        out = np.zeros(n_users + 1)
        out[0] = 1.0
        return out
    if q >= 1.0:
        out = np.zeros(n_users + 1)
        out[-1] = 1.0
        return out
    return _binom_pmf(n_users, s, q)


def order_statistic_cdf_oracle(
    effective_gains: np.ndarray, s_target: int, p_max: float, tau: float
) -> float:
    """Brute-force check of `normalized_mse_cdf` from sampled gains.

    ``effective_gains`` is an (M, K) array of per-trial best-port gains.
    Each trial's error scores 1/(p_max * gain) are sorted and the frequency
    of (S-th smallest) < tau is returned.
    """
    g = np.asarray(effective_gains, dtype=float)
    if g.ndim != 2:
        raise ValueError("effective_gains must be (trials, n_users)")
    if not (1 <= s_target <= g.shape[1]):
        raise ValueError("s_target must be in 1..n_users")
    _check_system(g.shape[1], p_max, tau)
    theta = 1.0 / (p_max * g)
    ranked = np.sort(theta, axis=1)[:, s_target - 1]
    return float(np.mean(ranked < tau))


# ----------------------------------------------------------------------
# convergence bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceConstants:
    """Problem constants for the optimality-gap contraction bound.

    lr: server/client step size (gamma), in (0, 1)
    pl_constant: gradient-dominance (PL) constant mu > 0
    smoothness: gradient Lipschitz constant L > 0
    grad_norm_bound: squared-gradient bound kappa >= 0
    grad_variance: per-sample stochastic-gradient variance bound >= 0
    batch_sizes: minibatch size, one int for all users or one per user
    n_users: total user count K
    """

    lr: float
    pl_constant: float
    smoothness: float
    grad_norm_bound: float
    grad_variance: float
    batch_sizes: Union[int, Sequence[int]]
    n_users: int

    def __post_init__(self):
        if not (0 < self.lr < 1):
            raise ValueError("lr must be in (0, 1)")
        if not (self.pl_constant > 0):
            raise ValueError("pl_constant must be > 0")
        if not (self.smoothness > 0):
            raise ValueError("smoothness must be > 0")
        if self.grad_norm_bound < 0 or self.grad_variance < 0:
            raise ValueError("variance/norm bounds must be >= 0")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        sizes = np.atleast_1d(np.asarray(self.batch_sizes))
        if np.any(sizes < 1):
            raise ValueError("batch sizes must be >= 1")
        psi = self.psi
        if not (abs(psi) < 1):
            warnings.warn(
                f"contraction factor psi={psi:.4g} is not inside (-1, 1); "
                "the bound will not shrink",
                stacklevel=2,
            )

    @property
    def psi(self) -> float:
        return 1.0 - self.lr * self.pl_constant

    def mean_inverse_batch(self) -> float:
        sizes = np.atleast_1d(np.asarray(self.batch_sizes, dtype=float))
        return float(np.mean(1.0 / sizes))


def round_residual(
    constants: ConvergenceConstants, participants: int, mse: float
) -> float:
    """Per-round additive residual of the contraction bound.

    Three parts: the partial-participation penalty
    2*lr*kappa*(1 - S/K)^2, the minibatch-noise term
    lr^2 * L / S^2 * sum_{k in S} grad_variance/batch_k (the sum taken as
    S * mean(grad_variance/batch) since the schedule records only the
    participant count; exact for uniform batch sizes), and the
    aggregation-error term (L/2) * mse.
    """
    if not (1 <= participants <= constants.n_users):
        raise ValueError("participants must be in 1..n_users")
    if mse < 0:
        raise ValueError("mse must be >= 0")
    c = constants
    drop = 2.0 * c.lr * c.grad_norm_bound * (1.0 - participants / c.n_users) ** 2
    grad_sum = participants * c.grad_variance * c.mean_inverse_batch()
    noise = (c.lr**2) * c.smoothness / participants**2 * grad_sum
    return drop + noise + (c.smoothness / 2.0) * mse


def optimality_gap_trajectory(
    constants: ConvergenceConstants,
    schedule: Sequence[tuple[int, float]],
    first_round_gap: float,
) -> np.ndarray:
    """Bound value after each round t = 1..T; the last entry is the final bound.

    ``schedule`` is a non-empty sequence of (participants, mse) per round.
    Uses the recurrence bound_t = psi * bound_{t-1} + residual_t with
    bound_0 = first_round_gap.  A round with participants = 0 (nobody
    passed the threshold, so the model did not move) neither contracts nor
    adds residual: bound_t = bound_{t-1}.
    """
    if len(schedule) == 0:
        raise ValueError("schedule must contain at least one round")
    if first_round_gap < 0:
        raise ValueError("first_round_gap must be >= 0")
    psi = constants.psi
    out = np.empty(len(schedule))
    running = first_round_gap
    for t, (participants, mse) in enumerate(schedule):
        if participants == 0:
            out[t] = running
            continue
        running = psi * running + round_residual(constants, participants, mse)
        out[t] = running
    return out
