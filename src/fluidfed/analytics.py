"""Closed-form laws for best-port gains, participation, and convergence.

For Clayton-coupled Exp(1) ports the best-port power gain has CDF

    F(x) = ( N * (1 - e^-x)^-beta - N + 1 )^(-1/beta),

evaluated here in the equivalent stable form
m * (N - (N-1) * m^beta)^(-1/beta) with m = 1 - e^-x, which has no
singularity at x = 0 and degenerates correctly: m^N as beta -> 0
(independent ports) and m as beta -> inf (fully dependent ports, the
fixed-antenna case).

Downstream laws are binomial in the per-user qualify probability
q = 1 - F(threshold), taken as the survival form -expm1(log F) so it
keeps its relative precision where F rounds to 1:

* normalized aggregation-error CDF at target rank S (the S-th order
  statistic of the per-user error scores over K users):
  Pr(Bin(K, q) >= S) = I_q(S, K - S + 1), the regularized incomplete
  beta function, with threshold x = 1/(p_max * tau);
* participation count PMF: Binomial(K, q) in the log domain (gammaln,
  xlogy, xlog1py) at a link's threshold x = ota.gain_threshold(link) =
  sigma2/(p_max * tau); ota.OtaConfig checks the link, not this module.

`optimality_gap_trajectory` evaluates the per-round contraction bound
psi^T * gap_1 + sum_t psi^(T-t) * residual_t with psi = 1 - lr * pl_constant
and residual_t combining the partial-participation penalty, the minibatch
gradient-variance term, and the round's aggregation MSE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.special import betainc, gammaln, xlog1py, xlogy

from .channel import Clayton, Independent, PerfectDependence

__all__ = [
    "GainDistribution",
    "ConvergenceConstants",
    "channel_gain_cdf",
    "qualify_probability",
    "normalized_mse_cdf",
    "participation_pmf_vector",
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


def _survival(dist: GainDistribution, x) -> np.ndarray:
    """1 - F(x) of the best-port gain as -expm1(log F(x)), shaped like x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):  # log F(0) = -inf gives 1 - F = 1
        log_m = np.where(
            x < np.log(2.0), np.log(-np.expm1(-x)), np.log1p(-np.exp(-x))
        )
    dep, n = dist.dependence, dist.n_ports
    if isinstance(dep, PerfectDependence):
        log_f = log_m
    elif isinstance(dep, Independent):
        log_f = n * log_m
    else:
        spread = (n - 1) * (-np.expm1(dep.beta * log_m))
        log_f = log_m - np.log1p(spread) / dep.beta
    return -np.expm1(log_f)


def qualify_probability(dist: GainDistribution, threshold: float) -> float:
    """Probability a user's best-port gain reaches ``threshold``."""
    if not (threshold >= 0) or not np.isfinite(threshold):
        raise ValueError("threshold must be finite and >= 0")
    return float(_survival(dist, threshold))


def normalized_mse_cdf(
    dist: GainDistribution, n_users: int, s_target: int, p_max: float, tau
) -> np.ndarray | float:
    """CDF of the rank-S normalized aggregation error at threshold tau.

    The per-user error score is 1/(p_max * gain); with S participants the
    realized normalized error is the S-th smallest score among the K users,
    so Pr(error < tau) = Pr(Bin(K, q) >= S) with
    q = 1 - F_gain(1/(p_max * tau)).
    """
    if not (p_max > 0):
        raise ValueError("p_max must be > 0")
    if not (1 <= s_target <= n_users):
        raise ValueError("s_target must be in 1..n_users")
    taus = np.asarray(tau, dtype=float)
    if np.any(taus <= 0):
        raise ValueError("tau must be > 0")
    q = _survival(dist, 1.0 / (p_max * taus))
    out = betainc(s_target, n_users - s_target + 1, q)
    return float(out) if taus.ndim == 0 else out


def participation_pmf_vector(
    dist: GainDistribution, n_users: int, threshold: float
) -> np.ndarray:
    """Full participation PMF over s = 0..K (sums to 1) at gain ``threshold``."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    q = qualify_probability(dist, threshold)
    s = np.arange(n_users + 1)
    log_binom = gammaln(n_users + 1) - gammaln(s + 1) - gammaln(n_users - s + 1)
    return np.exp(log_binom + xlogy(s, q) + xlog1py(n_users - s, -q))


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
        for name in ("grad_norm_bound", "grad_variance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        sizes = np.atleast_1d(np.asarray(self.batch_sizes))
        if np.any(sizes < 1):
            raise ValueError("batch_sizes must be >= 1")
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
