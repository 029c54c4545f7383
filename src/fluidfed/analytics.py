"""Closed-form laws for best-port gains, participation, and convergence.

For Clayton-coupled Exp(1) ports the best-port power gain has CDF

    F(x) = ( N * (1 - e^-x)^-beta - N + 1 )^(-1/beta),

which degenerates to m^N as beta -> 0 (independent ports) and to m as
beta -> inf (fully dependent ports, the fixed-antenna case), with
m = 1 - e^-x.  One function, ``_log_cdf``, evaluates log F for the three
dependence models, in the stable form
log m - log1p((N-1) * (1 - m^beta)) / beta with log m from
``channel.log1mexp``, which keeps its digits; it is -inf at x = 0.
Every law below is read off that one log F:

* the best-port CDF F = exp(log F);
* the per-user qualify probability q = 1 - F(threshold) = -expm1(log F),
  which keeps its relative precision where F rounds to 1;
* the normalized aggregation-error CDF at target rank S (the S-th order
  statistic of the per-user error scores over K users):
  Pr(Bin(K, q) >= S) = I_q(S, K - S + 1), the regularized incomplete
  beta function, with threshold x = 1/(p_max * tau);
* the participation count PMF, Binomial(K, q) in the log domain:
  log C(K, s) + s log q + (K - s) log F, so the lower tail keeps its
  relative precision where q rounds to 1; the threshold is a link's
  x = ota.gain_threshold(link) = sigma2/(p_max * tau), and
  ota.OtaConfig checks the link, not this module.

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
from scipy.special import betainc, gammaln, xlogy

from .channel import Clayton, Independent, PerfectDependence, log1mexp

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


def _log_cdf(dist: GainDistribution, x) -> np.ndarray:
    """log F(x) of the best-port gain, shaped like x; -inf at x = 0."""
    log_m = log1mexp(x)
    dep, n = dist.dependence, dist.n_ports
    if isinstance(dep, PerfectDependence):
        return log_m
    if isinstance(dep, Independent):
        return n * log_m
    # stable Clayton form log m - log(N - (N-1) m^beta) / beta, via
    # expm1/log1p so both beta extremes keep full precision
    spread = (n - 1) * (-np.expm1(dep.beta * log_m))
    return log_m - np.log1p(spread) / dep.beta


def channel_gain_cdf(dist: GainDistribution, x) -> np.ndarray | float:
    """CDF of the best-port power gain, vectorized over x >= 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("gain threshold x must be >= 0")
    out = np.exp(_log_cdf(dist, arr))
    return float(out) if arr.ndim == 0 else out


def qualify_probability(dist: GainDistribution, threshold: float) -> float:
    """Probability a user's best-port gain reaches ``threshold``."""
    if not (threshold >= 0) or not np.isfinite(threshold):
        raise ValueError("threshold must be finite and >= 0")
    return float(-np.expm1(_log_cdf(dist, threshold)))


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
    q = -np.expm1(_log_cdf(dist, 1.0 / (p_max * taus)))
    out = betainc(s_target, n_users - s_target + 1, q)
    return float(out) if taus.ndim == 0 else out


def participation_pmf_vector(
    dist: GainDistribution, n_users: int, threshold: float
) -> np.ndarray:
    """Full participation PMF over s = 0..K (sums to 1) at gain ``threshold``."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    q = qualify_probability(dist, threshold)  # also checks threshold
    s = np.arange(n_users + 1)
    log_binom = gammaln(n_users + 1) - gammaln(s + 1) - gammaln(n_users - s + 1)
    # (K - s) log(1 - q) as (K - s) log F, exactly 0 at s = K even where F = 0
    rest = np.multiply(n_users - s, float(_log_cdf(dist, threshold)),
                       out=np.zeros(n_users + 1), where=s < n_users)
    return np.exp(log_binom + xlogy(s, q) + rest)


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
    batch_size: minibatch size of every user, >= 1
    n_users: total user count K
    """

    lr: float
    pl_constant: float
    smoothness: float
    grad_norm_bound: float
    grad_variance: float
    batch_size: int
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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


def round_residual(
    constants: ConvergenceConstants, participants: int, mse: float
) -> float:
    """Per-round additive residual of the contraction bound.

    Three parts: the partial-participation penalty
    2*lr*kappa*(1 - S/K)^2, the minibatch-noise term
    lr^2 * L / S^2 * S * grad_variance / batch, and the aggregation-error
    term (L/2) * mse.
    """
    if not (1 <= participants <= constants.n_users):
        raise ValueError("participants must be in 1..n_users")
    if mse < 0:
        raise ValueError("mse must be >= 0")
    c = constants
    drop = 2.0 * c.lr * c.grad_norm_bound * (1.0 - participants / c.n_users) ** 2
    grad_sum = participants * c.grad_variance * (1.0 / c.batch_size)
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
