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
  Pr(Bin(K, q) >= S), with threshold x = 1/(p_max * tau);
* the participation count PMF, Binomial(K, q); the threshold is a
  link's x = ota.gain_threshold(link) = sigma2/(p_max * tau), and
  ota.OtaConfig checks the link, not this module.

Both binomial laws take q and F = 1 - q each from log F, so either keeps
its relative precision where the other rounds to 1.  The PMF is Loader's
saddle-point form (Loader 2000, "Fast and accurate computation of
binomial probabilities"): Stirling-series remainders and the deviance
term bd0, each good to a few ulp, with no cancellation between large
log-factorials.  ``binomial_tails`` sums the tail on the far side of the
mean from one such PMF by term ratios, which fall geometrically once past
the mode; the near side is its complement, never below about 1/2.  The
Monte-Carlo gate takes its exact binomial p-values from the same routine.

`optimality_gap_trajectory` evaluates the per-round contraction bound
psi^T * gap_1 + sum_t psi^(T-t) * residual_t with psi = 1 - lr * pl_constant
in [0, 1) and residual_t combining the partial-participation penalty, the
minibatch gradient-variance term, and the round's aggregation MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .channel import Clayton, Independent, PerfectDependence, log1mexp

__all__ = [
    "GainDistribution",
    "ConvergenceConstants",
    "channel_gain_cdf",
    "qualify_probability",
    "normalized_mse_cdf",
    "participation_pmf_vector",
    "binomial_tails",
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


# ----------------------------------------------------------------------
# binomial law (Loader 2000)
# ----------------------------------------------------------------------

_LN_2PI = math.log(2.0 * math.pi)
# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15 (0 at n = 0)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# the Stirling series 1/12n - 1/360n^3 + 1/1260n^5 - 1/1680n^7 + 1/1188n^9
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Loader's stirlerr(n) for integer n >= 0: a table to 15, the series above."""
    with np.errstate(divide="ignore"):
        nn = n * n
        series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(int)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Loader's deviance term x ln(x/m) + m - x for x, m > 0, by its series
    in v = (x - m)/(x + m) where |v| < 0.1, so it keeps relative precision
    as x nears m."""
    with np.errstate(all="ignore"):  # x or m at 0 is the caller's edge case
        out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    if near.any():
        x, m = x[near], m[near]
        v = (x - m) / (x + m)
        s, term, v2 = (x - m) * v, 2.0 * x * v, v * v
        for j in range(3, 1000, 2):  # |v| < 0.1: each term 100 times below the last
            term = term * v2
            nxt = s + term / j
            if np.array_equal(nxt, s):
                break
            s = nxt
        out[near] = s
    return out


def _flat(k, p, q):
    """The shape k, p and q broadcast to, and each as a flat float array."""
    k, p, q = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (k, p, q)))
    return k.shape, k.ravel(), p.ravel(), q.ravel()


def _binomial_pmf(k, n: int, p, q) -> np.ndarray:
    """Pr(Bin(n, p) = k) for integer k in 0..n, with q = 1 - p given to its
    own precision.  Where p or q is 0, bd0 and the log of the edge term are
    infinite, so the law comes out one-hot."""
    shape, k, p, q = _flat(k, p, q)
    n_k = n - k
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = (_stirlerr(np.float64(n)) - _stirlerr(k) - _stirlerr(n_k)
                 - _bd0(k, n * p) - _bd0(n_k, n * q))
        log_f = _LN_2PI + np.log(k) + np.log1p(-k / n)
        inner = np.exp(log_c - 0.5 * log_f)
        edge = np.exp(n * np.log(np.where(k == 0, q, p)))  # q^n at k = 0, p^n at k = n
    return np.where((k > 0) & (n_k > 0), inner, edge).reshape(shape)


def _far_tail_ratio(k: np.ndarray, n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_{j >= 1} Pr(X = k + j) / Pr(X = k) for X ~ Bin(n, p), k >= np,
    from the term ratios (n - i)/(i + 1) * p/q, i = k, k + 1, ...

    The sum stops 40 + 10 sd terms past k.  From k >= np the terms fall at
    least as fast as in a tail from the mean, where the term that far out
    is below e^-50 of the first (Bernstein's inequality), so the terms left
    out are below rounding.
    """
    width = 40 + int(10.0 * math.sqrt(n * float(np.max(p * q, initial=0.0))))
    with np.errstate(divide="ignore", over="ignore"):
        # finite, so the ratio at i = n is 0: odds overflow only where k = n
        odds = np.minimum(p / q, np.finfo(float).max)[:, None]
        i = k[:, None] + np.arange(min(width, n))
        ratio = (n - i) / (i + 1.0) * odds
    np.maximum(ratio, 0.0, out=ratio)  # the terms past k = n
    return np.cumprod(ratio, axis=1, out=ratio).sum(axis=1)


def binomial_tails(k, n: int, p, q) -> tuple[np.ndarray, np.ndarray]:
    """(Pr(X <= k), Pr(X >= k)) for X ~ Bin(n, p), elementwise over integer
    k in 0..n, with q = 1 - p given to its own precision.

    The tail beyond k away from the mean is summed from the PMF at k
    (``_far_tail_ratio``); the other is 1 minus the first without its term
    at k.  Past the mean the far tail is Pr(X >= k) and Pr(X <= k) >= 1/2,
    since the median is floor(np) or ceil(np), so the subtraction keeps the
    small tail's relative precision; below the mean the roles swap, through
    n - X ~ Bin(n, q).  Both tails are exact at p or q = 0.
    """
    shape, k, p, q = _flat(k, p, q)
    upper = k >= n * p
    k_far, p_far, q_far = np.where(upper, k, n - k), np.where(upper, p, q), np.where(upper, q, p)
    at_k = _binomial_pmf(k_far, n, p_far, q_far)
    beyond = at_k * _far_tail_ratio(k_far, n, p_far, q_far)
    far, near = at_k + beyond, 1.0 - beyond
    return (np.where(upper, near, far).reshape(shape),
            np.where(upper, far, near).reshape(shape))


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
    log_f = _log_cdf(dist, 1.0 / (p_max * taus))
    out = binomial_tails(s_target, n_users, -np.expm1(log_f), np.exp(log_f))[1]
    return float(out) if taus.ndim == 0 else out


def participation_pmf_vector(
    dist: GainDistribution, n_users: int, threshold: float
) -> np.ndarray:
    """Full participation PMF over s = 0..K (sums to 1) at gain ``threshold``."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    q = qualify_probability(dist, threshold)  # also checks threshold
    f = math.exp(float(_log_cdf(dist, threshold)))
    return _binomial_pmf(np.arange(n_users + 1), n_users, q, f)


# ----------------------------------------------------------------------
# convergence bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceConstants:
    """Problem constants for the optimality-gap contraction bound.

    lr: server/client step size (gamma), in (0, 1)
    pl_constant: gradient-dominance (PL) constant mu > 0, with the
        contraction factor psi = 1 - lr * mu in [0, 1)
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
        # a negative psi lets the recursion undershoot the gap, or alternate
        # in sign; psi rounds to 1 only when lr * pl_constant < 2**-53
        if not (0 <= self.psi < 1):
            raise ValueError(f"pl_constant makes psi = 1 - lr * pl_constant = {self.psi:.4g}, "
                             "outside [0, 1)")

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
    adds residual: bound_t = bound_{t-1}.  A value that overflows raises
    ValueError.
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
        if not math.isfinite(running):
            raise ValueError(f"the bound overflows at round {t + 1}")
        out[t] = running
    return out
