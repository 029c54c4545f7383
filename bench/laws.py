"""Reference laws that the benchmark checks fluidfed's outputs against.

Written in plain Python from the model definitions, not imported from the
package, so a wrong closed form in the package shows up as a mismatch.

Port gains are Exp(1); a user's best port is the largest of its N gains.
Variants are named as the package labels them in its output files:
``independent``, ``fpa`` (all ports equal) and ``clayton-<beta>``.

Band half-widths
----------------
dkw_epsilon: Dvoretzky-Kiefer-Wolfowitz with Massart's constant,
    P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2).  It holds for any F,
    discrete laws included, and for a single probability it is Hoeffding's
    bound, so it also bands a lone proportion.
kendall_epsilon: Hoeffding's bound for a U-statistic of order 2 with a
    kernel in [-1, 1], P(|tau_n - tau| >= eps) <= 2 exp(-(n // 2) eps^2 / 2).
"""

from __future__ import annotations

import math


def clayton_beta(variant: str) -> float | None:
    if variant.startswith("clayton-"):
        return float(variant[len("clayton-"):])
    return None


def best_gain_cdf(x: float, n_ports: int, variant: str) -> float:
    """P(best-port gain <= x) for n_ports Exp(1) gains under ``variant``."""
    u = -math.expm1(-x)
    if variant == "fpa" or n_ports == 1:
        return u
    if variant == "independent":
        return u**n_ports
    beta = clayton_beta(variant)
    if beta is None:
        raise ValueError(f"no reference law for variant {variant!r}")
    if u == 0.0:
        return 0.0
    # the Clayton copula on its diagonal: C(u, ..., u)
    return (n_ports * u**-beta - (n_ports - 1)) ** (-1.0 / beta)


def binom_pmf(k: int, q: float) -> list[float]:
    """Binomial(k, q) probabilities of 0..k."""
    if q <= 0.0:
        return [1.0] + [0.0] * k
    if q >= 1.0:
        return [0.0] * k + [1.0]
    lq, lp = math.log(q), math.log1p(-q)
    lk = math.lgamma(k + 1)
    return [
        math.exp(lk - math.lgamma(i + 1) - math.lgamma(k - i + 1) + i * lq + (k - i) * lp)
        for i in range(k + 1)
    ]


def mse_cdf(tau: float, n_users: int, n_ports: int, s_target: int, p_max: float,
            variant: str) -> float:
    """P(S-th smallest of the K scores 1/(p_max * best gain) < tau)."""
    q = 1.0 - best_gain_cdf(1.0 / (p_max * tau), n_ports, variant)
    return min(1.0, sum(binom_pmf(n_users, q)[s_target:]))


def participation_cdf(n_users: int, n_ports: int, threshold: float,
                      variant: str) -> list[float]:
    """P(at most s of K users reach ``threshold``), s = 0..K."""
    q = 1.0 - best_gain_cdf(threshold, n_ports, variant)
    out, acc = [], 0.0
    for p in binom_pmf(n_users, q):
        acc += p
        out.append(min(acc, 1.0))
    return out


def full_participation(n_users: int, n_ports: int, threshold: float,
                       variant: str) -> float:
    """P(all K users reach ``threshold``) with n_ports ports each."""
    return (1.0 - best_gain_cdf(threshold, n_ports, variant)) ** n_users


def dkw_epsilon(n: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def kendall_epsilon(n: int, alpha: float) -> float:
    return math.sqrt(2.0 * math.log(2.0 / alpha) / (n // 2))
