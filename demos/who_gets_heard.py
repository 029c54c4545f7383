"""How many users clear the power check each round, and why.

A user transmits only if its best-port gain beats sigma2 / (p_max * tau):
below that, hitting the error target would take more transmit power than
the budget allows.  The count of clearing users is Binomial(K, q), with q
read straight off the best-gain CDF.  We print the analytic PMF against a
simulated histogram for two coupling strengths, then sweep the error
target tau to show the participation cliff.
"""

from dataclasses import replace

import numpy as np

from fluidfed.analytics import (
    GainDistribution,
    participation_pmf_vector,
    qualify_probability,
)
from fluidfed.channel import Clayton, Independent, sample_best_gains
from fluidfed.ota import OtaConfig, gain_threshold

K = 16          # users
N = 8           # ports each
LINK = OtaConfig(p_max=0.01, sigma2=1e-3, tau=0.05)  # p_max in watts (10 dBm)
TRIALS = 30000


def empirical_pmf(dep, thr, rng):
    best = sample_best_gains(dep, TRIALS * K, N, rng).reshape(TRIALS, K)
    return np.bincount((best >= thr).sum(axis=1), minlength=K + 1) / TRIALS


def main():
    rng = np.random.default_rng(11)
    thr = gain_threshold(LINK)
    print(f"K={K} users, N={N} ports, tau={LINK.tau}, threshold={thr:.2f}\n")

    for label, dep in [("independent", Independent()), ("clayton beta=3", Clayton(3.0))]:
        dist = GainDistribution(N, dep)
        q = qualify_probability(dist, thr)
        pmf = participation_pmf_vector(dist, K, thr)
        emp = empirical_pmf(dep, thr, rng)
        print(f"{label}: per-user qualify probability q = {q:.4f}")
        print("  #users   analytic  simulated")
        for s in range(K + 1):
            if pmf[s] < 5e-4 and emp[s] < 5e-4:
                continue
            print(f"    {s:3d}    {pmf[s]:8.4f}   {emp[s]:8.4f}")
        print(f"  mean participants: analytic {K * q:.2f}, "
              f"simulated {np.dot(np.arange(K + 1), emp):.2f}\n")

    # tighten the error target and watch participation collapse
    print("mean participants vs error target (independent ports):")
    dist = GainDistribution(N, Independent())
    for tau in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
        q = qualify_probability(dist, gain_threshold(replace(LINK, tau=tau)))
        print(f"  tau={tau:<5g}  E[participants] = {K * q:6.2f}")


if __name__ == "__main__":
    main()
