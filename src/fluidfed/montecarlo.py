"""Monte Carlo experiments that check the closed forms against simulation.

Each experiment draws channel realizations, computes an empirical law, and
compares it to the matching closed form point by point.  Every grid point
is an exact two-sided binomial test of its count under Bin(trials, p) at
the analytic probability p.  The tests are Bonferroni-corrected over
points x variants, so all checks of one experiment call together raise a
false alarm on correct code with probability at most FAMILY_ALPHA (the
participation mean checks count as one more point per variant); reports
record it as meta["family_alpha"] and aggregate the points and the sup gap.

Determinism: trials run in fixed-size blocks of
max(1, BLOCK_VALUES // (K * n)) trials, n being the number of ports
sampled per user.  Block b of variant v draws from
SeedSequence(seed).spawn(V)[v].spawn(n_blocks)[b] with one sampler call
for (rows * K) users of n ports, reduced to integer counts per grid
point.  The layout depends only on (seed, K, n, trials).  The CDF and PMF
experiments draw each block's best-port gains through
``sample_best_gains``, the port sweep each user's first port that reaches
the threshold through ``first_qualifying_port``: the reduced gain matrix
in law, not bit for bit.

Experiments
-----------
``McPlan.variants`` holds dependence specs, DEFAULT_VARIANTS unless set.
The three comparisons return {spec.label: ComparisonReport}, and the
copula diagnostics key each beta by ``Clayton(beta).label``, so McPlan
rejects two variants, or two diagnosed betas, that share a label.  Each
grid point carries its closed-form value as ``GridPointCheck.analytic``.
Both report types give their verdict as ``failures()``, one ``FAIL`` line
per failing check, worded as the CLI prints it; ``all_pass`` holds when it
is empty, and the comparisons' ``failing_points`` telemetry counts it.

run_mse_cdf_experiment : CDF of the rank-S normalized aggregation error
run_participation_experiment : PMF of the participant count
run_port_sweep : full-participation probability vs port count (per trial
    first qualifying ports are drawn once at the largest N and each n asks
    which are below n; the latent-frailty construction is margin-consistent,
    so that is exactly the n-port law and the empirical sweep is monotone)
run_copula_diagnostics : marginal KS checks (Bonferroni-corrected over
    ports x betas at FAMILY_ALPHA), Kendall-tau identity, max-gain CDF
    check, and a Bessel-correlated cross-comparison

The module runs on numpy alone, and the diagnostics are sort-bound on
contiguous rows.  The gate's binomial tails are
``analytics.binomial_tails`` (Loader 2000).  ``kstest`` sorts each
column as a row of the transposed block and evaluates the Exp(1) CDF as
-expm1(-g) over the whole sorted block, as ``scipy.stats.kstest`` does
(numpy's expm1, within an ulp of scipy's); it reports Massart's DKW bound
as its p-value, a valid p-value at every sample size.  ``kendalltau`` sorts
and counts (Knight 1966) for samples without ties, as the continuous gains
are, bit for bit scipy's tau-b, and gives NaN on a tie.  The max-gain CDF
counts are the grid's insertion points in the sorted row maxima.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import forked
from .analytics import (
    GainDistribution,
    binomial_tails,
    channel_gain_cdf,
    normalized_mse_cdf,
    participation_pmf_vector,
    qualify_probability,
)
from .channel import (
    Clayton,
    GaussianJakes,
    Independent,
    PerfectDependence,
    first_qualifying_port,
    sample_best_gains,
    sample_port_gains,
)
from .ota import OtaConfig, gain_threshold

__all__ = [
    "BLOCK_VALUES",
    "FAMILY_ALPHA",
    "McPlan",
    "GridPointCheck",
    "ComparisonReport",
    "CopulaDiagnostics",
    "trial_streams",
    "DEFAULT_VARIANTS",
    "run_mse_cdf_experiment",
    "run_participation_experiment",
    "run_port_sweep",
    "run_copula_diagnostics",
    "kstest",
    "kendalltau",
]

# gain values drawn per sampler call (trials per block x K x ports)
BLOCK_VALUES = 1 << 16
FAMILY_ALPHA = 1e-3
DEFAULT_VARIANTS = (Independent(), Clayton(1.0), Clayton(2.0), PerfectDependence())


@dataclass
class McPlan:
    """Experiment sizing, system parameters (checked as ``link``), grids, and variants."""

    n_users: int = 20
    n_ports: int = 10
    p_max: float = 0.01
    sigma2: float = 1e-3
    tau: float = 0.05
    s_target: int = 15
    trials: int = 10_000
    seed: int = 0
    tau_grid: np.ndarray = field(
        default_factory=lambda: np.logspace(1.0, 4.0, 30)
    )
    n_grid: np.ndarray = field(default_factory=lambda: np.arange(1, 21))
    gain_grid: np.ndarray = field(
        default_factory=lambda: np.linspace(0.05, 6.0, 24)
    )
    variants: tuple = DEFAULT_VARIANTS
    diag_betas: tuple = (0.5, 1.0, 2.0, 5.0)
    diag_rows: int = 100_000
    jakes_aperture: float = 0.5

    def __post_init__(self):
        for name in ("n_users", "n_ports", "trials", "diag_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.link  # building the OtaConfig checks p_max, sigma2 and tau
        for name in ("tau_grid", "n_grid", "gain_grid", "variants", "diag_betas"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        if np.min(self.n_grid) < 1:
            raise ValueError("n_grid entries must be >= 1")
        if np.max(self.n_grid) >= np.iinfo(np.int64).max:  # the samplers need max + 1
            raise ValueError("n_grid entries must be < 2**63 - 1")
        if np.min(self.gain_grid) < 0:
            raise ValueError("gain_grid entries must be >= 0")
        for name in ("tau_grid", "gain_grid"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} entries must be finite")
        if not all(0 < b < np.inf for b in self.diag_betas):
            raise ValueError("diag_betas must be finite and > 0")
        for name, labels in (("variants", [dep.label for dep in self.variants]),
                             ("diag_betas", [Clayton(b).label for b in self.diag_betas])):
            for i, label in enumerate(labels):
                if label in labels[:i]:  # one report would silently replace the other
                    raise ValueError(f"{name} entry `{label}` is listed more than once")
        # the error CDF's largest gain argument must be finite; p_max is named
        # when it alone overflows it
        p_max, low = float(self.p_max), float(np.min(self.tau_grid))
        if not (p_max * low > 0 and np.isfinite(1.0 / (p_max * low))):
            name = "tau_grid" if np.isfinite(1.0 / p_max) else "p_max"
            raise ValueError(f"{name} makes 1/(p_max*min(tau_grid)) overflow")

    @property
    def link(self) -> OtaConfig:
        """The plan's link; building it checks (p_max, sigma2, tau)."""
        return OtaConfig(self.p_max, self.sigma2, self.tau)


@dataclass(frozen=True)
class GridPointCheck:
    x: float
    empirical: float
    analytic: float
    stderr: float
    passed: bool


@dataclass
class ComparisonReport:
    """Per-grid-point empirical-vs-analytic comparison.

    ``telemetry`` says how the simulation ran (seconds, blocks, trials,
    trials per second, failing points, sample_s and closed_form_s); it is
    kept out of ``to_json_dict`` and the grid points, so the written
    reports stay byte-identical.
    """

    label: str
    points: list
    meta: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)

    def failures(self) -> list:
        """The ``FAIL`` line of each failing grid point, then of a failing mean check."""
        lines = [f"FAIL {self.label}: x={p.x:g} empirical={p.empirical:.6g} "
                 f"analytic={p.analytic:.6g} stderr={p.stderr:.3g}"
                 for p in self.points if not p.passed]
        mean = self.meta.get("mean_check")
        if mean is not None and not mean["passed"]:
            lines.append(f"FAIL {self.label}: mean participation {mean['empirical_mean']:.4g} "
                         f"vs analytic {mean['analytic_mean']:.4g}")
        return lines

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    @property
    def sup_gap(self) -> float:
        return max(abs(p.empirical - p.analytic) for p in self.points)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "meta": self.meta,
            "sup_gap": self.sup_gap,
            "all_pass": self.all_pass,
            "points": [
                {
                    "x": p.x,
                    "empirical": p.empirical,
                    "analytic": p.analytic,
                    "stderr": p.stderr,
                    "pass": p.passed,
                }
                for p in self.points
            ],
        }


def _p_values(k, trials, p) -> np.ndarray:
    """Two-sided p-values min(1, 2 min(P[X <= k], P[X >= k])) of counts k
    under Bin(trials, p), from ``analytics.binomial_tails``."""
    at_most, at_least = binomial_tails(k, trials, p, 1.0 - p)
    return np.minimum(1.0, 2.0 * np.minimum(at_most, at_least))


def _check_points(xs, counts, analytic, trials, alpha) -> list:
    """Exact two-sided binomial test of each count under Bin(trials, analytic).

    A point passes when its ``_p_values`` entry exceeds alpha.  stderr is
    reported at the analytic probability, so it never degenerates when a
    count hits 0 or trials.
    """
    p = np.clip(np.asarray(analytic, dtype=float), 0.0, 1.0)
    k = np.asarray(counts)
    stderr = np.sqrt(p * (1.0 - p) / trials)
    return [
        GridPointCheck(float(x), float(c / trials), float(a), float(se), bool(pv > alpha))
        for x, c, a, se, pv in zip(xs, k, analytic, stderr, _p_values(k, trials, p))
    ]


def trial_streams(seed, blocks: int) -> list:
    """One RNG stream per trial block: SeedSequence(seed).spawn(blocks)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(blocks)


def _compare(plan, xs, n_sampled, draw, statistic, law, meta, mean_law=None) -> dict:
    """Variant, block streams, per-block counts, empirical law, report.

    Block b of a variant calls ``draw(dep, rows * K, n_sampled, stream b)``
    and hands its one value per user to ``statistic`` as (rows, K), which
    maps them to integer counts at ``xs``, so their sum is exact.
    ``law(dist)`` is the closed form there.  With ``mean_law`` the counts
    are a histogram over xs = 0..K, and their total is also checked against
    Bin(K * trials, mean_law(dist)).  Both closed forms, timed together as
    closed_form_s, run before the variant's first draw, so their argument
    checks fire before any sampling.  All checks share FAMILY_ALPHA.
    Returns {variant label: ComparisonReport}.
    """
    k = plan.n_users
    per = max(1, BLOCK_VALUES // (k * n_sampled))
    rows = [min(per, plan.trials - start) for start in range(0, plan.trials, per)]
    dists = [GainDistribution(plan.n_ports, dep) for dep in plan.variants]
    alpha = FAMILY_ALPHA / (len(dists) * (len(xs) + (mean_law is not None)))
    roots = np.random.SeedSequence(plan.seed).spawn(len(dists))
    out = {}
    for dep, dist, root in zip(plan.variants, dists, roots):
        t0 = time.perf_counter()
        analytic = law(dist)
        q = None if mean_law is None else mean_law(dist)
        closed_form_s = time.perf_counter() - t0
        counts, sample_s = 0, 0.0
        for n, stream in zip(rows, trial_streams(root, len(rows))):
            t1 = time.perf_counter()
            values = draw(dep, n * k, n_sampled, stream)
            sample_s += time.perf_counter() - t1
            counts = counts + statistic(values.reshape(n, k))
        report_meta = dict(meta, variant=dep.label, n_users=plan.n_users, trials=plan.trials,
                           seed=plan.seed, family_alpha=FAMILY_ALPHA)
        if mean_law is not None:
            heard = int(counts @ xs)
            (total,) = _check_points([0], [heard], [q], plan.n_users * plan.trials, alpha)
            report_meta["mean_check"] = {
                "empirical_mean": heard / plan.trials,
                "analytic_mean": plan.n_users * q,
                "stderr": float(np.sqrt(plan.n_users * q * (1.0 - q) / plan.trials)),
                "passed": total.passed,
            }
        points = _check_points(xs, counts, analytic, plan.trials, alpha)
        seconds = time.perf_counter() - t0
        report = out[dep.label] = ComparisonReport(dep.label, points, report_meta)
        report.telemetry = {
            "seconds": seconds,
            "blocks": len(rows),
            "trials": plan.trials,
            "trials_per_s": plan.trials / seconds if seconds > 0 else None,
            "failing_points": len(report.failures()),  # the mean check is one more point
            "sample_s": sample_s,
            "closed_form_s": closed_form_s,
        }
    return out


def run_mse_cdf_experiment(plan: McPlan) -> dict:
    """Empirical vs analytic CDF of the rank-S normalized error.

    Returns {variant label: ComparisonReport}.  Only this experiment reads
    ``plan.s_target``; the closed form checks it before any draw.
    """
    rank, grid = plan.s_target - 1, plan.tau_grid

    def below_tau(best):
        theta = 1.0 / (plan.p_max * best)
        score = np.partition(theta, rank, axis=1)[:, rank]
        return (score[:, None] < grid).sum(axis=0)

    def law(dist):
        return normalized_mse_cdf(dist, plan.n_users, plan.s_target, plan.p_max, grid)

    meta = {"experiment": "mse-cdf", "n_ports": plan.n_ports,
            "s_target": plan.s_target, "p_max": plan.p_max}
    return _compare(plan, grid, plan.n_ports, sample_best_gains, below_tau, law, meta)


def _threshold_meta(plan: McPlan, experiment: str) -> dict:
    return {"experiment": experiment, "p_max": plan.p_max, "sigma2": plan.sigma2,
            "tau": plan.tau, "threshold": gain_threshold(plan.link)}


def run_participation_experiment(plan: McPlan) -> dict:
    """Empirical vs analytic PMF of the participant count.

    Returns {variant label: ComparisonReport}.  Each report also carries a mean check: the total participant count of
    all trials vs Bin(K * trials, q), in meta["mean_check"].
    """
    meta = dict(_threshold_meta(plan, "participation"), n_ports=plan.n_ports)
    threshold = meta["threshold"]

    def histogram(best):
        heard = (best >= threshold).sum(axis=1)
        return np.bincount(heard, minlength=plan.n_users + 1)

    def law(dist):
        return participation_pmf_vector(dist, plan.n_users, threshold)

    return _compare(
        plan, np.arange(plan.n_users + 1), plan.n_ports, sample_best_gains, histogram,
        law, meta,
        mean_law=lambda dist: qualify_probability(dist, threshold),
    )


def run_port_sweep(plan: McPlan) -> dict:
    """Full-participation probability q(N)^K vs port count.

    Returns {variant label: ComparisonReport}.  Per trial, first qualifying
    ports are drawn once at max(n_grid): all users are heard at n ports iff
    each one's is below n (exact for margin-consistent variants).
    """
    meta = _threshold_meta(plan, "port-sweep")
    threshold = meta["threshold"]
    n_grid = np.asarray(plan.n_grid, dtype=int)

    def first_ports(dep, n_users, n_ports, rng):
        return first_qualifying_port(dep, n_users, n_ports, threshold, rng)

    def all_heard(first):
        return (first.max(axis=1)[:, None] < n_grid).sum(axis=0)

    def law(dist):
        return np.array([
            qualify_probability(GainDistribution(int(n), dist.dependence), threshold)
            ** plan.n_users
            for n in n_grid
        ])

    return _compare(plan, n_grid, int(n_grid.max()), first_ports, all_heard, law, meta)


def _ks_p_value(d: float, n: int) -> float:
    """Massart's two-sided DKW bound min(1, 2 exp(-2 n d^2)) on P(D_n >= d).

    It holds at every n for a continuous law (Massart 1990), so a gate
    that rejects at p <= alpha has a false-alarm rate of at most alpha.
    """
    return min(1.0, 2.0 * math.exp(-2.0 * n * d * d))


def kstest(gains: np.ndarray) -> tuple[float, float]:
    """Largest two-sided KS statistic of the columns of ``gains`` against
    Exp(1), and the smallest p-value, from one sort per column.

    Per column D is ``scipy.stats.kstest(column, "expon")``'s statistic,
    its D+ and D- on the CDF -expm1(-g), within an ulp of scipy's (numpy's
    expm1 and scipy's Cephes one may round the last bit apart).  One
    column at a time is copied into a column-sized buffer, sorted and
    mapped through the CDF there, so the caller's block is never sorted
    and no block-sized copy is made.  The p-value is Massart's bound
    (``_ks_p_value``), never below the exact Kolmogorov tail; it falls as
    D rises, so the largest D has the smallest p-value.
    """
    n = gains.shape[0]
    above, below = np.arange(1, n + 1) / n, np.arange(0, n) / n
    cdf, buf = np.empty(n), np.empty(n)  # one sorted column; its D+, then its D-
    extremes = []
    for column in gains.T:
        cdf[:] = column
        cdf.sort()
        np.negative(cdf, out=cdf)
        np.expm1(cdf, out=cdf)
        np.negative(cdf, out=cdf)
        extremes += [np.subtract(above, cdf, out=buf).max(), np.subtract(cdf, below, out=buf).max()]
    d = float(np.max(extremes))
    return d, _ks_p_value(d, n)


def _inversions(perm: np.ndarray) -> int:
    """Pairs i < j with perm[i] > perm[j], for a permutation of 0..n-1.

    Most significant bit first, on the values padded to 2**L with the
    largest ones at the end (they add no pair).  Before the pass for bit b
    the values stand stably sorted by value >> (b + 1), so each aligned row
    of 2**(b + 1) positions holds one such group in its original order.
    One int32 sort of (value >> b, index in row) partitions every row by
    bit b, zeros first; a row's k-th zero at index w was preceded by w - k
    ones, which are the pairs this bit decides.
    """
    levels = max(perm.size - 1, 0).bit_length()
    r = np.arange(1 << levels, dtype=np.int32)
    r[: perm.size] = perm
    pos = np.arange(r.size, dtype=np.int32)
    total = 0
    for b in reversed(range(levels)):
        half, mask = 1 << b, (2 << b) - 1
        key = r >> b
        key <<= b + 1
        key |= pos & mask
        key.sort()
        key &= mask  # each position's source index in its row
        rows = key.reshape(-1, 2 * half)
        total += int(rows[:, :half].sum(dtype=np.int64)) - rows.shape[0] * half * (half - 1) // 2
        if b:
            key |= pos & ~mask
            r = r.take(key)
    return total


def _tied(ascending: np.ndarray) -> bool:
    """Whether a sorted sample holds a tie, or a NaN, which compares false."""
    return not np.all(ascending[1:] > ascending[:-1])


def kendalltau(x, y) -> float:
    """Kendall's tau of two samples without ties, bit for bit
    ``scipy.stats.kendalltau(x, y).statistic`` (tau-b, which is tau-a
    when nothing ties); NaN when either sample has a tie (a constant one
    included) or a NaN, or there are fewer than two rows.

    Sort and count for ungrouped data (Knight 1966): with the rows in x
    order, the argsort of their y values is a permutation whose inversions
    are the discordant pairs.  Each sorted sample is checked for ties as
    soon as it is made and dropped once checked, and the samples and x's
    sort order once they are read, so the inversion count runs beside the
    permutation alone.
    """
    x, y = np.asarray(x).ravel(), np.asarray(y).ravel()
    n = x.size
    if y.size != n:
        raise ValueError("x and y must have the same size")
    order = np.argsort(x)
    if n < 2 or _tied(x[order]):
        return float("nan")
    y = y[order]
    del x, order
    perm = np.argsort(y)
    if _tied(y[perm]):
        return float("nan")
    del y  # _inversions reads only the permutation
    tot = n * (n - 1) // 2
    dis = _inversions(perm)
    tau = (tot - 2 * dis) / np.sqrt(tot) / np.sqrt(tot)
    return float(min(1.0, max(-1.0, tau)))


def _below_per_point(gains: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per grid point, the rows of ``gains`` whose largest entry is below
    it: the row maxima by one ``np.maximum`` pass per column, then one
    sort, whose left insertion points are the strict ``<`` counts."""
    best = gains[:, 0].copy()
    for column in gains.T[1:]:
        np.maximum(best, column, out=best)
    best.sort()
    return np.searchsorted(best, grid)


@dataclass
class CopulaDiagnostics:
    """Sampler goodness-of-fit summary.

    marginal_checks / tau_checks: one row per diagnosed beta.
    cdf_reports: max-gain CDF ComparisonReport per beta.
    jakes_gaps: report-only sup gaps between the Bessel-correlated
        empirical max-gain CDF and each closed form (no pass flag; the two
        models are different generative processes).
    telemetry: per beta label, the block's rows and ports, the forked
        worker processes the blocks ran in (worker_processes, 0 when they
        ran in-process), and the seconds, timed where the block ran, spent
        sampling it (sample_s), on its KS statistics (ks_s), on its Kendall
        tau (kendall_s) and on its max-gain counts (cdf_s); the ``jakes``
        entry has the Bessel block's rows, ports, worker_processes,
        sample_s and cdf_s; kept out of ``to_json_dict``.
    """

    marginal_checks: list
    tau_checks: list
    cdf_reports: dict
    jakes_gaps: dict
    meta: dict
    telemetry: dict = field(default_factory=dict)

    def failures(self) -> list:
        """Each max-gain CDF report's ``FAIL`` lines, then one per failing KS
        or Kendall check."""
        lines = [line for report in self.cdf_reports.values() for line in report.failures()]
        return lines + [f"FAIL diagnostics: {check}"
                        for check in self.marginal_checks + self.tau_checks if not check["passed"]]

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "all_pass": self.all_pass,
            "marginal_checks": self.marginal_checks,
            "tau_checks": self.tau_checks,
            "cdf_reports": {
                k: v.to_json_dict() for k, v in self.cdf_reports.items()
            },
            "jakes_gaps": self.jakes_gaps,
        }


def _diag_block(plan: McPlan, deps: list, streams: list, i: int) -> tuple:
    """Block ``i`` of the diagnostics: ``deps[i]``'s diag_rows x n_ports
    draw from ``streams[i]``, reduced to its max-gain counts at the gain
    grid, its (KS statistic, p-value) and Kendall tau (None for the Bessel
    block), and the seconds of each step.  The gains never leave it."""
    dep = deps[i]
    t0 = time.perf_counter()
    gains = sample_port_gains(dep, plan.diag_rows, plan.n_ports, streams[i]).gains
    t1 = time.perf_counter()
    seconds = {"sample_s": t1 - t0}
    ks = tau = None
    if isinstance(dep, Clayton):
        ks = kstest(gains)
        t2 = time.perf_counter()
        tau = kendalltau(gains[:, 0], gains[:, 1])
        t3 = time.perf_counter()
        seconds.update(ks_s=t2 - t1, kendall_s=t3 - t2)
        t1 = t3
    counts = _below_per_point(gains, plan.gain_grid)
    seconds["cdf_s"] = time.perf_counter() - t1
    return counts, ks, tau, seconds


def run_copula_diagnostics(plan: McPlan) -> CopulaDiagnostics:
    """Check the copula sampler's marginals, rank correlation, and max law.

    The Kendall check pairs ports 1 and 2 and needs two rows; plans with
    fewer, or an aperture ``GaussianJakes`` rejects, fail before any draw.
    It passes when |tau_hat - beta/(beta+2)| <= sqrt(2 ln(2/a) / (rows // 2)),
    a = FAMILY_ALPHA / len(diag_betas): Hoeffding's (1963) bound for an order-2
    U-statistic with kernel in [-1, 1], so correct samples fail at most FAMILY_ALPHA.
    One table of max-gain closed forms (each diagnosed beta, independent,
    fpa), built before the first draw, serves the CDF reports and the gaps.
    Each beta's block and the Bessel block (``_diag_block``) draw from
    their own seed streams, so they run in forked workers
    (``forked.forked_map``), up to one per usable CPU; only their small
    statistics come back, and the reports are built here in config order,
    the same bytes as in-process.
    """
    if plan.n_ports < 2:
        raise ValueError("n_ports must be >= 2: the Kendall check pairs ports 1 and 2")
    if plan.diag_rows < 2:
        raise ValueError("diag_rows must be >= 2: the Kendall check needs two rows")
    jakes = GaussianJakes(plan.jakes_aperture)
    closed_forms = {dep.label: channel_gain_cdf(GainDistribution(plan.n_ports, dep), plan.gain_grid)
                    for dep in (Independent(), PerfectDependence(), *map(Clayton, plan.diag_betas))}
    rows = plan.diag_rows
    deps = [*map(Clayton, plan.diag_betas), jakes]
    streams = np.random.SeedSequence(plan.seed).spawn(len(deps))
    alpha = FAMILY_ALPHA / (len(plan.diag_betas) * len(plan.gain_grid))
    ks_alpha = FAMILY_ALPHA / (len(plan.diag_betas) * plan.n_ports)
    tau_band = math.sqrt(2.0 * math.log(2.0 * len(plan.diag_betas) / FAMILY_ALPHA) / (rows // 2))
    workers = forked.workers(len(deps))
    blocks = list(forked.forked_map(partial(_diag_block, plan, deps, streams), len(deps), workers))
    telemetry = {dep.label: {"rows": rows, "ports": plan.n_ports, **seconds, "worker_processes": workers}
                 for dep, (_, _, _, seconds) in zip(deps, blocks)}
    marginal_checks = []
    tau_checks = []
    cdf_reports = {}
    for beta, dep, (counts, (max_d, min_p), tau_emp, _) in zip(plan.diag_betas, deps, blocks):
        marginal_checks.append(
            {
                "beta": beta,
                "max_ks_statistic": max_d,
                "min_p_value": min_p,
                "alpha": ks_alpha,
                "family_alpha": FAMILY_ALPHA,
                "passed": bool(min_p > ks_alpha),
            }
        )
        tau_ref = beta / (beta + 2.0)
        tau_checks.append(
            {
                "beta": beta,
                "empirical_tau": tau_emp,
                "analytic_tau": tau_ref,
                "passed": bool(abs(tau_emp - tau_ref) <= tau_band),
            }
        )
        cdf_reports[dep.label] = ComparisonReport(
            label=dep.label,
            points=_check_points(plan.gain_grid, counts, closed_forms[dep.label], rows, alpha),
            meta={
                "experiment": "copula-max-cdf",
                "beta": beta,
                "rows": rows,
                "family_alpha": FAMILY_ALPHA,
            },
        )
    jakes_cdf = blocks[-1][0] / rows
    jakes_gaps = {label: float(np.abs(jakes_cdf - ref).max()) for label, ref in closed_forms.items()}
    meta = {
        "experiment": "copula-diagnostics",
        "rows": rows,
        "n_ports": plan.n_ports,
        "seed": plan.seed,
        "jakes_aperture": plan.jakes_aperture,
        "note": "jakes_gaps are report-only (different generative model)",
    }
    return CopulaDiagnostics(
        marginal_checks=marginal_checks,
        tau_checks=tau_checks,
        cdf_reports=cdf_reports,
        jakes_gaps=jakes_gaps,
        meta=meta,
        telemetry=telemetry,
    )
