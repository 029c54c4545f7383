"""Correlated small-scale fading across fluid-antenna ports.

A fluid antenna exposes N candidate port positions spread over an aperture of
``W`` wavelengths; the receiver activates the port with the strongest
instantaneous gain.  Ports are closely spaced, so their fades are dependent.
Two generative models are provided:

* an Archimedean (Clayton) copula over unit-exponential power gains, where a
  single parameter ``beta`` > 0 sweeps the whole dependence range -- beta -> 0
  recovers independent ports, beta -> inf fully dependent ports;
* a circularly-symmetric Gaussian field whose port covariance follows the
  classical isotropic-scattering Bessel profile J0(2*pi*dist/lambda),
  with J0 from a numpy port of Cephes j0 (Moshier 1989), the routine
  ``scipy.special.j0`` wraps.

Key functions
-------------
sample_port_gains : the K x N gain matrix under a DependenceSpec
    (Independent, Clayton, PerfectDependence or GaussianJakes)
sample_best_gains, first_qualifying_port : each user's best-port gain, or
    first port reaching a gain threshold, equal in law to reducing
    sample_port_gains, from one draw per user where the law allows (a best
    gain maps the smallest of N latent unit exponentials, Exp(1)/N; for
    independent ports that is inverse-CDF sampling of (1 - e^-x)^N)
select_ports : each user's best-port gain from a sampled gain matrix
jakes_correlation_matrix : the port covariance of the Gaussian model

Each DependenceSpec names itself by ``label`` (independent, clayton-{beta:g},
fpa, jakes), the key of its reports, output files and manifest blocks.

All samplers are pure functions of an explicit RNG stream: pass an integer
seed, a ``numpy.random.SeedSequence``, or a ``numpy.random.Generator``.
Sub-streams for parallel work should be derived with ``SeedSequence.spawn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SamplingError",
    "Independent",
    "Clayton",
    "PerfectDependence",
    "GaussianJakes",
    "DependenceSpec",
    "PortGainMatrix",
    "jakes_correlation_matrix",
    "sample_port_gains",
    "sample_best_gains",
    "first_qualifying_port",
    "select_ports",
]

RngLike = Union[np.random.Generator, np.random.SeedSequence, int]


class SamplingError(RuntimeError):
    """A sampler produced a nonfinite draw or an unusable covariance."""


@dataclass(frozen=True)
class Independent:
    """Ports fade independently (infinite-spacing idealization)."""

    label = "independent"


@dataclass(frozen=True)
class Clayton:
    """Clayton-copula dependence with parameter beta > 0."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0) or not np.isfinite(self.beta):
            raise ValueError("clayton beta must be finite and > 0")

    @property
    def label(self) -> str:
        return f"clayton-{self.beta:g}"


@dataclass(frozen=True)
class PerfectDependence:
    """All ports share one fade (single-port / FPA limit)."""

    label = "fpa"


@dataclass(frozen=True)
class GaussianJakes:
    """Complex Gaussian fading with Bessel port correlation.

    ``aperture`` is the span in wavelengths, >= 0 with a finite largest
    Bessel argument 2*pi*aperture (this is the package's one aperture
    check); every port has unit mean power gain (Exp(1) marginals).
    """

    aperture: float
    label = "jakes"  # a class attribute, not a field: every aperture shares it

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a NaN aperture would pass "< 0"
            if not 0 <= 2.0 * np.pi * self.aperture < np.inf:  # 1e308 overflows
                raise ValueError("aperture must be >= 0 and finite, and so must 2*pi*aperture")


DependenceSpec = Union[Independent, Clayton, PerfectDependence, GaussianJakes]


@dataclass(frozen=True)
class PortGainMatrix:
    """K x N matrix of per-user, per-port power gains."""

    gains: np.ndarray


def log1mexp(x):
    """ln(1 - e^-x) for x >= 0 (-inf at 0) to full precision (Maechler 2012)."""
    with np.errstate(divide="ignore"):
        return np.where(x < np.log(2.0), np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


_SOFTPLUS_CHUNK = 1 << 13  # entries mapped at once by _softplus (64 KiB of scratch)


def _softplus(t: np.ndarray) -> np.ndarray:
    """ln(1 + e^t) in place, as max(t, 0) + log1p(exp(-|t|)): the branch
    ``np.logaddexp(0, t)`` takes, on numpy's vectorized exp and log1p
    instead of its scalar loop.  ``_SOFTPLUS_CHUNK`` entries at a time go
    through one scratch buffer, so no block-sized temporary is made.  ``t``
    must be C-contiguous, so that its flat reshape is a view."""
    if not t.flags.c_contiguous:
        raise ValueError("_softplus maps a C-contiguous array in place")
    flat = t.reshape(-1)
    scratch = np.empty(min(_SOFTPLUS_CHUNK, flat.size))
    for start in range(0, flat.size, _SOFTPLUS_CHUNK):
        part = flat[start:start + _SOFTPLUS_CHUNK]
        tail = scratch[: part.size]
        np.abs(part, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(part, 0.0, out=part)
        part += tail
    return t


def _clayton_gains(exps: np.ndarray, log_v: np.ndarray, beta: float) -> np.ndarray:
    """Exp(1) power gains whose ports follow a Clayton(beta) copula, from
    latent unit exponentials ``exps`` (overwritten) and frailties ``log_v``.

    Marshall-Olkin construction, one latent frailty per user (row): draw
    V ~ Gamma(1/beta, 1) and N unit exponentials E_i, set
    U_i = (1 + E_i/V)^(-1/beta), then map to exponential marginals via
    g_i = -ln(1 - U_i).  Rows are mutually independent, and Kendall's tau
    between any two ports is beta/(beta+2).  Each gain falls as its E_i
    rises, so a row's maximum is the map of its minimum E, and a gain
    reaches t iff E <= e* = V (m^-beta - 1), m = 1 - e^-t.
    """
    # gains = -log(-expm1(-softplus(log E - log V) / beta)), evaluated in
    # place: one buffer instead of a temporary per step keeps large blocks
    # in cache, and every step rounds exactly as the expression does
    gains = exps
    with np.errstate(divide="ignore"):
        np.log(gains, out=gains)
    gains -= log_v
    _softplus(gains)
    gains /= -beta
    np.expm1(gains, out=gains)
    np.negative(gains, out=gains)
    np.log(gains, out=gains)
    np.negative(gains, out=gains)
    return gains


def _clayton_log_cutoff(log_v, beta: float, threshold: float):
    """ln e* = ln V + ln(m^-beta - 1), m = 1 - e^-t, without overflow."""
    z = -beta * log1mexp(threshold)
    return log_v + (z + log1mexp(z))


# Cephes j0 (Moshier 1989): (z - r1)(z - r2) P(z)/Q(z) in z = x^2 up to
# x = 5, past it the Hankel asymptotic form with rational amplitude and phase
_J0_R1, _J0_R2 = 5.78318596294678452118e0, 3.04712623436620863991e1  # zeros squared
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
          1.23953371646414299388e0, 5.44725003058768775090e0,
          8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
          1.25352743901058953537e0, 5.47097740330417105182e0,
          8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
          -1.95539544257735972385e1, -9.32060152123768231369e1,
          -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2,
          3.88240183605401609683e3, 7.24046774195652478189e3,
          5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, highest power first, in Cephes' operation order, in
    one buffer."""
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _j0(x) -> np.ndarray:
    """Bessel J0, elementwise; bit for bit ``scipy.special.j0`` on [0, 5]."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):  # each branch overflows where the other is taken
        z = x * x
        near = (z - _J0_R1) * (z - _J0_R2) * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
        near = np.where(x < 1e-5, 1.0 - z / 4.0, near)
        if not (x > 5.0).any():
            return near
        w, q = 5.0 / x, 25.0 / z
        amplitude = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
        phase = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
        xn = x - np.pi / 4
        far = (amplitude * np.cos(xn) - w * phase * np.sin(xn)) * np.sqrt(2.0 / np.pi) / np.sqrt(x)
    return np.where(x <= 5.0, near, far)


def jakes_correlation_matrix(n_ports: int, aperture: float) -> np.ndarray:
    """Unit-power port covariance: entry (i, j) = J0(2*pi*|i-j|/(N-1)*W).

    A single port (N = 1) has no spacing and gives [[1.0]].
    """
    idx = np.arange(n_ports)
    dist = np.abs(idx[:, None] - idx[None, :]) / max(n_ports - 1, 1) * aperture
    return _j0(2.0 * np.pi * dist)


_JAKES_CHUNK = 1 << 16  # complex entries mixed at once by _jakes_gains (1 MiB)


def _jakes_gains(
    n_users: int, n_ports: int, dep: GaussianJakes, gen: np.random.Generator
) -> np.ndarray:
    """K x N power gains |h|^2 of Bessel-correlated complex Gaussian fading.

    The covariance from :func:`jakes_correlation_matrix` is factorized by
    eigendecomposition; tiny negative eigenvalues (roundoff) are clamped to
    zero, anything below -1e-10 raises :class:`SamplingError`.  Each row is
    h = A z with z ~ CN(0, I) and A A^T the covariance, so the W = 0 rank-1
    case yields exactly equal ports and marginals are Exp(1).

    The real parts of z are drawn into the result, every one before any
    imaginary part, as ``(x + 1j y) / sqrt(2)`` over the whole block would
    draw them; each chunk of ``_JAKES_CHUNK // N`` rows then takes its
    imaginary parts and is mixed in one reused complex buffer and
    overwritten by its gains.  Every row's arithmetic is the whole-block
    expression's, so the gains are its bits, in one K x N array plus
    chunk-sized scratch.
    """
    eigval, eigvec = np.linalg.eigh(jakes_correlation_matrix(n_ports, dep.aperture))
    if eigval.min() < -1e-10:
        raise SamplingError(
            f"port covariance not positive semidefinite: min eigenvalue "
            f"{eigval.min():.3e} (aperture={dep.aperture}, n_ports={n_ports})"
        )
    # zero out eigenvalues that are indistinguishable from roundoff, so
    # degenerate layouts (e.g. zero aperture) come out exactly low-rank
    eigval = np.where(eigval < 1e-12 * eigval.max(), 0.0, eigval)
    factor = eigvec * np.sqrt(eigval)
    gains = gen.standard_normal((n_users, n_ports))  # every x
    step = max(_JAKES_CHUNK // n_ports, 1)
    z = np.empty((min(step, n_users), n_ports), dtype=complex)
    for start in range(0, n_users, step):
        rows = gains[start:start + step]
        part = z[: len(rows)]
        part.real = rows
        part.imag = gen.standard_normal(rows.shape)  # the next y, row-major
        # numpy divides a complex by a real scalar as a product with its
        # reciprocal, so scaling the float view gives the same bits
        scaled = part.view(np.float64)
        scaled *= 1.0 / np.sqrt(2.0)
        np.abs(part @ factor.T, out=rows)
        rows **= 2
    return gains


def _first_success(gen: np.random.Generator, p: np.ndarray, n_ports: int) -> np.ndarray:
    """Per row, the first of ``n_ports`` trials that succeed with probability
    p, ``n_ports`` for none: Geometric(p) - 1, capped before subtracting, as
    a huge draw saturates at INT64_MAX."""
    hit = p > 0  # Geometric(0) raises; such rows never succeed
    first = np.minimum(gen.geometric(np.where(hit, p, 1.0)), n_ports + 1) - 1
    return np.where(hit, first, n_ports)


def _least_exponential(gen: np.random.Generator, n_users: int, n_ports: int) -> np.ndarray:
    """Per user, the smallest of ``n_ports`` unit exponentials, drawn as Exp(1)/N."""
    exps = gen.standard_exponential(size=n_users)
    exps /= n_ports
    return exps


def _draw(dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike, reduce: str,
          threshold: float | None = None) -> np.ndarray:
    """The K x N gains of ``dep``, or per row (``reduce``) their maximum or
    the first port reaching ``threshold`` (n_ports for none), equal in law
    to reducing the matrix.  An independent port's gain g = -ln(1 - e^-E)
    falls as its unit exponential E rises, and so does a Clayton port's
    given its row's frailty V, whose ports are then independent: a row's
    best gain is the map of its smallest E, Exp(1)/N, one draw per user.
    For an independent row that draw is the inverse CDF of (1 - e^-x)^N
    at U = e^-E, the law the cdf-mse and pmf-users closed forms rest on, so
    only the row-max law tests in tests/test_channel.py tie it to N ports.
    A first port is one Geometric(p) - 1 draw per user, p = e^-t for an
    independent row and p(V) = 1 - exp(-e*) for a Clayton one.  An fpa
    row's best gain is its one Exp(1) draw; other reductions reduce the
    matrix, a (K, 1) one for an fpa first port."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    gen = np.random.default_rng(rng)
    if reduce == "first":
        threshold = max(threshold, 0.0)  # every gain reaches a threshold <= 0
    if isinstance(dep, Independent):
        if reduce == "first":
            return _first_success(gen, np.full(n_users, np.exp(-threshold)), n_ports)
        if reduce == "best":
            gains = log1mexp(_least_exponential(gen, n_users, n_ports))
            np.negative(gains, out=gains)
        else:
            gains = gen.standard_exponential(size=(n_users, n_ports))
    elif isinstance(dep, Clayton):
        # ln V = ln G + beta ln u, G ~ Gamma(1/beta + 1), u ~ U(0,1): no underflow at tiny beta
        boost = gen.standard_gamma(1.0 / dep.beta + 1.0, size=n_users)
        with np.errstate(divide="ignore"):  # u = 0 gives V = 0: no port reaches any t > 0
            log_v = np.log(boost) + dep.beta * np.log(gen.uniform(size=n_users))
        if reduce == "first":
            if not np.all(log_v < np.inf):  # V = inf would give a finite p = 1
                raise SamplingError("Clayton sampler produced a nonfinite frailty")
            # at large beta ln e* passes ln(DBL_MAX); e* = inf is the right
            # cutoff, since it gives p = 1
            with np.errstate(over="ignore"):
                cutoff = np.exp(_clayton_log_cutoff(log_v, dep.beta, threshold))
            return _first_success(gen, -np.expm1(-cutoff), n_ports)
        if reduce == "best":
            gains = _clayton_gains(_least_exponential(gen, n_users, n_ports), log_v, dep.beta)
        else:
            exps = gen.standard_exponential(size=(n_users, n_ports))
            gains = _clayton_gains(exps, log_v[:, None], dep.beta)
    elif isinstance(dep, PerfectDependence):
        gains = gen.standard_exponential(size=n_users if reduce == "best" else (n_users, 1))
        if reduce == "gains":
            gains = np.repeat(gains, n_ports, axis=1)
    elif isinstance(dep, GaussianJakes):
        gains = _jakes_gains(n_users, n_ports, dep, gen)
        if reduce == "best":
            gains = gains.max(axis=1)  # NaN and inf survive the maximum
    else:
        raise TypeError(f"unknown dependence spec: {dep!r}")
    if not np.all(np.isfinite(gains)):
        raise SamplingError(f"{type(dep).__name__} sampler produced a nonfinite draw")
    if reduce == "first":
        reaches = gains >= threshold
        first = reaches.argmax(axis=1)  # also 0 where no port reaches it
        return np.where(reaches[np.arange(n_users), first], first, n_ports)
    return gains


def sample_port_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> PortGainMatrix:
    """Sample a K x N gain matrix under any dependence model."""
    return PortGainMatrix(_draw(dep, n_users, n_ports, rng, "gains"))


def sample_best_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> np.ndarray:
    """Each user's best-port gain, in law ``sample_port_gains(...).gains.max(axis=1)``:
    one draw per user for independent, Clayton and fpa ports (the first
    two map Exp(1)/N, for independent ports the inverse CDF of
    (1 - e^-x)^N), the row maxima of the whole matrix for Jakes."""
    return _draw(dep, n_users, n_ports, rng, "best")


def first_qualifying_port(dep: DependenceSpec, n_users: int, n_ports: int, threshold: float,
                          rng: RngLike) -> np.ndarray:
    """Each user's first port whose gain reaches ``threshold``, ``n_ports``
    where none does, equal in law to that port of ``sample_port_gains``."""
    return _draw(dep, n_users, n_ports, rng, "first", threshold)


def select_ports(gains: PortGainMatrix) -> np.ndarray:
    """Each user's strongest-port power gain, the (K,) row maxima."""
    g = gains.gains
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gain matrix must be a nonempty K x N array")
    return g.max(axis=1)
