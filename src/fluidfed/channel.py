"""Correlated small-scale fading across fluid-antenna ports.

A fluid antenna exposes N candidate port positions spread over an aperture of
``W`` wavelengths; the receiver activates the port with the strongest
instantaneous gain.  Ports are closely spaced, so their fades are dependent.
Two generative models are provided:

* an Archimedean (Clayton) copula over unit-exponential power gains, where a
  single parameter ``beta`` > 0 sweeps the whole dependence range -- beta -> 0
  recovers independent ports, beta -> inf fully dependent ports;
* a circularly-symmetric Gaussian field whose port covariance follows the
  classical isotropic-scattering Bessel profile J0(2*pi*dist/lambda).

Key functions
-------------
sample_port_gains : the K x N gain matrix under a DependenceSpec
    (Independent, Clayton, PerfectDependence or GaussianJakes)
sample_best_gains, first_qualifying_port : each user's best-port gain, or
    first port reaching a gain threshold, from the same draws as
    sample_port_gains without building the K x N matrix where they can
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
from scipy.special import j0

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

    ``aperture`` is the span in wavelengths; every port has unit mean
    power gain (Exp(1) marginals), like the other dependence models.
    """

    aperture: float
    label = "jakes"  # a class attribute, not a field: every aperture shares it

    def __post_init__(self):
        if self.aperture < 0:
            raise ValueError("aperture must be >= 0")


DependenceSpec = Union[Independent, Clayton, PerfectDependence, GaussianJakes]


@dataclass(frozen=True)
class PortGainMatrix:
    """K x N matrix of per-user, per-port power gains."""

    gains: np.ndarray


def log1mexp(x):
    """ln(1 - e^-x) for x >= 0 (-inf at 0) to full precision (Maechler 2012)."""
    with np.errstate(divide="ignore"):
        return np.where(x < np.log(2.0), np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


def _clayton_gains(exps: np.ndarray, log_v: np.ndarray, beta: float) -> np.ndarray:
    """Exp(1) power gains whose ports follow a Clayton(beta) copula, from
    latent unit exponentials ``exps`` (overwritten) and frailties ``log_v``.

    Marshall-Olkin construction, one latent frailty per user (row): draw
    V ~ Gamma(1/beta, 1) and N unit exponentials E_i, set
    U_i = (1 + E_i/V)^(-1/beta), then map to exponential marginals via
    g_i = -ln(1 - U_i).  Rows are mutually independent, and Kendall's tau
    between any two ports is beta/(beta+2).  Each gain falls as its E_i
    rises, so a row's maximum is the map of its minimum E, and a gain
    reaches t iff E <= e* = V (m^-beta - 1), m = 1 - e^-t.  Every step
    rounds elementwise: any subset of entries maps to the same bits.
    """
    # gains = -log(-expm1(-logaddexp(0, log E - log V) / beta)), evaluated
    # in place: one buffer instead of a temporary per step keeps large
    # blocks in cache, and every step rounds exactly as the expression does
    gains = exps
    with np.errstate(divide="ignore"):
        np.log(gains, out=gains)
    gains -= log_v
    np.logaddexp(0.0, gains, out=gains)
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


def _clayton_reaches(exps, log_v, beta: float, threshold: float) -> np.ndarray:
    """``_clayton_gains(exps, log_v[:, None], beta) >= t`` bit for bit, mostly
    as E <= e*.  The map's rounding moves a decision by a relative distance
    in E of order eps (1 + t + beta (1 + 1/t)); E within 1e-9 times that of
    e*, near a nonfinite e*, or at t outside (0, 700) is left to the map."""
    r = 1e-9 * (1.0 + threshold + beta / threshold + beta) if 0 < threshold < 700 else np.inf
    with np.errstate(all="ignore"):  # an infinite r puts every E in the band
        cut = np.exp(_clayton_log_cutoff(log_v, beta, threshold))[:, None]
        reaches = exps < cut * (1.0 - r)
        band = ~(reaches | (exps > cut * (1.0 + r)))
    if band.any():
        rows, cols = np.nonzero(band)
        reaches[rows, cols] = _clayton_gains(exps[rows, cols], log_v[rows], beta) >= threshold
    return reaches


def jakes_correlation_matrix(n_ports: int, aperture: float) -> np.ndarray:
    """Unit-power port covariance: entry (i, j) = J0(2*pi*|i-j|/(N-1)*W).

    A single port (N = 1) has no spacing and gives [[1.0]].
    """
    idx = np.arange(n_ports)
    dist = np.abs(idx[:, None] - idx[None, :]) / max(n_ports - 1, 1) * aperture
    return j0(2.0 * np.pi * dist)


def _jakes_gains(
    n_users: int, n_ports: int, dep: GaussianJakes, gen: np.random.Generator
) -> np.ndarray:
    """K x N power gains |h|^2 of Bessel-correlated complex Gaussian fading.

    The covariance from :func:`jakes_correlation_matrix` is factorized by
    eigendecomposition; tiny negative eigenvalues (roundoff) are clamped to
    zero, anything below -1e-10 raises :class:`SamplingError`.  Each row is
    h = A z with z ~ CN(0, I) and A A^T the covariance, so the W = 0 rank-1
    case yields exactly equal ports and marginals are Exp(1).
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
    # z = (x + 1j y) / sqrt(2) and |z A^T|^2, built in place: the same
    # values with half the temporaries of the plain expressions
    z = np.empty((n_users, n_ports), dtype=complex)
    z.real = gen.standard_normal(z.shape)
    z.imag = gen.standard_normal(z.shape)
    z /= np.sqrt(2.0)
    gains = np.abs(z @ factor.T)
    gains **= 2
    return gains


def _draw(dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike, reduce: str,
          threshold: float | None = None) -> np.ndarray:
    """The K x N gains of ``dep``, or per row (``reduce``) their maximum or
    the first port reaching ``threshold`` (n_ports for none).  All forms
    take the same draws, agree bit for bit with reducing the matrix and
    leave a Generator in the same state.  Clayton maps only each row's
    minimum exponential, enough to find a nonfinite gain."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    gen = np.random.default_rng(rng)
    reaches = None
    if isinstance(dep, Independent):
        gains = gen.standard_exponential(size=(n_users, n_ports))
    elif isinstance(dep, Clayton):
        # ln V = ln G + beta ln u, G ~ Gamma(1/beta + 1), u ~ U(0,1): no underflow at tiny beta
        boost = gen.standard_gamma(1.0 / dep.beta + 1.0, size=n_users)
        log_v = np.log(boost) + dep.beta * np.log(gen.uniform(size=n_users))
        exps = gen.standard_exponential(size=(n_users, n_ports))
        if reduce == "first":
            reaches = _clayton_reaches(exps, log_v, dep.beta, threshold)
        if reduce != "gains":
            exps = exps.min(axis=1, keepdims=True)
        gains = _clayton_gains(exps, log_v[:, None], dep.beta)
    elif isinstance(dep, PerfectDependence):
        gains = gen.standard_exponential(size=(n_users, 1))
        if reduce == "gains":
            gains = np.repeat(gains, n_ports, axis=1)
    elif isinstance(dep, GaussianJakes):
        gains = _jakes_gains(n_users, n_ports, dep, gen)
    else:
        raise TypeError(f"unknown dependence spec: {dep!r}")
    if not np.all(np.isfinite(gains)):
        raise SamplingError(f"{type(dep).__name__} sampler produced a nonfinite draw")
    if reduce == "first":
        reaches = gains >= threshold if reaches is None else reaches
        first = reaches.argmax(axis=1)  # also 0 where no port reaches it
        return np.where(reaches[np.arange(n_users), first], first, n_ports)
    return gains.max(axis=1) if reduce == "best" else gains


def sample_port_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> PortGainMatrix:
    """Sample a K x N gain matrix under any dependence model."""
    return PortGainMatrix(_draw(dep, n_users, n_ports, rng, "gains"))


def sample_best_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> np.ndarray:
    """Each user's best-port gain: ``sample_port_gains(...).gains.max(axis=1)``."""
    return _draw(dep, n_users, n_ports, rng, "best")


def first_qualifying_port(dep: DependenceSpec, n_users: int, n_ports: int, threshold: float,
                          rng: RngLike) -> np.ndarray:
    """Each user's first port whose gain reaches ``threshold``, ``n_ports``
    where none does, on the draws of ``sample_port_gains``."""
    return _draw(dep, n_users, n_ports, rng, "first", threshold)


def select_ports(gains: PortGainMatrix) -> np.ndarray:
    """Each user's strongest-port power gain, the (K,) row maxima."""
    g = gains.gains
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gain matrix must be a nonempty K x N array")
    return g.max(axis=1)
