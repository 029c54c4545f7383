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
sample_clayton_exponential : Clayton-coupled Exp(1) port gains (Marshall-Olkin
    latent-frailty construction, evaluated in the log domain)
sample_independent / sample_perfect_dependence : the two dependence extremes
sample_gaussian_jakes : Bessel-correlated complex Gaussian fading
jakes_correlation_matrix : the port covariance for the Gaussian model
select_ports : per-user best-port selection (max power gain)
sample_port_gains : dispatch on a DependenceSpec
sample_best_gains : each user's best-port gain under any DependenceSpec,
    drawn from the same stream as sample_port_gains without building the
    K x N matrix where the model allows it

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
    "PortGeometry",
    "Independent",
    "Clayton",
    "PerfectDependence",
    "GaussianJakes",
    "DependenceSpec",
    "PortGainMatrix",
    "EffectiveGains",
    "as_generator",
    "sample_clayton_exponential",
    "sample_independent",
    "sample_perfect_dependence",
    "jakes_correlation_matrix",
    "sample_gaussian_jakes",
    "sample_port_gains",
    "sample_best_gains",
    "select_ports",
]

RngLike = Union[np.random.Generator, np.random.SeedSequence, int]


class SamplingError(RuntimeError):
    """A sampler produced a nonfinite draw or an unusable covariance."""


def as_generator(rng: RngLike) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class PortGeometry:
    """Uniform linear port layout: N ports over ``aperture`` wavelengths."""

    n_ports: int
    aperture: float = 0.0

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if self.aperture < 0:
            raise ValueError("aperture must be >= 0")


@dataclass(frozen=True)
class Independent:
    """Ports fade independently (infinite-spacing idealization)."""


@dataclass(frozen=True)
class Clayton:
    """Clayton-copula dependence with parameter beta > 0."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0) or not np.isfinite(self.beta):
            raise ValueError("Clayton beta must be finite and > 0")


@dataclass(frozen=True)
class PerfectDependence:
    """All ports share one fade (single-port / FPA limit)."""


@dataclass(frozen=True)
class GaussianJakes:
    """Complex Gaussian fading with Bessel port correlation.

    ``aperture`` is the span in wavelengths, ``power`` the per-port mean
    power gain (Exp(power) marginals).
    """

    aperture: float
    power: float = 1.0

    def __post_init__(self):
        if self.aperture < 0:
            raise ValueError("aperture must be >= 0")
        if not (self.power > 0):
            raise ValueError("power must be > 0")


DependenceSpec = Union[Independent, Clayton, PerfectDependence, GaussianJakes]


@dataclass(frozen=True)
class PortGainMatrix:
    """K x N matrix of per-user, per-port power gains."""

    gains: np.ndarray


@dataclass(frozen=True)
class EffectiveGains:
    """Best-port gain per user and the selected port (1-based index)."""

    gain: np.ndarray
    port_index: np.ndarray


def _check_counts(n_users: int, n_ports: int) -> None:
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")


def _finite_or_raise(gains: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(gains)):
        raise SamplingError(f"{label} produced a nonfinite draw")


def sample_clayton_exponential(
    n_users: int, n_ports: int, beta: float, rng: RngLike
) -> PortGainMatrix:
    """Draw K x N Exp(1) power gains whose ports follow a Clayton(beta) copula.

    Marshall-Olkin construction, one latent frailty per user (row): draw
    V ~ Gamma(1/beta, 1) and N unit exponentials E_i, set
    U_i = (1 + E_i/V)^(-1/beta), then map to exponential marginals via
    g_i = -ln(1 - U_i).  Rows are mutually independent.

    Evaluated in the log domain so extreme beta stays exact: V is realized as
    ln V = ln G + beta*ln(u) with G ~ Gamma(1/beta + 1), u ~ U(0,1) (the
    standard shape-boost identity), which avoids the subnormal underflow a
    direct Gamma(1/beta) draw hits once 1/beta is tiny.

    Kendall's tau between any two ports is beta/(beta+2).
    """
    _check_counts(n_users, n_ports)
    return PortGainMatrix(gains=_clayton_gains(n_users, n_ports, beta, as_generator(rng)))


def _clayton_gains(
    n_users: int, n_ports: int, beta: float, gen: np.random.Generator, best_only: bool = False
) -> np.ndarray:
    """The Clayton sampler's draws and transform: K x N gains, or row maxima.

    Draws the Gamma boost, the uniform, then the K x N unit exponentials E.
    Each gain is decreasing in its own E_i, so with ``best_only`` the row
    maximum is the transform of the row minimum of E, evaluated on K
    values instead of K x N.
    """
    if not (beta > 0) or not np.isfinite(beta):
        raise ValueError("beta must be finite and > 0")
    boost = gen.standard_gamma(1.0 / beta + 1.0, size=n_users)
    log_v = np.log(boost) + beta * np.log(gen.uniform(size=n_users))
    # gains = -log(-expm1(-logaddexp(0, log E - log V) / beta)), evaluated
    # in place: one buffer instead of a temporary per step keeps large
    # blocks in cache, and every step rounds exactly as the expression does
    gains = gen.standard_exponential(size=(n_users, n_ports))
    if best_only:
        gains = gains.min(axis=1)
    else:
        log_v = log_v[:, None]
    with np.errstate(divide="ignore"):
        np.log(gains, out=gains)
    gains -= log_v
    np.logaddexp(0.0, gains, out=gains)
    gains /= -beta
    np.expm1(gains, out=gains)
    np.negative(gains, out=gains)
    np.log(gains, out=gains)
    np.negative(gains, out=gains)
    _finite_or_raise(gains, "clayton sampler")
    return gains


def sample_independent(n_users: int, n_ports: int, rng: RngLike) -> PortGainMatrix:
    """K x N independent Exp(1) power gains."""
    _check_counts(n_users, n_ports)
    gen = as_generator(rng)
    gains = gen.standard_exponential(size=(n_users, n_ports))
    _finite_or_raise(gains, "independent sampler")
    return PortGainMatrix(gains=gains)


def sample_perfect_dependence(
    n_users: int, n_ports: int, rng: RngLike
) -> PortGainMatrix:
    """K x N gains where every port in a row repeats one Exp(1) draw."""
    _check_counts(n_users, n_ports)
    gen = as_generator(rng)
    shared = gen.standard_exponential(size=n_users)
    gains = np.repeat(shared[:, None], n_ports, axis=1)
    _finite_or_raise(gains, "perfect-dependence sampler")
    return PortGainMatrix(gains=gains)


def jakes_correlation_matrix(geometry: PortGeometry, power: float = 1.0) -> np.ndarray:
    """Port covariance: entry (i, j) = power * J0(2*pi*|i-j|/(N-1)*W).

    A single port (N = 1) degenerates to [[power]].
    """
    if not (power > 0):
        raise ValueError("power must be > 0")
    n = geometry.n_ports
    if n == 1:
        return np.array([[power]])
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]) / (n - 1) * geometry.aperture
    return power * j0(2.0 * np.pi * dist)


def sample_gaussian_jakes(
    n_users: int,
    geometry: PortGeometry,
    rng: RngLike,
    power: float = 1.0,
) -> PortGainMatrix:
    """K x N power gains |h|^2 of Bessel-correlated complex Gaussian fading.

    The covariance from :func:`jakes_correlation_matrix` is factorized by
    eigendecomposition; tiny negative eigenvalues (roundoff) are clamped to
    zero, anything below -1e-10 * power raises :class:`SamplingError`.  Each
    row is h = A z with z ~ CN(0, I) and A A^T the covariance, so the W = 0
    rank-1 case yields exactly equal ports and marginals are Exp(power).
    """
    _check_counts(n_users, geometry.n_ports)
    gen = as_generator(rng)
    cov = jakes_correlation_matrix(geometry, power)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval.min() < -1e-10 * power:
        raise SamplingError(
            f"port covariance not positive semidefinite: min eigenvalue "
            f"{eigval.min():.3e} (aperture={geometry.aperture}, "
            f"n_ports={geometry.n_ports})"
        )
    # zero out eigenvalues that are indistinguishable from roundoff, so
    # degenerate layouts (e.g. zero aperture) come out exactly low-rank
    eigval = np.where(eigval < 1e-12 * eigval.max(), 0.0, eigval)
    factor = eigvec * np.sqrt(eigval)
    # z = (x + 1j y) / sqrt(2) and |z A^T|^2, built in place: the same
    # values with half the temporaries of the plain expressions
    z = np.empty((n_users, geometry.n_ports), dtype=complex)
    z.real = gen.standard_normal(z.shape)
    z.imag = gen.standard_normal(z.shape)
    z /= np.sqrt(2.0)
    gains = np.abs(z @ factor.T)
    gains **= 2
    _finite_or_raise(gains, "gaussian-jakes sampler")
    return PortGainMatrix(gains=gains)


def sample_port_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> PortGainMatrix:
    """Sample a K x N gain matrix under any dependence model."""
    if isinstance(dep, Independent):
        return sample_independent(n_users, n_ports, rng)
    if isinstance(dep, Clayton):
        return sample_clayton_exponential(n_users, n_ports, dep.beta, rng)
    if isinstance(dep, PerfectDependence):
        return sample_perfect_dependence(n_users, n_ports, rng)
    if isinstance(dep, GaussianJakes):
        geom = PortGeometry(n_ports=n_ports, aperture=dep.aperture)
        return sample_gaussian_jakes(n_users, geom, rng, power=dep.power)
    raise TypeError(f"unknown dependence spec: {dep!r}")


def sample_best_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> np.ndarray:
    """Each user's best-port gain: ``sample_port_gains(...).gains.max(axis=1)``.

    Draws the same stream as :func:`sample_port_gains`, so both return the
    same bits and leave a Generator in the same state.  Clayton transforms
    only each row's minimum exponential, perfect dependence returns its
    shared draw, and the independent and Bessel models reduce the full
    matrix.
    """
    _check_counts(n_users, n_ports)
    if isinstance(dep, Clayton):
        return _clayton_gains(n_users, n_ports, dep.beta, as_generator(rng), best_only=True)
    if isinstance(dep, PerfectDependence):
        shared = as_generator(rng).standard_exponential(size=n_users)
        _finite_or_raise(shared, "perfect-dependence sampler")
        return shared
    return sample_port_gains(dep, n_users, n_ports, rng).gains.max(axis=1)


def select_ports(gains: PortGainMatrix) -> EffectiveGains:
    """Pick each user's strongest port.

    Returns the per-user max power gain and the 1-based port index; ties go
    to the lowest index.
    """
    g = gains.gains
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gain matrix must be a nonempty K x N array")
    best = g.max(axis=1)
    port = g.argmax(axis=1) + 1
    return EffectiveGains(gain=best, port_index=port)
