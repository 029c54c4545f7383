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
sample_best_gains : each user's best-port gain, from the same draws as
    sample_port_gains without building the K x N matrix where the model
    allows it
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

    ``aperture`` is the span in wavelengths, ``power`` the per-port mean
    power gain (Exp(power) marginals).
    """

    aperture: float
    power: float = 1.0
    label = "jakes"  # a class attribute, not a field: every aperture shares it

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


def _clayton_gains(
    n_users: int, n_ports: int, beta: float, gen: np.random.Generator, best_only: bool
) -> np.ndarray:
    """K x N Exp(1) power gains whose ports follow a Clayton(beta) copula.

    Marshall-Olkin construction, one latent frailty per user (row): draw
    V ~ Gamma(1/beta, 1) and N unit exponentials E_i, set
    U_i = (1 + E_i/V)^(-1/beta), then map to exponential marginals via
    g_i = -ln(1 - U_i).  Rows are mutually independent.

    Evaluated in the log domain so extreme beta stays exact: V is realized as
    ln V = ln G + beta*ln(u) with G ~ Gamma(1/beta + 1), u ~ U(0,1) (the
    standard shape-boost identity), which avoids the subnormal underflow a
    direct Gamma(1/beta) draw hits once 1/beta is tiny.

    Kendall's tau between any two ports is beta/(beta+2).  Each gain is
    decreasing in its own E_i, so with ``best_only`` the row maximum is the
    transform of the row minimum of E, evaluated on K values instead of
    K x N.
    """
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
    return gains


def jakes_correlation_matrix(n_ports: int, aperture: float, power: float = 1.0) -> np.ndarray:
    """Port covariance: entry (i, j) = power * J0(2*pi*|i-j|/(N-1)*W).

    A single port (N = 1) degenerates to [[power]].
    """
    if n_ports == 1:
        return np.array([[power]])
    idx = np.arange(n_ports)
    dist = np.abs(idx[:, None] - idx[None, :]) / (n_ports - 1) * aperture
    return power * j0(2.0 * np.pi * dist)


def _jakes_gains(
    n_users: int, n_ports: int, dep: GaussianJakes, gen: np.random.Generator
) -> np.ndarray:
    """K x N power gains |h|^2 of Bessel-correlated complex Gaussian fading.

    The covariance from :func:`jakes_correlation_matrix` is factorized by
    eigendecomposition; tiny negative eigenvalues (roundoff) are clamped to
    zero, anything below -1e-10 * power raises :class:`SamplingError`.  Each
    row is h = A z with z ~ CN(0, I) and A A^T the covariance, so the W = 0
    rank-1 case yields exactly equal ports and marginals are Exp(power).
    """
    eigval, eigvec = np.linalg.eigh(jakes_correlation_matrix(n_ports, dep.aperture, dep.power))
    if eigval.min() < -1e-10 * dep.power:
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


def _draw(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike, best_only: bool
) -> np.ndarray:
    """The K x N gains of ``dep``, or with ``best_only`` each row's maximum.

    Both forms consume the same draws, so they agree bit for bit and leave
    a Generator in the same state.  Clayton transforms only each row's
    minimum exponential, perfect dependence returns its shared draw, and
    the independent and Bessel models reduce the full matrix.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    gen = np.random.default_rng(rng)
    if isinstance(dep, Independent):
        gains = gen.standard_exponential(size=(n_users, n_ports))
    elif isinstance(dep, Clayton):
        gains = _clayton_gains(n_users, n_ports, dep.beta, gen, best_only)
    elif isinstance(dep, PerfectDependence):
        gains = gen.standard_exponential(size=n_users)
        if not best_only:
            gains = np.repeat(gains[:, None], n_ports, axis=1)
    elif isinstance(dep, GaussianJakes):
        gains = _jakes_gains(n_users, n_ports, dep, gen)
    else:
        raise TypeError(f"unknown dependence spec: {dep!r}")
    if not np.all(np.isfinite(gains)):
        raise SamplingError(f"{type(dep).__name__} sampler produced a nonfinite draw")
    return gains.max(axis=1) if best_only and gains.ndim == 2 else gains


def sample_port_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> PortGainMatrix:
    """Sample a K x N gain matrix under any dependence model."""
    return PortGainMatrix(_draw(dep, n_users, n_ports, rng, False))


def sample_best_gains(
    dep: DependenceSpec, n_users: int, n_ports: int, rng: RngLike
) -> np.ndarray:
    """Each user's best-port gain: ``sample_port_gains(...).gains.max(axis=1)``."""
    return _draw(dep, n_users, n_ports, rng, True)


def select_ports(gains: PortGainMatrix) -> np.ndarray:
    """Each user's strongest-port power gain, the (K,) row maxima."""
    g = gains.gains
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gain matrix must be a nonempty K x N array")
    return g.max(axis=1)
