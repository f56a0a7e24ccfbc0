r"""Circular-ensemble eigenvalue sampling and characteristic-polynomial
functionals.

A draw consists of n eigenangles with joint density

    (1/n!) prod_{k<j} |e^{i theta_k} - e^{i theta_j}|^2  prod_k dtheta_k/(2 pi),

the eigenvalue law of an n x n Haar-random unitary.  On top of a draw we
evaluate the random function

    f(theta) = |p_n(theta)|^alpha * exp(beta * Im log p_n(theta)),

where p_n(theta) = prod_k (1 - e^{i(theta_k - theta)}) and Im log p_n is the
sum of per-eigenvalue principal logarithms: with x = (theta_k - theta) mod
2*pi in (0, 2*pi), each term equals (x - pi)/2 and lies in (-pi/2, pi/2].
This per-eigenvalue branch is NOT the principal argument of the product, so
all branch computations go through the eigenangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator
from scipy.special import loggamma

from .grids import TWO_PI, grid_step, uniform_grid
from .montecarlo import RetryableSampleError, as_generator
from .special import PoleError

__all__ = [
    "COLLISION_TOL",
    "SingularityError",
    "EigenSample",
    "ExponentPair",
    "TraceVector",
    "sample_cue",
    "charpoly_log",
    "trace_powers",
    "f_value",
    "f_truncated",
    "exact_mean_f",
    "integrate_f",
]

# Angular distance below which an evaluation point counts as hitting an
# eigenangle; such hits raise SingularityError instead of returning inf.
COLLISION_TOL = 1e-12


class SingularityError(RetryableSampleError):
    """An evaluation angle coincides with an eigenangle to machine precision."""


@dataclass(eq=False)
class EigenSample:
    """One draw of n eigenangles, sorted ascending in [0, 2*pi).

    Coincident angles are rejected: they occur with probability zero and
    would make the characteristic polynomial vanish identically.
    """

    n: int
    angles: np.ndarray

    def __post_init__(self):
        self.n = int(self.n)
        self.angles = np.asarray(self.angles, dtype=float)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.angles.ndim != 1 or self.angles.size != self.n:
            raise ValueError(
                f"expected {self.n} angles, got shape {self.angles.shape}"
            )
        if self.angles[0] < 0.0 or self.angles[-1] >= TWO_PI:
            raise ValueError("angles must lie in [0, 2*pi)")
        if self.n > 1 and np.any(np.diff(self.angles) <= 0.0):
            raise ValueError("angles must be strictly increasing")


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (alpha, beta) of |p_n|^alpha * e^{beta Im log p_n}."""

    alpha: float
    beta: float

    @property
    def gamma_sq(self) -> float:
        return self.alpha * self.alpha + self.beta * self.beta

    @property
    def in_main_domain(self) -> bool:
        """Parameter region of the chaos-convergence experiments:
        alpha > -1/2 and alpha^2 + beta^2 < 2.  Construction outside the
        region is permitted; callers running those experiments must check."""
        return self.alpha > -0.5 and self.gamma_sq < 2.0


@dataclass(eq=False)
class TraceVector:
    """Power-sum traces Tr U^j = sum_k e^{i j theta_k} for j = 1..j_max."""

    j_max: int
    traces: np.ndarray

    def __post_init__(self):
        self.j_max = int(self.j_max)
        self.traces = np.asarray(self.traces, dtype=complex)
        if self.j_max < 1:
            raise ValueError(f"need j_max >= 1, got {self.j_max}")
        if self.traces.ndim != 1 or self.traces.size != self.j_max:
            raise ValueError(
                f"expected {self.j_max} traces, got shape {self.traces.shape}"
            )


def _fourier_features(thetas: np.ndarray, n: int) -> np.ndarray:
    """Columns (1, z, ..., z^{n-1}) with z = e^{i theta}; the projection
    kernel is K(t, x) = <feat(x), feat(t)> / 2pi and ||feat||^2 = n."""
    z = np.exp(1j * np.asarray(thetas, dtype=float))
    factors = np.empty((n,) + z.shape, dtype=complex)
    factors[0] = 1.0
    factors[1:] = z
    return np.cumprod(factors, axis=0)


def _sample_kernel_backend(n: int, rng: Generator) -> np.ndarray:
    # Sequential determinantal sampling: each new point is drawn from the
    # diagonal of the projection kernel conditioned on the points found so
    # far, by rejection against the uniform envelope K(theta,theta) = n/2pi.
    # In the Fourier feature representation the conditioned diagonal at a
    # proposal theta is (n - ||E^H feat(theta)||^2) / 2pi, where E holds an
    # orthonormal basis of the accepted points' feature span, so the accept
    # probability is (n - ||E^H feat||^2) / n.
    pts = np.empty(n)
    pts[0] = TWO_PI * rng.random()
    if n == 1:
        return pts
    basis = np.empty((n, n - 1), dtype=complex)
    basis[:, 0] = _fourier_features(pts[0], n) / math.sqrt(n)
    m = 1
    while m < n:
        remaining = n - m
        batch = 16 if 3 * remaining > n else min(4 * n, (3 * n) // remaining)
        draws = rng.random(2 * batch)
        props = TWO_PI * draws[:batch]
        phi = _fourier_features(props, n)
        coeff = basis[:, :m].conj().T @ phi
        resid = n - np.einsum("ij,ij->j", coeff.conj(), coeff).real
        accepted = np.flatnonzero(draws[batch:] * n < resid)
        if accepted.size == 0:
            continue
        b = int(accepted[0])
        w = phi[:, b] - basis[:, :m] @ coeff[:, b]
        # second orthogonalization pass keeps the basis orthonormal at
        # machine precision as m grows
        w -= basis[:, :m] @ (basis[:, :m].conj().T @ w)
        norm = np.linalg.norm(w)
        pts[m] = props[b]
        if m < n - 1:
            basis[:, m] = w / norm
        m += 1
    pts.sort()
    return pts


def _sample_qr_backend(n: int, rng: Generator) -> np.ndarray:
    # Haar unitary from QR of a complex Ginibre matrix; multiplying the
    # columns of Q by the phases of diag(R) makes the factorization unique
    # and the resulting Q exactly Haar distributed.
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    angles = np.mod(np.angle(np.linalg.eigvals(q)), TWO_PI)
    angles[angles >= TWO_PI] -= TWO_PI
    angles.sort()
    return angles


def sample_cue(n: int, stream, backend: str = "kernel") -> EigenSample:
    """Draw one n-point circular-ensemble eigenangle configuration.

    Parameters
    ----------
    n : int
        Matrix size (>= 1).
    stream : RngStream | numpy Generator | int
        Source of randomness; an int is treated as a seed.
    backend : {"kernel", "qr"}
        "kernel" (default) samples the determinantal point process directly
        through its projection kernel and never materializes a matrix;
        "qr" diagonalizes a Haar unitary built by QR of a Ginibre matrix.
        The two agree in law and are cross-validated by the test suite.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = as_generator(stream)
    if backend == "kernel":
        angles = _sample_kernel_backend(n, rng)
    elif backend == "qr":
        angles = _sample_qr_backend(n, rng)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return EigenSample(n=n, angles=angles)


def _angle_offsets(sample: EigenSample, theta) -> np.ndarray:
    """x = (theta_k - theta) mod 2*pi for every eigenangle, shape (..., n)."""
    theta = np.asarray(theta, dtype=float)
    return np.mod(sample.angles - theta[..., None], TWO_PI)


def charpoly_log(sample: EigenSample, theta: float) -> tuple[float, float]:
    """log|p_n(theta)| and the branch-summed Im log p_n(theta).

    Returns
    -------
    (logabs, imlog) : tuple of floats
        logabs = sum_k log|1 - e^{i(theta_k - theta)}|,
        imlog = sum_k (x_k - pi)/2 with x_k = (theta_k - theta) mod 2*pi;
        each branch term lies in (-pi/2, pi/2].

    Raises
    ------
    SingularityError
        If theta is within 1e-12 of an eigenangle.
    """
    x = _angle_offsets(sample, float(theta))
    if np.any(np.minimum(x, TWO_PI - x) < COLLISION_TOL):
        raise SingularityError(f"theta={theta} hits an eigenangle")
    logabs = float(np.sum(np.log(2.0 * np.sin(0.5 * x))))
    imlog = float(np.sum(0.5 * (x - np.pi)))
    return logabs, imlog


def trace_powers(sample: EigenSample, j_max: int) -> TraceVector:
    """Traces Tr U^j = sum_k e^{i j theta_k} for j = 1..j_max."""
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError(f"need j_max >= 1, got {j_max}")
    j = np.arange(1, j_max + 1)
    traces = np.exp(1j * j[:, None] * sample.angles[None, :]).sum(axis=1)
    return TraceVector(j_max=j_max, traces=traces)


def f_value(sample: EigenSample, theta: float, p: ExponentPair) -> float:
    """|p_n(theta)|^alpha * exp(beta * Im log p_n(theta))."""
    logabs, imlog = charpoly_log(sample, theta)
    return math.exp(p.alpha * logabs + p.beta * imlog)


def f_truncated(traces: TraceVector, theta: float, p: ExponentPair, k: int) -> float:
    """Degree-k truncation of f built from the trace expansion of log p_n.

    Equals exp(-sum_{j<=k} (1/j) Re[(alpha - i beta) Tr U^j e^{-ij theta}]),
    the exponential of the Fourier modes of order <= k of log f.
    """
    k = int(k)
    if k < 1 or k > traces.j_max:
        raise ValueError(f"need 1 <= k <= {traces.j_max}, got {k}")
    j = np.arange(1, k + 1)
    w = (p.alpha - 1j * p.beta) * traces.traces[:k] * np.exp(-1j * j * theta)
    return math.exp(-float(np.sum(w.real / j)))


def exact_mean_f(n: int, p: ExponentPair) -> float:
    """E f(theta) for the n-point ensemble, by the closed Gamma product

        prod_{j=1}^{n} Gamma(j) Gamma(j+alpha) /
                       [Gamma(j+(alpha+i beta)/2) Gamma(j+(alpha-i beta)/2)].

    The mean is theta-independent by rotation invariance.  The product form
    is validated in the test suite against direct quadrature at n = 1, 2
    and against the telescoping value n+1 at alpha = 2, beta = 0.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p.alpha <= -1.0:
        raise PoleError(f"exact_mean_f requires alpha > -1, got {p.alpha}")
    j = np.arange(1, n + 1)
    half = j + 0.5 * (p.alpha + 1j * p.beta)
    log_mean = np.sum(
        loggamma(j) + loggamma(j + p.alpha) - 2.0 * np.real(loggamma(half))
    )
    return float(np.exp(log_mean))


def _f_on_grid(sample: EigenSample, thetas: np.ndarray, p: ExponentPair) -> np.ndarray:
    """Vectorized f over a batch of angles (already collision-free)."""
    x = _angle_offsets(sample, thetas)
    if np.any(np.minimum(x, TWO_PI - x) < COLLISION_TOL):
        raise SingularityError("grid node hits an eigenangle after shifting")
    logabs = np.sum(np.log(2.0 * np.sin(0.5 * x)), axis=-1)
    imlog = np.sum(0.5 * (x - np.pi), axis=-1)
    return np.exp(p.alpha * logabs + p.beta * imlog)


def integrate_f(sample: EigenSample, g, p: ExponentPair, grid=None) -> float:
    """Quadrature of g against the normalized measure f(theta)/E f dtheta.

    Parameters
    ----------
    g : callable, array, or scalar
        Test function; a callable is evaluated (vectorized) on the grid, an
        array must match the grid length.
    grid : 1-d array, optional
        Uniform angle grid; defaults to uniform_grid(max(512, 8n)).  Must
        have at least 4n nodes to resolve the 1/n-scale oscillations.
        Nodes colliding with an eigenangle are shifted by half a step.

    With g identically 1 the result is the total mass of the normalized
    measure, which has expectation 2*pi.
    """
    if grid is None:
        grid = uniform_grid(max(512, 8 * sample.n))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 4 * sample.n:
        raise ValueError(
            f"grid size {grid.size} too coarse for n={sample.n}; need >= {4 * sample.n}"
        )
    h = grid_step(grid)
    thetas = grid.copy()
    x = _angle_offsets(sample, thetas)
    colliding = np.minimum(x, TWO_PI - x).min(axis=-1) < COLLISION_TOL
    if np.any(colliding):
        thetas[colliding] += 0.5 * h
    fvals = _f_on_grid(sample, thetas, p)
    if callable(g):
        gvals = np.asarray(g(thetas), dtype=float)
        gvals = np.broadcast_to(gvals, thetas.shape)
    else:
        gvals = np.broadcast_to(np.asarray(g, dtype=float), thetas.shape)
    total = float(np.sum(gvals * fvals)) * h
    return total / exact_mean_f(sample.n, p)
