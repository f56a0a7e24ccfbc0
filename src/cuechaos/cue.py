r"""Circular-ensemble draws and characteristic-polynomial functionals.

A draw is one n x n Haar-random unitary, seen through its n eigenangles with
joint density

    (1/n!) prod_{k<j} |e^{i theta_k} - e^{i theta_j}|^2  prod_k dtheta_k/(2 pi),

or through its n Verblunsky coefficients, which for this ensemble are
independent (Killip & Nenciu, IMRN 2004).  On top of a draw we evaluate the
random function

    f(theta) = |p_n(theta)|^alpha * exp(beta * Im log p_n(theta)),

where p_n(theta) = prod_k (1 - e^{i(theta_k - theta)}) and Im log p_n is the
sum of per-eigenvalue principal logarithms: with x = (theta_k - theta) mod
2*pi in (0, 2*pi), each term equals (x - pi)/2 and lies in (-pi/2, pi/2].
This per-eigenvalue branch is NOT the principal argument of the product.

From Verblunsky coefficients the same branch is a sum over the factors of
p_n(theta) = prod_k (1 - gamma_k(theta)) that the Szego recursion produces,
1 - gamma_k = Phi_{k+1}(z) / (z Phi_k(z)) at z = e^{i theta}: each factor
has nonnegative real part, so the sum of their principal arguments is a
branch of arg p_n.  It jumps by +pi at every zero, because arg gamma_{n-1}
decreases strictly in theta, and its mean over the circle is 0 because each
log(1 - gamma_k) is analytic outside the disk and vanishes at infinity.  The
per-eigenvalue branch has the same jumps and the same mean, so the two agree
at every theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator
from scipy.special import loggamma

from .grids import TWO_PI, grid_reduce, grid_step, uniform_grid
from .montecarlo import RetryableSampleError, RngStream, as_generator, stream_draws
from .special import PoleError

__all__ = [
    "COLLISION_TOL",
    "SingularityError",
    "EigenSample",
    "VerblunskySample",
    "ExponentPair",
    "TraceVector",
    "sample_cue",
    "sample_verblunsky_block",
    "charpoly_log",
    "trace_powers",
    "f_value",
    "f_block",
    "f_truncated",
    "exact_mean_f",
    "integrate_f",
    "total_mass_block",
]

# Angular distance below which an evaluation point counts as hitting an
# eigenangle; such hits raise SingularityError instead of returning inf.
COLLISION_TOL = 1e-12

# Largest accepted deviation of |alpha_{n-1}| from 1 in a VerblunskySample.
_UNIT_TOL = 1e-12


class SingularityError(RetryableSampleError):
    """An evaluation angle coincides with a zero of p_n to machine precision,
    or f is not finite there."""


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

    def log_charpoly(self, theta, branch: bool = True):
        """log|p_n| and the per-eigenvalue Im log p_n at angles theta (any
        shape); Im log p_n is None when branch is False.

        Raises SingularityError if an angle is within COLLISION_TOL of an
        eigenangle.
        """
        x = _angle_offsets(self, theta)
        if np.any(np.minimum(x, TWO_PI - x) < COLLISION_TOL):
            raise SingularityError("evaluation angle hits an eigenangle")
        logabs = np.sum(np.log(2.0 * np.sin(0.5 * x)), axis=-1)
        imlog = np.sum(0.5 * (x - np.pi), axis=-1) if branch else None
        return logabs, imlog

    def traces(self, j_max: int) -> np.ndarray:
        """Tr U^j = sum_k e^{i j theta_k} for j = 1..j_max."""
        j = np.arange(1, j_max + 1)
        return np.exp(1j * j[:, None] * self.angles[None, :]).sum(axis=1)


def _szego_step(a, zphi, phis):
    """One step of the Szego recursion, from z Phi_k and Phi_k^*:

        Phi_{k+1} = z Phi_k - conj(alpha_k) Phi_k^*,
        Phi_{k+1}^* = Phi_k^* - alpha_k z Phi_k.

    The polynomials may be held as values at points of the circle or as
    coefficient vectors; a is alpha_k, a scalar or an array that broadcasts
    against them.  Returns (Phi_{k+1}, Phi_{k+1}^*).
    """
    return zphi - a.conjugate() * phis, phis - a * zphi


def _szego(alphas, z, start):
    """The Szego recursion on values at the points z of the circle, from
    Phi_0 = Phi_0^* = start.  alphas[..., k] is alpha_k: a scalar for one
    draw, or the alpha_k of a block of draws shaped to broadcast against z.
    Yields (z Phi_k, Phi_{k+1}, Phi_{k+1}^*) for k = 0, 1, ..., n - 1.
    """
    phi = phis = start
    for a in np.moveaxis(np.asarray(alphas, dtype=complex), -1, 0):
        zphi = z * phi
        phi, phis = _szego_step(a, zphi, phis)
        yield zphi, phi, phis


def _szego_coeffs_step(a, phi: np.ndarray, phis: np.ndarray, k: int) -> None:
    """Step k of the Szego recursion on coefficient vectors (last axis,
    lowest order first, modulo z^L with L = phi.shape[-1]), in place.

    Phi_k and Phi_k^* have k + 1 coefficients, so the step reads and writes
    only the first min(k + 2, L) of each: the entries beyond stay 0.
    """
    live = min(k + 2, phi.shape[-1])
    zphi = np.zeros(phi.shape[:-1] + (live,), dtype=complex)
    zphi[..., 1:] = phi[..., : live - 1]
    phi[..., :live], phis[..., :live] = _szego_step(a, zphi, phis[..., :live])


def _phi_coeffs(alphas: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of Phi_n and Phi_n^* modulo z^size (last axis, lowest
    order first) for Verblunsky coefficients alphas of shape (..., n); exact
    for size = n + 1."""
    phi = np.zeros(alphas.shape[:-1] + (size,), dtype=complex)
    phi[..., 0] = 1.0
    phis = phi.copy()
    for k in range(alphas.shape[-1]):
        _szego_coeffs_step(alphas[..., k, None], phi, phis, k)
    return phi, phis


def _power_sums(coeffs: np.ndarray, j_max: int) -> np.ndarray:
    """p_j = sum_i lambda_i^j for j = 1..j_max by Newton's identities, from
    the leading coefficients of the monic prod_{i<=n} (z - lambda_i) =
    sum_m a_m z^{n-m}: coeffs[..., m] = a_m for m <= N, with N = n or
    N >= j_max.  Leading axes are draws.

        p_j = -sum_{m=1}^{min(j-1, N)} a_m p_{j-m} - j a_j [j <= N].
    """
    n = coeffs.shape[-1] - 1
    sums = np.empty(coeffs.shape[:-1] + (j_max,), dtype=complex)
    for j in range(1, j_max + 1):
        m = min(j - 1, n)
        # contiguous operands let matmul take BLAS's dot for every draw, the
        # same arithmetic for one draw as for a block
        earlier = np.ascontiguousarray(sums[..., j - 1 - m:j - 1][..., ::-1])
        total = np.matmul(coeffs[..., None, 1:m + 1], earlier[..., None])[..., 0, 0]
        if j <= n:
            total += j * coeffs[..., j]
        sums[..., j - 1] = -total
    return sums


def _verblunsky_alphas(n: int, u: np.ndarray) -> np.ndarray:
    # Killip & Nenciu: alpha_0..alpha_{n-2} are independent and rotation
    # invariant with |alpha_k|^2 ~ Beta(1, n-k-1), and alpha_{n-1} is uniform
    # on the circle.  u[..., k] sets |alpha_k|^2 = 1 - (1 - u[..., k])^{1/(n-k-1)}
    # (inverse CDF) and u[..., n-1+k] sets arg alpha_k = 2 pi u[..., n-1+k].
    radii = np.ones(u.shape[:-1] + (n,))
    radii[..., :-1] = np.sqrt(-np.expm1(np.log1p(-u[..., : n - 1]) / np.arange(n - 1, 0, -1)))
    return radii * np.exp(TWO_PI * 1j * u[..., n - 1 :])


@dataclass(eq=False)
class VerblunskySample:
    """Verblunsky coefficients alpha_0..alpha_{n-1} of one draw, shape (n,),
    or of a block of draws, shape (draws, n).

    |alpha_k| < 1 for k < n - 1 and |alpha_{n-1}| = 1 (to 1e-12): these are
    the coefficients of an n x n unitary with a cyclic vector, and its
    characteristic polynomial is Phi_n of the Szego recursion, so
    p_n(theta) = e^{-i n theta} Phi_n(e^{i theta}).  No eigensolve is done.
    The methods of a block give each draw's values along a leading axis.
    """

    n: int
    alphas: np.ndarray

    def __post_init__(self):
        self.n = int(self.n)
        self.alphas = np.asarray(self.alphas, dtype=complex)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.alphas.ndim not in (1, 2) or self.alphas.shape[-1] != self.n:
            raise ValueError(
                f"expected {self.n} Verblunsky coefficients, got shape {self.alphas.shape}"
            )
        radii = np.abs(self.alphas)
        if not np.all(radii[..., :-1] < 1.0):
            raise ValueError("need |alpha_k| < 1 for k < n - 1")
        if not np.all(np.abs(radii[..., -1] - 1.0) <= _UNIT_TOL):
            raise ValueError(f"need |alpha_(n-1)| = 1, got {radii[..., -1]!r}")

    def log_charpoly(self, theta, branch: bool = True):
        """log|p_n| and Im log p_n at angles theta (any shape), by the Szego
        recursion on the values at e^{i theta}; Im log p_n, the sum of the
        principal arguments of the factors Phi_{k+1} / (z Phi_k), is None
        when branch is False.  A block puts its draw axis first.

        Raises SingularityError if |p_n| underflows to 0 or is not finite.
        """
        z = np.exp(1j * np.asarray(theta, dtype=float))
        draws = self.alphas.shape[:-1]
        alphas = self.alphas.reshape(draws + (1,) * z.ndim + (self.n,))
        shape = draws + z.shape
        # one draw at one angle runs on a length-1 array, not on numpy
        # scalars, so that it does the arithmetic of a block
        one = np.ones(shape or (1,), dtype=complex)
        imlog = np.zeros(one.shape) if branch else None
        for zphi, phi, _ in _szego(alphas, z, one):
            if branch:
                factor = phi / zphi
                imlog += np.arctan2(factor.imag, factor.real)
        modulus = np.abs(phi)
        if not np.all((modulus > 0.0) & (modulus < np.inf)):
            raise SingularityError("|p_n| underflows to 0 or overflows")
        return np.log(modulus).reshape(shape), None if imlog is None else imlog.reshape(shape)

    def traces(self, j_max: int) -> np.ndarray:
        """Tr U^j for j = 1..j_max (last axis), by Newton's identities.

        The Szego recursion runs on coefficient vectors modulo z^L,
        L = min(j_max, n) + 1, which is exact for the lowest L coefficients
        of Phi_n^*(z) = prod_k (1 - conj(lambda_k) z): the conjugates of
        the L leading coefficients of Phi_n, all that the identities use.
        """
        _, phis = _phi_coeffs(self.alphas, min(j_max, self.n) + 1)
        return _power_sums(phis.conj(), j_max)


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
    """Power-sum traces Tr U^j = sum_k e^{i j theta_k} for j = 1..j_max,
    shape (j_max,), or (draws, j_max) for a block of draws."""

    j_max: int
    traces: np.ndarray

    def __post_init__(self):
        self.j_max = int(self.j_max)
        self.traces = np.asarray(self.traces, dtype=complex)
        if self.j_max < 1:
            raise ValueError(f"need j_max >= 1, got {self.j_max}")
        if self.traces.ndim not in (1, 2) or self.traces.shape[-1] != self.j_max:
            raise ValueError(
                f"expected {self.j_max} traces, got shape {self.traces.shape}"
            )


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


def _sample_verblunsky_backend(n: int, rng: Generator) -> VerblunskySample:
    return VerblunskySample(n=n, alphas=_verblunsky_alphas(n, rng.random(2 * n - 1)))


def sample_cue(n: int, stream, backend: str = "qr") -> EigenSample | VerblunskySample:
    """Draw one n x n Haar unitary, as eigenangles or Verblunsky coefficients.

    Parameters
    ----------
    n : int
        Matrix size (>= 1).
    stream : RngStream | numpy Generator | int
        Source of randomness; an int is treated as a seed.
    backend : {"qr", "verblunsky"}
        "qr" (default) diagonalizes a Haar unitary built by QR of a Ginibre
        matrix (Mezzadri, Notices AMS 2007) and returns an EigenSample.
        "verblunsky" draws the n independent Verblunsky coefficients of
        Killip & Nenciu and returns a VerblunskySample, which evaluates p_n
        and the traces by the Szego recursion with no eigensolve and has no
        angles.  It reads the stream once, u = rng.random(2n - 1): u[0..n-2]
        give the moduli of alpha_0..alpha_{n-2} and u[n-1..2n-2] the phases
        of alpha_0..alpha_{n-1}.  The two agree in law and are
        cross-validated by the test suite.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = as_generator(stream)
    if backend == "qr":
        return EigenSample(n=n, angles=_sample_qr_backend(n, rng))
    if backend == "verblunsky":
        return _sample_verblunsky_backend(n, rng)
    raise ValueError(f"unknown backend {backend!r}")


def sample_verblunsky_block(n: int, streams: list[RngStream]) -> VerblunskySample:
    """One Verblunsky draw per stream, as a block VerblunskySample of shape
    (len(streams), n): row i holds the coefficients that
    sample_cue(n, streams[i], "verblunsky") draws, by the same formula."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = stream_draws(streams, lambda rng: rng.random(2 * n - 1))
    return VerblunskySample(n=n, alphas=_verblunsky_alphas(n, u))


def _angle_offsets(sample: EigenSample, theta) -> np.ndarray:
    """x = (theta_k - theta) mod 2*pi for every eigenangle, shape (..., n)."""
    theta = np.asarray(theta, dtype=float)
    return np.mod(sample.angles - theta[..., None], TWO_PI)


def charpoly_log(sample: EigenSample | VerblunskySample, theta: float) -> tuple[float, float]:
    """log|p_n(theta)| and the branch-summed Im log p_n(theta).

    Returns
    -------
    (logabs, imlog) : tuple of floats
        logabs = sum_k log|1 - e^{i(theta_k - theta)}|,
        imlog = sum_k (x_k - pi)/2 with x_k = (theta_k - theta) mod 2*pi;
        each branch term lies in (-pi/2, pi/2].  A VerblunskySample gives
        the same branch as a sum over the Szego factors (module docstring).

    Raises
    ------
    SingularityError
        If theta is within 1e-12 of an eigenangle (EigenSample), or |p_n|
        underflows to 0 (VerblunskySample).
    """
    logabs, imlog = sample.log_charpoly(float(theta))
    return float(logabs), float(imlog)


def trace_powers(sample: EigenSample | VerblunskySample, j_max: int) -> TraceVector:
    """Traces Tr U^j = sum_k e^{i j theta_k} for j = 1..j_max; a block
    VerblunskySample gives a block TraceVector."""
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError(f"need j_max >= 1, got {j_max}")
    return TraceVector(j_max=j_max, traces=sample.traces(j_max))


def _log_f(sample: EigenSample | VerblunskySample, theta, p: ExponentPair):
    """alpha log|p_n| + beta Im log p_n at theta; the branch is computed only
    when beta != 0."""
    logabs, imlog = sample.log_charpoly(theta, branch=p.beta != 0.0)
    return p.alpha * logabs if imlog is None else p.alpha * logabs + p.beta * imlog


def f_value(sample: EigenSample | VerblunskySample, theta: float, p: ExponentPair) -> float:
    """|p_n(theta)|^alpha * exp(beta * Im log p_n(theta)) of one draw.

    Raises SingularityError where charpoly_log does, or if f overflows.
    """
    return f_block(sample, theta, p).item()


def f_block(sample: EigenSample | VerblunskySample, theta: float, p: ExponentPair) -> np.ndarray:
    """f(theta) of every draw of a sample: shape () for one draw, (draws,)
    for a block VerblunskySample.  Each value is math.exp of
    alpha log|p_n| + beta Im log p_n, as in f_value.

    Raises SingularityError where charpoly_log does, or if f overflows.
    """
    log_f = np.asarray(_log_f(sample, float(theta), p))
    try:
        values = [math.exp(x) for x in log_f.ravel().tolist()]
    except OverflowError as exc:
        raise SingularityError(f"f overflows at theta={theta}") from exc
    return np.reshape(values, log_f.shape)


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


def _shift_collisions(sample: EigenSample, grid: np.ndarray, h: float) -> np.ndarray:
    """The grid with every node closer than COLLISION_TOL to an eigenangle
    moved by half a step."""
    thetas = grid.copy()
    x = _angle_offsets(sample, thetas)
    colliding = np.minimum(x, TWO_PI - x).min(axis=-1) < COLLISION_TOL
    if np.any(colliding):
        thetas[colliding] += 0.5 * h
    return thetas


def _quadrature_grid(n: int, grid) -> tuple[np.ndarray, float]:
    """The grid (default uniform_grid(max(512, 8n))) and its step; it must
    be uniform and have at least 4n nodes."""
    if grid is None:
        grid = uniform_grid(max(512, 8 * n))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 4 * n:
        raise ValueError(
            f"grid size {grid.size} too coarse for n={n}; need >= {4 * n}"
        )
    return grid, grid_step(grid)


def integrate_f(sample: EigenSample | VerblunskySample, g, p: ExponentPair, grid=None) -> float:
    """Quadrature of g against the normalized measure f(theta)/E f dtheta.

    Parameters
    ----------
    sample : EigenSample or VerblunskySample
        One draw; a block's total masses at beta = 0 come from
        total_mass_block.
    g : callable, array, or scalar
        Test function; a callable is evaluated (vectorized) on the grid, an
        array must match the grid length.
    grid : 1-d array, optional
        Uniform angle grid; defaults to uniform_grid(max(512, 8n)).  Must
        have at least 4n nodes to resolve the 1/n-scale oscillations.
        For an EigenSample, nodes colliding with an eigenangle are shifted
        by half a step.

    With g identically 1 the result is the total mass of the normalized
    measure, which has expectation 2*pi.  f comes from the Szego recursion
    on the grid values (VerblunskySample) or the eigenangles.  Raises
    SingularityError if f is not finite at a node.
    """
    if isinstance(sample, VerblunskySample) and sample.alphas.ndim != 1:
        raise ValueError("integrate_f takes one draw; total_mass_block takes a block")
    grid, h = _quadrature_grid(sample.n, grid)
    thetas = _shift_collisions(sample, grid, h) if isinstance(sample, EigenSample) else grid
    fvals = np.exp(_log_f(sample, thetas, p))
    if not np.all(np.isfinite(fvals)):
        raise SingularityError("f is not finite on the grid")
    if callable(g):
        gvals = np.asarray(g(thetas), dtype=float)
        gvals = np.broadcast_to(gvals, thetas.shape)
    else:
        gvals = np.broadcast_to(np.asarray(g, dtype=float), thetas.shape)
    total = float(np.sum(gvals * fvals)) * h
    return total / exact_mean_f(sample.n, p)


def total_mass_block(sample: VerblunskySample, p: ExponentPair, grid=None) -> np.ndarray:
    """integrate_f(sample, 1.0, p, grid) of every draw of a VerblunskySample
    at beta = 0 and alpha >= 0: shape () for one draw, (draws,) for a block.

    |p_n| = |Phi_n| on the grid comes from the n + 1 coefficients of Phi_n
    (the Szego recursion on coefficient vectors, over the whole block) by
    one inverse FFT per draw, 16 draws at a time (grid_reduce), not from the
    recursion on grid values, so it agrees with
    integrate_f to rounding, not bitwise.  Only |p_n| is read off the grid:
    Im log p_n jumps by pi at each zero, and two zeros in one cell would be
    lost.  The FFT's rounding error is absolute, of order 1e-16 times the
    size of p_n; alpha < 0 would magnify it at a node near a zero (to 1e-11
    relative in the mass at alpha = -0.4, n = 16), so it is refused.
    The grid checks and the SingularityErrors are integrate_f's.
    """
    if p.beta != 0.0 or p.alpha < 0.0:
        raise ValueError(f"total_mass_block needs beta = 0 and alpha >= 0, got {p}")
    grid, h = _quadrature_grid(sample.n, grid)
    mean = exact_mean_f(sample.n, p)

    def masses(series: np.ndarray) -> np.ndarray:
        modulus = np.abs(series)
        if not np.all((modulus > 0.0) & (modulus < np.inf)):
            raise SingularityError("|p_n| underflows to 0 or overflows")
        fvals = np.exp(p.alpha * np.log(modulus))
        if not np.all(np.isfinite(fvals)):
            raise SingularityError("f is not finite on the grid")
        return np.sum(fvals, axis=-1) * h / mean

    phi, _ = _phi_coeffs(sample.alphas, sample.n + 1)
    dense = np.concatenate((np.zeros(phi.shape[:-1] + (sample.n,), dtype=complex), phi), axis=-1)
    return grid_reduce(dense, grid.size, grid[0], masses)
