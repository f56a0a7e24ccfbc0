r"""Symbols with power/jump singularities, their Fourier coefficients, and
exact Toeplitz log-determinants.

A symbol is represented in the factorized form

    f(e^{i phi}) = e^{V(e^{i phi})} z^{sum_j beta_j}
                   prod_j |z - z_j|^{2 alpha_j} g_{z_j,beta_j}(z) z_j^{-beta_j},

with z = e^{i phi}, phi in [0, 2*pi), V a trigonometric polynomial, and the
jump factor g equal to e^{i pi beta_j} for phi < theta_j and e^{-i pi beta_j}
for phi >= theta_j.  The three symbol families sigma1 (smooth), sigma2 (one
singularity) and sigma3 (two singularities) arise from second-moment
computations for characteristic-polynomial measures; their singularity data
is always (alpha/2, -i beta/2), which this factorization carries verbatim.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, toeplitz as _toeplitz_matrix

from .cue import ExponentPair, SingularityError, _szego_coeffs_step, sample_cue
from .grids import TWO_PI, grid_series, trig_series
from .montecarlo import MCEstimate, RngStream, run_mc_detailed

__all__ = [
    "Singularity",
    "SymbolSpec",
    "FourierCoeffs",
    "ToeplitzResult",
    "symbol_eval",
    "make_sigma",
    "fourier_coeffs",
    "toeplitz_logdet",
    "toeplitz_logdets",
    "check_dense_size",
    "heine_szego_check",
    "DEFAULT_FFT_SINGULAR",
    "DEFAULT_FFT_SMOOTH",
]

# Transform sizes: singular symbols need the big grid for the documented
# O(N^{-1-2*alpha}) midpoint error to stay below determinant tolerances.
DEFAULT_FFT_SINGULAR = 1 << 20
DEFAULT_FFT_SMOOTH = 1 << 14

_LOC_TOL = 1e-12


@dataclass(frozen=True)
class Singularity:
    """One Fisher-Hartwig factor |z - z_j|^{2 alpha_j} with jump beta_j.

    location is the angle theta_j in [0, 2*pi); alpha_exp is alpha_j (so the
    absolute-value factor carries exponent 2*alpha_j); beta_jump may be
    complex (the symbol families use purely imaginary -i*beta/2).
    """

    location: float
    alpha_exp: float
    beta_jump: complex

    def __post_init__(self):
        loc = float(self.location)
        if not 0.0 <= loc < TWO_PI:
            raise ValueError(f"location must lie in [0, 2*pi), got {loc}")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "alpha_exp", float(self.alpha_exp))
        object.__setattr__(self, "beta_jump", complex(self.beta_jump))


@dataclass(eq=False)
class SymbolSpec:
    """Trig-polynomial exponent coefficients plus a singularity list.

    v_coeffs maps integer order j to V_j, and v_dense lays them out densely.
    For a real-valued exponent the coefficients satisfy V_{-j} = conj(V_j);
    this is not enforced, and complex-valued exponents are allowed.
    """

    v_coeffs: dict = field(default_factory=dict)
    singularities: list = field(default_factory=list)

    def __post_init__(self):
        self.v_coeffs = {int(j): complex(v) for j, v in self.v_coeffs.items()}
        self.singularities = list(self.singularities)
        for s in self.singularities:
            if not isinstance(s, Singularity):
                raise TypeError(f"expected Singularity, got {type(s)!r}")
        locs = [s.location for s in self.singularities]
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                gap = abs(locs[i] - locs[j])
                if min(gap, TWO_PI - gap) < _LOC_TOL:
                    raise ValueError(
                        f"singularity locations {locs[i]} and {locs[j]} coincide"
                    )

    @property
    def v_dense(self) -> np.ndarray:
        """V in the dense layout v_dense[k + j] = V_j of grids, k the
        largest order with V_j != 0 (the array [0] when V = 0)."""
        k = max((abs(j) for j, v in self.v_coeffs.items() if v != 0), default=0)
        dense = np.zeros(2 * k + 1, dtype=complex)
        for j, v in self.v_coeffs.items():
            if abs(j) <= k:
                dense[k + j] = v
        return dense


@dataclass(frozen=True)
class ToeplitzResult:
    """Size and principal-value log-determinant of a Toeplitz matrix."""

    n: int
    log_det: complex


@dataclass(eq=False)
class FourierCoeffs:
    """Coefficients c_k = int f(phi) e^{-ik phi} dphi/2pi for |k| <= order.

    values[order + k] holds c_k.
    """

    order: int
    values: np.ndarray

    def __post_init__(self):
        self.order = int(self.order)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (2 * self.order + 1,):
            raise ValueError(
                f"expected {2 * self.order + 1} values, got {self.values.shape}"
            )

    def get(self, k: int) -> complex:
        k = int(k)
        if abs(k) > self.order:
            raise IndexError(f"order {k} outside |k| <= {self.order}")
        return complex(self.values[self.order + k])

    __getitem__ = get


def _is_hermitian(spec: SymbolSpec, v_dense: np.ndarray) -> bool:
    """Whether the symbol is real on the circle: V_{-j} = conj(V_j) for
    every j and every beta_jump purely imaginary (alpha_exp is real)."""
    return bool(np.array_equal(v_dense, v_dense[::-1].conj())) and all(
        s.beta_jump.real == 0.0 for s in spec.singularities
    )


def _log_symbol(spec: SymbolSpec, phi: np.ndarray, v, real: bool) -> np.ndarray:
    """log f at angles phi in [0, 2*pi), an array, given v = V(phi) (None
    when V = 0):

        log f(phi) = V(phi) + sum_j [2 alpha_j log|2 sin((phi - theta_j)/2)|
                                     + i beta_j (((phi - theta_j) mod 2pi) - pi)].

    The jump term is the factor z^{beta_j} g_{z_j,beta_j}(z) z_j^{-beta_j}.
    With real=True only the real part of each term is kept, which is all of
    log f for a symbol that is real on the circle (_is_hermitian).

    Raises SingularityError if phi hits a singularity with negative alpha_exp.
    """
    if v is None:
        log_f = np.zeros(phi.shape, dtype=float if real else complex)
    else:
        log_f = np.array(v.real if real else v, dtype=float if real else complex)
    for s in spec.singularities:
        x = phi - s.location
        np.add(x, TWO_PI, out=x, where=x < 0.0)  # (phi - theta_j) mod 2*pi
        if s.alpha_exp != 0.0:
            dist = np.sin(0.5 * x)
            np.abs(dist, out=dist)
            dist *= 2.0
            if s.alpha_exp < 0 and np.any(dist < _LOC_TOL):
                raise SingularityError(
                    f"angle hits singularity at {s.location} with negative exponent"
                )
            with np.errstate(divide="ignore"):  # log 0 = -inf where f vanishes
                np.log(dist, out=dist)
            dist *= 2.0 * s.alpha_exp
            log_f += dist
        if s.beta_jump != 0:
            jump = 1j * s.beta_jump
            x -= math.pi
            log_f += (jump.real if real else jump) * x
    return log_f


def symbol_eval(spec: SymbolSpec, phi):
    """Evaluate the symbol at angle(s) phi; scalar in, scalar out.

    The value is exp of the log-symbol (_log_symbol) that fourier_coeffs
    transforms, with V summed by trig_series when V != 0.

    Raises
    ------
    SingularityError
        If phi hits the location of a singularity with negative alpha_exp
        (where the symbol diverges).
    """
    scalar = np.isscalar(phi) or np.asarray(phi).ndim == 0
    phi_arr = np.mod(np.atleast_1d(np.asarray(phi, dtype=float)), TWO_PI)
    exponent = spec.v_dense
    v = trig_series(exponent, phi_arr) if np.any(exponent != 0) else None
    value = np.exp(_log_symbol(spec, phi_arr, v, real=False))
    return complex(value[0]) if scalar else value


def make_sigma(which: int, theta: float, theta2: float, p: ExponentPair, k: int) -> SymbolSpec:
    """Build the second-moment symbol families.

    which=1: pure trig exponent with V_j = -(alpha - i beta)
             (e^{-ij theta} + e^{-ij theta2}) / (2j) for 1 <= j <= k.
    which=2: the theta trig part only, plus one singularity
             (alpha/2, -i beta/2) at theta2.
    which=3: V = 0 and two singularities (alpha/2, -i beta/2) at theta and
             theta2 (which must be distinct mod 2*pi).
    """
    which = int(which)
    k = int(k)
    if which not in (1, 2, 3):
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    theta = float(theta)
    theta2 = float(theta2)
    a_minus_ib = p.alpha - 1j * p.beta
    sing = (0.5 * p.alpha, -0.5j * p.beta)

    v_coeffs: dict = {}
    if which in (1, 2):
        for j in range(1, k + 1):
            phase = np.exp(-1j * j * theta)
            if which == 1:
                phase = phase + np.exp(-1j * j * theta2)
            vj = -a_minus_ib * phase / (2.0 * j)
            v_coeffs[j] = vj
            v_coeffs[-j] = np.conj(vj)

    singularities = []
    if which == 2:
        singularities.append(
            Singularity(np.mod(theta2, TWO_PI), sing[0], sing[1])
        )
    elif which == 3:
        gap = abs(np.mod(theta - theta2, TWO_PI))
        if min(gap, TWO_PI - gap) < _LOC_TOL:
            raise ValueError("sigma3 requires distinct angles theta != theta2")
        for loc in (theta, theta2):
            singularities.append(
                Singularity(np.mod(loc, TWO_PI), sing[0], sing[1])
            )
    return SymbolSpec(v_coeffs=v_coeffs, singularities=singularities)


def fourier_coeffs(spec: SymbolSpec, max_order: int, fft_size: int | None = None) -> FourierCoeffs:
    """Fourier coefficients of the symbol by a midpoint-rule fast transform.

    Nodes sit at (t + 1/2) * 2pi/N, half a step off the integer grid that
    typical singularity locations occupy; if a singularity still lands on a
    node the whole node set is shifted by a further quarter step.  The
    midpoint rule handles the integrable |.|^{2 alpha} singularities
    (alpha > -1/2) with O(N^{-1-2 alpha}) error.  On the nodes the symbol is
    exp of one log-symbol (_log_symbol, shared with symbol_eval), with V
    summed by one inverse FFT (grid_series); a symbol with V = 0 skips it.

    A symbol that is real on the circle (V_{-j} = conj(V_j) and every
    beta_jump purely imaginary, as for every make_sigma family at real
    alpha, beta) is summed in real arithmetic: the real part of the
    log-symbol, one real exp and one rfft, with c_{-k} = conj(c_k) exactly.
    Any other symbol takes the complex exp and a complex FFT.

    Raises a UserWarning when a singularity has alpha_exp < -0.25 and the
    transform is smaller than the documented 2^20 threshold.
    """
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"need max_order >= 0, got {max_order}")
    if fft_size is None:
        fft_size = DEFAULT_FFT_SINGULAR if spec.singularities else DEFAULT_FFT_SMOOTH
        while fft_size < 8 * max_order:
            fft_size *= 2
    fft_size = int(fft_size)
    if fft_size & (fft_size - 1) != 0:
        raise ValueError(f"fft_size must be a power of two, got {fft_size}")
    if fft_size < 8 * max_order:
        raise ValueError(
            f"fft_size {fft_size} below 8 * max_order = {8 * max_order}"
        )
    min_alpha = min((s.alpha_exp for s in spec.singularities), default=0.0)
    if min_alpha < -0.25 and fft_size < DEFAULT_FFT_SINGULAR:
        warnings.warn(
            f"alpha_exp={min_alpha} < -0.25 with fft_size={fft_size} < 2^20: "
            "coefficient quadrature may lose precision",
            UserWarning,
            stacklevel=2,
        )

    step = TWO_PI / fft_size
    offset = 0.5 * step
    if spec.singularities:
        nodes0 = offset
        for s in spec.singularities:
            frac = np.mod(s.location - nodes0, step)
            if min(frac, step - frac) < _LOC_TOL:
                offset += 0.25 * step
                break
    nodes = np.arange(fft_size) * step + offset
    exponent = spec.v_dense
    v = grid_series(exponent, fft_size, offset) if np.any(exponent != 0) else None
    real = _is_hermitian(spec, exponent)
    values = np.exp(_log_symbol(spec, nodes, v, real))
    if real:
        ks = np.arange(max_order + 1)
        half = np.exp(-1j * ks * offset) * np.fft.rfft(values)[: max_order + 1] / fft_size
        coeffs = np.concatenate((half[:0:-1].conj(), half))
    else:
        ks = np.arange(-max_order, max_order + 1)
        transform = np.fft.fft(values)
        coeffs = np.exp(-1j * ks * offset) * transform[np.mod(ks, fft_size)] / fft_size
    return FourierCoeffs(order=max_order, values=coeffs)


def check_dense_size(n: int) -> int:
    """n as an int if toeplitz_logdet takes n x n matrices (1 <= n <= 1024);
    a ValueError otherwise, before any coefficients are computed for it."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 1024:
        raise ValueError(f"n capped at 1024 for the dense solver, got {n}")
    return n


def toeplitz_logdet(coeffs: FourierCoeffs, n: int) -> ToeplitzResult:
    """Principal-value log-determinant of the n x n matrix (c_{k-j})_{j,k}.

    Pivoted elimination (dense LU) with per-pivot log-magnitude
    accumulation, so determinants of order hundreds neither overflow nor
    underflow.  The imaginary part is wrapped to [-pi, pi].  This is the
    general solver for one size; toeplitz_logdets gives many sizes of a
    positive-definite symbol in one Levinson sweep and falls back to it.
    """
    n = check_dense_size(n)
    if coeffs.order < n - 1:
        raise ValueError(
            f"need coefficients to order {n - 1}, have {coeffs.order}"
        )
    center = coeffs.order
    first_col = coeffs.values[center - n + 1 : center + 1][::-1]
    first_row = coeffs.values[center : center + n]
    matrix = _toeplitz_matrix(first_col, first_row)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor warns on exact zeros; we check below
        lu, piv = lu_factor(matrix, check_finite=False)
    diag = np.diagonal(lu)
    if np.any(diag == 0) or not np.all(np.isfinite(diag)):
        raise np.linalg.LinAlgError(f"Toeplitz matrix of size {n} is numerically singular")
    swaps = int(np.count_nonzero(piv != np.arange(n)))
    log_re = float(np.sum(np.log(np.abs(diag))))
    log_im = float(np.sum(np.angle(diag))) + math.pi * (swaps % 2)
    log_im = math.remainder(log_im, TWO_PI)
    return ToeplitzResult(n=n, log_det=complex(log_re, log_im))


def toeplitz_logdets(coeffs: FourierCoeffs, sizes) -> list[ToeplitzResult]:
    """Log-determinants of the n x n matrices (c_{k-j})_{j,k} for every n in
    sizes, in the order given.

    When the coefficients up to the largest size are exactly Hermitian,
    c_{-k} = conj(c_k), with c_0 > 0, one Levinson sweep runs the Szego
    recursion (cue._szego_coeffs_step) on the monic orthogonal polynomials
    Phi_k of the symbol, with each Verblunsky coefficient computed from the
    coefficients of Phi_k^* just before the step that uses it:

        gamma_k = sum_{m<=k} [Phi_k^*]_m c_{k+1-m} / E_k,
        E_0 = c_0,  E_{k+1} = E_k (1 - |gamma_k|^2),

    and if every |gamma_k| < 1 the matrices are positive definite and

        log D_n = n log c_0 + sum_{k<n-1} (n-1-k) log(1 - |gamma_k|^2),

    real, for every size at once in O(N^2) work, N the largest size.
    Otherwise each size goes to toeplitz_logdet (dense LU), which is also
    the test oracle of the sweep.  Sizes are capped as in toeplitz_logdet.
    """
    sizes = [check_dense_size(n) for n in sizes]
    if not sizes:
        return []
    top = max(sizes)
    if coeffs.order < top - 1:
        raise ValueError(
            f"need coefficients to order {top - 1}, have {coeffs.order}"
        )
    center = coeffs.order
    window = coeffs.values[center - top + 1 : center + top]
    c = window[top - 1 :]  # c_0 .. c_{top-1}
    if not (np.array_equal(window, window[::-1].conj()) and c[0].real > 0.0):
        return [toeplitz_logdet(coeffs, n) for n in sizes]
    phi = np.zeros(top, dtype=complex)
    phi[0] = 1.0
    phis = phi.copy()
    energy = c[0].real
    shrink = np.empty(top - 1)  # log(1 - |gamma_k|^2)
    for k in range(top - 1):
        gamma = complex(np.dot(phis[: k + 1], c[k + 1 : 0 : -1])) / energy
        loss = gamma.real * gamma.real + gamma.imag * gamma.imag
        if not loss < 1.0:
            return [toeplitz_logdet(coeffs, n) for n in sizes]
        shrink[k] = math.log1p(-loss)
        energy *= 1.0 - loss
        _szego_coeffs_step(gamma, phi, phis, k)
    log_c0 = math.log(c[0].real)
    return [
        ToeplitzResult(
            n=n,
            log_det=complex(
                n * log_c0 + float(np.dot(np.arange(n - 1, 0, -1), shrink[: n - 1])), 0.0
            ),
        )
        for n in sizes
    ]


def heine_szego_check(
    spec: SymbolSpec,
    n: int,
    samples: int,
    stream,
) -> tuple[MCEstimate, float]:
    """Monte Carlo E prod_k f(theta_k) next to the exact determinant D_{n-1}(f).

    The expectation of the product of symbol values over the n eigenangles
    equals the n x n Toeplitz determinant of the symbol.  Only the real part
    of the product enters the estimate (the validation symbols are real).
    The eigenangles come from sample_cue's default "qr" backend.  n is
    capped at 16: the product estimator's variance grows exponentially.
    """
    n = int(n)
    if not 1 <= n <= 16:
        raise ValueError(f"need 1 <= n <= 16 for the Monte Carlo side, got {n}")
    if isinstance(stream, RngStream):
        if stream.stream_id != 0:
            raise ValueError("pass a base stream with stream_id 0 (per-sample ids are derived)")
        seed = stream.seed
    else:
        seed = int(stream)

    def functional(s: RngStream) -> float:
        draw = sample_cue(n, s)
        return float(np.prod(symbol_eval(spec, draw.angles)).real)

    estimate, _ = run_mc_detailed(functional, samples, seed)
    det = toeplitz_logdet(fourier_coeffs(spec, n - 1), n)
    return estimate, float(cmath.exp(det.log_det).real)
