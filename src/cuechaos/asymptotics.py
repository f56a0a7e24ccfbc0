r"""Closed-form large-n predictions for Toeplitz determinants and the
variance-limit kernel of the truncation error.

All predictions are returned on log scale so that sizes in the thousands
stay overflow-free.  Throughout, n is the matrix size: predictions are for
the determinant computed by toeplitz_logdet(coeffs, n).  The formulas are
asymptotic, so replacing n by n+-1 changes them by O(log-scale 1/n), below
every tested tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cue import ExponentPair
from .grids import TWO_PI, grid_series, grid_step, trig_series, uniform_grid
from .special import fh_constant, log_barnes_g
from .toeplitz import SymbolSpec

__all__ = [
    "DomainError",
    "FHPrediction",
    "szego_prediction",
    "fh_prediction",
    "merging_prediction",
    "variance_kernel",
    "variance_integral",
]


class DomainError(ValueError):
    """A prediction was requested outside its regime of validity."""


@dataclass(frozen=True)
class FHPrediction:
    """Log-scale determinant prediction split into growing and O(1) parts.

    log_leading collects the terms that grow with n (n*V_0 plus the power of
    log n) evaluated at the given n; constant is the n-independent factor.
    """

    log_leading: float
    constant: complex
    regime: str

    @property
    def log_value(self) -> complex:
        """log_leading + principal log of the constant."""
        return self.log_leading + cmath.log(self.constant)


def _pos_neg_orders(v_coeffs: dict) -> list[int]:
    return sorted({abs(j) for j, v in v_coeffs.items() if v != 0 and j != 0})


def _smooth_terms(v_coeffs: dict, n: int) -> tuple[complex, complex]:
    """(n*V_0, sum_{k>=1} k V_k V_{-k}) for a finitely supported exponent."""
    v0 = complex(v_coeffs.get(0, 0.0))
    cross = 0.0 + 0.0j
    for j in _pos_neg_orders(v_coeffs):
        cross += j * complex(v_coeffs.get(j, 0.0)) * complex(v_coeffs.get(-j, 0.0))
    return n * v0, cross


def szego_prediction(v_coeffs: dict, n: int) -> float:
    """Two-term strong-Szego prediction n*V_0 + sum_k k V_k V_{-k} for
    log of the n x n determinant of e^{V}.

    For real-valued exponents the cross sum is sum k |V_k|^2 and the result
    is real; a residual imaginary part beyond roundoff raises.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lead, cross = _smooth_terms(v_coeffs, n)
    total = lead + cross
    scale = max(1.0, abs(total))
    if abs(total.imag) > 1e-10 * scale:
        raise DomainError(
            f"szego_prediction: exponent is not real-valued (imag {total.imag})"
        )
    return float(total.real)


def _check_fh_domain(spec: SymbolSpec) -> None:
    sings = spec.singularities
    for s in sings:
        if s.alpha_exp <= -0.5:
            raise DomainError(
                f"fh_prediction requires Re alpha_j > -1/2; singularity at "
                f"{s.location} has alpha_exp={s.alpha_exp}"
            )
    if sings:
        re_betas = [s.beta_jump.real for s in sings]
        spread = max(re_betas) - min(re_betas)
        if spread >= 1.0:
            raise DomainError(
                f"fh_prediction requires max_jk |Re beta_j - Re beta_k| < 1; got {spread}"
            )
    for s in sings:
        for sign in (1.0, -1.0):
            w = s.alpha_exp + sign * s.beta_jump
            if abs(w.imag) < 1e-12 and w.real < -0.5 and abs(w.real - round(w.real)) < 1e-12:
                raise DomainError(
                    f"fh_prediction: alpha_j {'+' if sign > 0 else '-'} beta_j "
                    f"= {w.real:g} is a negative integer (Barnes G zero)"
                )


def fh_prediction(spec: SymbolSpec, n: int) -> FHPrediction:
    """Fisher-Hartwig prediction for log of the n x n Toeplitz determinant.

    Implements the full asymptotic formula: smooth part
    n V_0 + sum k V_k V_{-k}, the singularity/smooth interaction
    sum_j [(beta_j - alpha_j) sum_k V_k z_j^k - (alpha_j + beta_j)
    sum_k V_{-k} z_j^{-k}], the power sum_j (alpha_j^2 - beta_j^2) of n, the
    pair interaction |z_j - z_l|^{2(beta_j beta_l - alpha_j alpha_l)}
    (z_l / (z_j e^{i pi}))^{alpha_j beta_l - alpha_l beta_j}, and the Barnes
    G constant per singularity.  With an empty singularity list this reduces
    exactly to szego_prediction's code path.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_fh_domain(spec)
    sings = spec.singularities
    lead_smooth, cross = _smooth_terms(spec.v_coeffs, n)

    interaction = 0.0 + 0.0j
    pos_orders = [j for j in sorted(spec.v_coeffs) if j > 0 and spec.v_coeffs[j] != 0]
    neg_orders = [j for j in sorted(spec.v_coeffs) if j < 0 and spec.v_coeffs[j] != 0]
    for s in sings:
        z = cmath.exp(1j * s.location)
        sum_pos = sum(spec.v_coeffs[j] * z**j for j in pos_orders)
        sum_neg = sum(spec.v_coeffs[j] * z**j for j in neg_orders)
        interaction += (s.beta_jump - s.alpha_exp) * sum_pos
        interaction -= (s.alpha_exp + s.beta_jump) * sum_neg

    exp_sum = sum(
        (s.alpha_exp * s.alpha_exp - s.beta_jump * s.beta_jump for s in sings),
        0.0 + 0.0j,
    )

    pair = 0.0 + 0.0j
    for a in range(len(sings)):
        for b in range(a + 1, len(sings)):
            sj, sl = sings[a], sings[b]
            gap = 2.0 * abs(math.sin(0.5 * (sj.location - sl.location)))
            pair += 2.0 * (sj.beta_jump * sl.beta_jump - sj.alpha_exp * sl.alpha_exp) * math.log(gap)
            cross_exp = sj.alpha_exp * sl.beta_jump - sl.alpha_exp * sj.beta_jump
            # log of z_l/(z_j e^{i pi}) with the angles as given
            pair += cross_exp * 1j * (sl.location - sj.location - math.pi)

    g_terms = 0.0 + 0.0j
    for s in sings:
        g_terms += log_barnes_g(1.0 + s.alpha_exp + s.beta_jump)
        g_terms += log_barnes_g(1.0 + s.alpha_exp - s.beta_jump)
        g_terms -= log_barnes_g(1.0 + 2.0 * s.alpha_exp)

    leading = lead_smooth + exp_sum * math.log(n)
    rest = cross + interaction + pair + g_terms
    constant = cmath.exp(rest + 1j * leading.imag)
    regime = "fh_general" if sings else "szego"
    return FHPrediction(log_leading=float(leading.real), constant=constant, regime=regime)


def merging_prediction(n: int, delta: float, p: ExponentPair, t0: float = 0.5) -> float:
    """Log-determinant prediction for two singularities (alpha/2, -i beta/2)
    at separation delta, in the regime log n / n <= delta < 2 t0:

        (g2/2) log n - (g2/2) log(2 sin(delta/2)) + 2 log fh_constant,

    with g2 = alpha^2 + beta^2.  On its domain this coincides identically
    with the two-singularity fh_prediction; t0 is a configurable threshold
    (the asymptotic theorem only guarantees some sufficiently small t0 > 0).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    delta = float(delta)
    lower = math.log(n) / n
    upper = 2.0 * float(t0)
    if not lower <= delta < upper:
        raise DomainError(
            f"merging_prediction requires log(n)/n = {lower:.3g} <= delta < "
            f"2*t0 = {upper:.3g}, got delta={delta}"
        )
    g2 = p.gamma_sq
    return (
        0.5 * g2 * math.log(n)
        - 0.5 * g2 * math.log(2.0 * math.sin(0.5 * delta))
        + 2.0 * math.log(fh_constant(p.alpha, p.beta))
    )


def _cosine_coeffs(k: int) -> np.ndarray:
    """Dense coefficients of sum_{j<=k} cos(j delta)/j: c_{+-j} = 1/(2j)."""
    k = int(k)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    half = 0.5 / np.arange(1, k + 1)
    return np.concatenate([half[::-1], [0.0], half])


def _kernel(d: np.ndarray, gamma_sq: float, partial: np.ndarray) -> np.ndarray:
    """(2 sin(d/2))^{-g2/2} - exp((g2/2) partial), partial the cosine sum at d."""
    return (2.0 * np.sin(0.5 * d)) ** (-0.5 * gamma_sq) - np.exp(0.5 * gamma_sq * partial)


def variance_kernel(delta, gamma_sq: float, k: int):
    """Truncation-error variance kernel

        K(delta) = (2 sin(delta/2))^{-g2/2} - exp((g2/2) sum_{j<=k} cos(j delta)/j).

    Pointwise K -> 0 as k -> infinity because sum_j cos(j delta)/j converges
    to -log(2 sin(delta/2)).  Requires 0 < delta < 2*pi and g2 < 2 (the
    power singularity at delta = 0 is then integrable).  Vectorized in delta;
    the cosine sum is a trig_series.
    """
    gamma_sq = float(gamma_sq)
    if gamma_sq >= 2.0:
        raise DomainError(f"variance_kernel requires gamma_sq < 2, got {gamma_sq}")
    coeffs = _cosine_coeffs(k)
    scalar = np.isscalar(delta) or np.asarray(delta).ndim == 0
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.any((d <= 0.0) | (d >= TWO_PI)):
        raise DomainError("variance_kernel requires 0 < delta < 2*pi")
    out = _kernel(d, gamma_sq, trig_series(coeffs, d).real)
    return float(out[0]) if scalar else out


def variance_integral(
    g,
    gamma_sq: float,
    k: int,
    grid=None,
    return_diag_bound: bool = False,
):
    """Double quadrature int int g(t) g(t') K(t - t') dt dt' on a uniform grid.

    The diagonal cell (where the kernel's power singularity lives) is
    excluded from the sum; its omitted mass is bounded analytically via
    2 sin(u/2) >= 2u/pi and returned alongside the value when
    return_diag_bound is set.

    Parameters
    ----------
    g : callable, array or scalar test function on the grid.
    grid : uniform angle grid; defaults to uniform_grid(max(4096, 16k)).
    """
    gamma_sq = float(gamma_sq)
    if gamma_sq >= 2.0:
        raise DomainError(f"variance_integral requires gamma_sq < 2, got {gamma_sq}")
    k = int(k)
    if grid is None:
        grid = uniform_grid(max(4096, 16 * max(k, 1)))
    grid = np.asarray(grid, dtype=float)
    h = grid_step(grid)
    m = grid.size
    if callable(g):
        gvals = np.asarray(g(grid), dtype=float)
        gvals = np.broadcast_to(gvals, grid.shape).astype(float)
    else:
        gvals = np.broadcast_to(np.asarray(g, dtype=float), grid.shape).astype(float)

    if gamma_sq == 0.0:
        value = 0.0
    else:
        # circular autocorrelation r_d = sum_i g_i g_{i+d} via FFT; the double
        # sum collapses to sum_{d=1}^{m-1} K(d h) r_d
        corr = np.fft.ifft(np.abs(np.fft.fft(gvals)) ** 2).real
        partial = grid_series(_cosine_coeffs(k), m).real[1:]
        kern = _kernel(np.arange(1, m) * h, gamma_sq, partial)
        value = float(h * h * np.sum(kern * corr[1:]))

    if not return_diag_bound:
        return value

    q = 0.5 * gamma_sq
    gmax = float(np.max(np.abs(gvals)))
    if q == 0.0:
        power_mass = 0.0
    elif q < 1.0:
        # int_{|u|<h/2} (2 sin(u/2))^{-q} du <= 2 (pi/2)^q (h/2)^{1-q} / (1-q)
        power_mass = 2.0 * (math.pi / 2.0) ** q * (0.5 * h) ** (1.0 - q) / (1.0 - q)
    else:
        power_mass = math.inf
    harmonic = float(np.sum(1.0 / np.arange(1, k + 1))) if k else 0.0
    bound = gmax * gmax * TWO_PI * (power_mass + h * math.exp(0.5 * gamma_sq * harmonic))
    return value, float(bound)
