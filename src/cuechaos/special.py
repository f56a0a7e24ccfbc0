r"""Complex log-Gamma, Barnes G, and the constant entering power-singularity
determinant asymptotics.

All three functions use the branch that is real on the positive real axis and
continuous on the plane cut along the negative reals, so the recurrences

    Gamma(z+1) = z Gamma(z)        G(z+1) = Gamma(z) G(z)

hold for the logarithms without stray multiples of 2*pi*i.
"""

from __future__ import annotations

import cmath
import math

from scipy.special import loggamma as _sc_loggamma

__all__ = ["PoleError", "log_gamma", "log_barnes_g", "fh_constant"]

# zeta'(-1); additive constant of the Barnes G asymptotic expansion.
_ZETA_PRIME_M1 = -0.16542114370045092921

# B_{2k+2} / (4 k (k+1)) for k = 1..8; enough for 1e-13 accuracy at |z| >= 9.
_G_ASYMP = (
    -1.0 / 240.0,
    1.0 / 1008.0,
    -1.0 / 1440.0,
    1.0 / 1056.0,
    -691.0 / 327600.0,
    1.0 / 168.0,
    -3617.0 / 114240.0,
    43867.0 / 229500.0,
)

# |z| and Re z thresholds above which the asymptotic series is accurate.
_SHIFT_RADIUS = 10.0
_SHIFT_REAL = 2.0

# Distance to a non-positive integer below which we refuse to evaluate.
_POLE_TOL = 1e-12


class PoleError(ValueError):
    """Raised when an argument sits on a pole of Gamma or a zero of G."""


def _near_nonpositive_integer(z: complex) -> bool:
    if abs(z.imag) > _POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _POLE_TOL


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z).

    Raises
    ------
    PoleError
        If ``z`` is within 1e-12 of a non-positive integer.
    """
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    out = complex(_sc_loggamma(z))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise PoleError(f"log_gamma overflow/pole at z={z}")
    return out


def _log_g_asymptotic(w: complex) -> complex:
    # log G(1+w) for large |w|, valid away from the negative real axis.
    lw = cmath.log(w)
    s = 0.5 * w * w * lw - 0.75 * w * w + 0.5 * w * math.log(2.0 * math.pi)
    s += -lw / 12.0 + _ZETA_PRIME_M1
    w2 = w * w
    p = w2
    for c in _G_ASYMP:
        s += c / p
        p *= w2
    return s


def log_barnes_g(z: complex) -> complex:
    """log of the Barnes G-function, continuous branch (real for real z > 0).

    Evaluated from the asymptotic expansion of log G(1+w) once the argument
    has been shifted into ``|z| >= 10`` via the recurrence
    ``log G(z) = log G(z+1) - log Gamma(z)``.  Accurate to ~1e-13 relative
    over ``Re z in (0, 8]``; arguments left of the imaginary axis are reached
    by the same recurrence.

    Raises
    ------
    PoleError
        At non-positive integers, where G has zeros.
    """
    z = complex(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"Barnes G zero at z={z}")
    shift = 0.0 + 0.0j
    w = z
    while abs(w) < _SHIFT_RADIUS or w.real < _SHIFT_REAL:
        shift += log_gamma(w)
        w += 1.0
    return _log_g_asymptotic(w - 1.0) - shift


def fh_constant(alpha: float, beta: float) -> float:
    """G(1 + a/2 - i b/2) G(1 + a/2 + i b/2) / G(1 + a), as a positive real.

    This is the constant term of the large-n asymptotics of the expected
    power of a circular-ensemble characteristic polynomial with absolute
    exponent ``alpha`` and phase exponent ``beta``.

    Raises
    ------
    PoleError
        If ``alpha <= -1`` (the denominator argument hits a zero of G or
        lies beyond the recurrence's sane range).
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= -1.0:
        raise PoleError(f"fh_constant requires alpha > -1, got {alpha}")
    a = 1.0 + 0.5 * alpha
    s = log_barnes_g(complex(a, -0.5 * beta)) + log_barnes_g(complex(a, 0.5 * beta))
    s -= log_barnes_g(1.0 + alpha)
    value = cmath.exp(s)
    # the two numerator factors are conjugates, so the result is real
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ArithmeticError(
            f"fh_constant({alpha}, {beta}): non-real result {value}"
        )
    return float(value.real)

