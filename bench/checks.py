"""Correctness checks for what each benchmark operation returned.

Every oracle here is computed apart from cuechaos, with mpmath and numpy:
the Gamma-product moment of |p_n|, the Diaconis-Shahshahani trace moments,
the closed-form determinant of a single root singularity, the
Fisher-Hartwig asymptotics, the Barnes-G limit and the truncation-error
kernel.  A check returns the list of problems it found; an empty list means
the output passed.

Monte Carlo estimates pass within ``Z`` of their own standard errors.  The
KS bound scales with the run's own sample counts, so a short run is not
failed for sampling noise alone.  The mean total mass of mass-ks is checked
over all rounds of a run together (``check_pooled_mass``), because one
round's sample is too small for a heavy-tailed mean.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi

# A Monte Carlo mean passes within this many of its standard errors.  At six,
# a correct program fails one check in about 5e8 under a normal law.
Z = 6.0

# Two-sample KS bound: D <= KS_LAW_GAP + sqrt(ln(2/KS_LEVEL)/2) sqrt((m+n)/(mn)).
# The second term is the Dvoretzky-Kiefer-Wolfowitz-Massart tail at level
# KS_LEVEL; KS_LAW_GAP allows for the finite-n, finite-k distance between the
# two total-mass laws, which coincide only in the limit.
KS_LEVEL = 1e-6
KS_LAW_GAP = 0.05

# Exported angles and symbols are checked to this absolute tolerance.
ANGLE_TOL = 1e-12
# Log-determinant of the single-root symbol against its closed form; the
# coefficient quadrature on 2^20 nodes leaves errors of about 1e-6 at n = 1024
# for root exponents a >= 0.3.
DET_TOL = 1e-4
# |Im log D_n| of a real positive symbol.
IMAG_TOL = 1e-8
# Closed-form values the program recomputes in double precision.
CLOSED_FORM_RTOL = 1e-6


def _problem(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _rows(report: dict) -> dict:
    return {row["check"]: row for row in report.get("rows", [])}


def _within(rows: dict, label: str, oracle: float) -> list[str]:
    row = rows.get(label)
    if row is None:
        return [f"missing row {label!r}"]
    est, se = float(row["estimate"]), float(row["stderr"])
    ok = math.isfinite(est) and math.isfinite(se) and abs(est - oracle) <= Z * se
    return _problem(ok, f"{label}: estimate {est!r} not within {Z} x stderr {se!r} of {oracle!r}")


def _close(value: float, oracle: float, rtol: float, what: str) -> list[str]:
    ok = math.isfinite(value) and abs(value - oracle) <= rtol * max(1.0, abs(oracle))
    return _problem(ok, f"{what}: {value!r} differs from {oracle!r} by more than {rtol:g} (relative)")


def _config(report: dict, expected: dict) -> list[str]:
    config = report.get("config", {})
    return [
        f"config {key}: ran {config.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if config.get(key) != value
    ]


# -- oracles -------------------------------------------------------------
@lru_cache(maxsize=None)
def gamma_product_mean(n: int, alpha: float, beta: float) -> float:
    """E |p_n|^alpha e^{beta Im log p_n} = prod_{j<=n} G(j)G(j+a)/|G(j+(a+ib)/2)|^2."""
    half = mpmath.mpc(alpha, beta) / 2
    log_mean = mpmath.fsum(
        mpmath.loggamma(j) + mpmath.loggamma(j + alpha) - 2 * mpmath.re(mpmath.loggamma(j + half))
        for j in range(1, n + 1)
    )
    return float(mpmath.exp(log_mean))


def ks_bound(m: int, n: int) -> float:
    return KS_LAW_GAP + math.sqrt(math.log(2.0 / KS_LEVEL) / 2.0) * math.sqrt((m + n) / (m * n))


@lru_cache(maxsize=None)
def single_root_log_det(n: int, a: float) -> float:
    """log D_n of |z - z0|^{2a}: sum_{j<=n} log G(j)G(j+2a)/G(j+a)^2."""
    return float(
        mpmath.fsum(
            mpmath.loggamma(j) + mpmath.loggamma(j + 2 * a) - 2 * mpmath.loggamma(j + a)
            for j in range(1, n + 1)
        )
    )


def fh_log_det(v_coeffs: dict, roots: list[tuple[float, float]], n: int) -> float:
    """Real part of the Fisher-Hartwig asymptotics of log D_n for
    e^{V} prod_j |z - z_j|^{2 a_j} with no jumps (Ehrhardt's formula)."""
    log_n = math.log(n)
    total = n * complex(v_coeffs.get(0, 0.0))
    orders = sorted(j for j in v_coeffs if j > 0)
    total += sum(j * complex(v_coeffs[j]) * complex(v_coeffs.get(-j, 0.0)) for j in orders)
    for theta, a in roots:
        z = complex(math.cos(theta), math.sin(theta))
        outer = sum(
            complex(v_coeffs[j]) * z**j + complex(v_coeffs.get(-j, 0.0)) * z ** (-j) for j in orders
        )
        total -= a * outer
        total += a * a * log_n
        total += float(
            2 * mpmath.log(mpmath.barnesg(1 + a)) - mpmath.log(mpmath.barnesg(1 + 2 * a))
        )
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            (t1, a1), (t2, a2) = roots[i], roots[j]
            total -= 2 * a1 * a2 * math.log(abs(2.0 * math.sin(0.5 * (t1 - t2))))
    return total.real


@lru_cache(maxsize=None)
def ef_ratio(n: int, alpha: float, beta: float) -> float:
    """E f at size n over its limit n^{(a^2+b^2)/4} G(1+(a+ib)/2)G(1+(a-ib)/2)/G(1+a)."""
    half = mpmath.mpc(alpha, beta) / 2
    log_mean = mpmath.fsum(
        mpmath.loggamma(j) + mpmath.loggamma(j + alpha) - 2 * mpmath.re(mpmath.loggamma(j + half))
        for j in range(1, n + 1)
    )
    log_const = mpmath.re(
        mpmath.log(mpmath.barnesg(1 + half))
        + mpmath.log(mpmath.barnesg(1 + mpmath.conj(half)))
        - mpmath.log(mpmath.barnesg(1 + alpha))
    )
    log_limit = (alpha * alpha + beta * beta) / 4 * mpmath.log(n) + log_const
    return float(mpmath.exp(log_mean - log_limit))


def normalized_variance_integral(gamma_sq: float, k: int, m: int) -> float:
    """(2 pi)^{-2} sum_{i != i'} h^2 K((i - i') h) on an m-point grid, with
    K(d) = (2 sin(d/2))^{-g/2} - exp((g/2) sum_{j<=k} cos(j d)/j)."""
    h = TWO_PI / m
    d = np.arange(1, m) * h
    j = np.arange(1, k + 1)
    partial = (np.cos(np.outer(j, d)) / j[:, None]).sum(axis=0)
    kernel = (2.0 * np.sin(0.5 * d)) ** (-0.5 * gamma_sq) - np.exp(0.5 * gamma_sq * partial)
    return float(h * h * m * kernel.sum() / (TWO_PI * TWO_PI))


# -- registry experiments -------------------------------------------------
def check_gamma_mean(value: float, n: int, alpha: float, beta: float) -> list[str]:
    """The program's exact_mean_f, which normalises mass-ks, against mpmath."""
    oracle = gamma_product_mean(n, alpha, beta)
    return _close(float(value), oracle, CLOSED_FORM_RTOL, f"exact_mean_f(n={n})")


def check_moment_mc(report: dict, n: int, alpha: float, beta: float) -> list[str]:
    rows = _rows(report)
    label = f"E f at theta=0, n={n}"
    oracle = gamma_product_mean(n, alpha, beta)
    problems = _within(rows, label, oracle)
    if label in rows:
        problems += _close(float(rows[label]["oracle"]), oracle, CLOSED_FORM_RTOL, "moment-mc oracle")
    return problems


def check_mass_ks(report: dict, n: int, k: int, samples: int) -> list[str]:
    """KS distance of the two total-mass laws within the run's own bound."""
    label = f"KS distance of total-mass laws (n={n}, k={k})"
    row = _rows(report).get(label)
    if row is None:
        return [f"missing row {label!r}"]
    bound = ks_bound(samples, samples)
    est = float(row["estimate"])
    return _problem(0.0 <= est <= bound, f"{label}: {est!r} outside [0, {bound:.4f}]")


def check_pooled_mass(reports: list[dict]) -> list[str]:
    """Mean total mass 2 pi on both sides of mass-ks, pooled over reports of
    equal sample count.

    The total mass has a heavy right tail, so the t statistic of one small
    report has a heavy left tail.  Simulating the chaos side (k = 128,
    beta = 1), about 1e-4 of correct 64-sample reports sit below -6 standard
    errors; pooled over 576 samples (nine rounds), 3e-4 sit below -4 and
    none of 3000 below -5.
    """
    problems = []
    if not reports:  # every operation failed; those count in ``failed``
        return problems
    for side in ("characteristic-polynomial", "chaos"):
        label = f"mean total mass ({side})"
        rows = [_rows(r).get(label) for r in reports]
        if any(row is None for row in rows):
            problems.append(f"missing row {label!r}")
            continue
        mean = sum(float(row["estimate"]) for row in rows) / len(rows)
        se = math.sqrt(sum(float(row["stderr"]) ** 2 for row in rows)) / len(rows)
        problems += _problem(
            math.isfinite(mean) and abs(mean - TWO_PI) <= Z * se,
            f"{label} over {len(rows)} reports: {mean!r} not within {Z} x stderr {se!r} of 2 pi",
        )
    return problems


def check_clt_traces(report: dict, n: int, k: int) -> list[str]:
    """Re and Im of Tr U^j / sqrt(j): mean 0 and E x^2 = min(j, n) / (2j)."""
    rows = _rows(report)
    problems = []
    for j in range(1, k + 1):
        for part in ("Re", "Im"):
            label = f"{part} T{j}/sqrt({j})"
            problems += _within(rows, f"{label} moment 1", 0.0)
            problems += _within(rows, f"{label} moment 2", min(j, n) / (2.0 * j))
    return problems


def check_coeff_variance(report: dict, n: int, k: int) -> list[str]:
    """E|c_j|^2 = E|Tr U^j|^2 / (4 j^2) = min(j, n) / (4 j^2), i.e. 1/(4j) for j <= n."""
    rows = _rows(report)
    problems = []
    for j in range(1, k + 1):
        problems += _within(rows, f"Var of field coefficient {j}", min(j, n) / (4.0 * j * j))
    return problems


def check_ef_limit(report: dict, n: int, alpha: float, beta: float) -> list[str]:
    problems = _config(report, {"n": n, "alpha": alpha, "beta": beta})
    rows = _rows(report)
    sizes = sorted({max(2, n // 16), max(2, n // 4), n})
    distances = []
    for size in sizes:
        label = f"mean/limit ratio at n={size}"
        if label not in rows:
            problems.append(f"missing row {label!r}")
            continue
        ratio = float(rows[label]["estimate"])
        problems += _close(ratio, ef_ratio(size, alpha, beta), CLOSED_FORM_RTOL, label)
        distances.append(abs(ratio - 1.0))
    if distances:
        problems += _problem(distances[-1] < 0.01, f"ratio at n={n} is {distances[-1]:.3g} from 1")
        problems += _problem(
            all(b < a for a, b in zip(distances, distances[1:])),
            f"mean/limit ratios do not approach 1 as n grows: distances {distances}",
        )
    return problems


def check_kernel_decay(report: dict, k: int, grid_size: int, gamma_sq: float) -> list[str]:
    problems = _config(report, {"k": k, "grid_size": grid_size})
    rows = _rows(report)
    truncations = sorted({max(1, k // 8), max(1, k // 4), max(1, k // 2), k})
    values = []
    for t in truncations:
        label = f"normalized variance integral at k={t}"
        if label not in rows:
            problems.append(f"missing row {label!r}")
            continue
        value = float(rows[label]["estimate"])
        oracle = normalized_variance_integral(gamma_sq, t, grid_size)
        problems += _close(value, oracle, CLOSED_FORM_RTOL, label)
        values.append(value)
    problems += _problem(
        all(b < a for a, b in zip(values, values[1:])),
        f"variance integral does not decrease in k: {values}",
    )
    return problems


# -- CLI outputs ------------------------------------------------------------
def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    if not table:
        return [], []
    return table[0], table[1:]


def det_rows(out_dir: Path) -> list[tuple[int, float, float]]:
    header, rows = read_csv(out_dir / "toeplitz_det.csv")
    if header != ["n", "log_det_re", "log_det_im"]:
        raise ValueError(f"toeplitz_det.csv header {header}")
    return [(int(n), float(re), float(im)) for n, re, im in rows]


def fh_rows(out_dir: Path) -> list[tuple[int, float]]:
    header, rows = read_csv(out_dir / "fh_asymptotics.csv")
    if header != ["n", "prediction_log"]:
        raise ValueError(f"fh_asymptotics.csv header {header}")
    return [(int(n), float(value)) for n, value in rows]


def check_sizes(rows: list[tuple], sizes: list[int], what: str) -> list[str]:
    got = [row[0] for row in rows]
    return _problem(got == sorted(sizes), f"{what}: sizes {got}, expected {sorted(sizes)}")


def check_single_root_det(rows: list[tuple[int, float, float]], a: float) -> list[str]:
    problems = []
    for n, re, im in rows:
        exact = single_root_log_det(n, a)
        problems += _problem(
            abs(re - exact) <= DET_TOL,
            f"single-root log D_{n}: {re!r} vs closed form {exact!r} (tolerance {DET_TOL})",
        )
        problems += _problem(abs(im) <= IMAG_TOL, f"single-root Im log D_{n} = {im!r}")
    return problems


def check_fh_predictions(rows: list[tuple[int, float]], v_coeffs: dict, roots: list) -> list[str]:
    problems = []
    for n, value in rows:
        oracle = fh_log_det(v_coeffs, roots, n)
        problems += _close(value, oracle, CLOSED_FORM_RTOL, f"fh prediction at n={n}")
    return problems


def check_fh_gaps(
    rows: list[tuple[int, float, float]], v_coeffs: dict, roots: list, what: str
) -> list[str]:
    """|Re log D_n - FH(n)| shrinks as n grows, and Im log D_n stays ~0.

    The gap at the largest size must be the smallest one, at least eight
    times below the gap at the smallest size (the sizes span a factor 16
    and the leading error decays like 1/n), and below 0.01.
    """
    problems = []
    gaps = []
    for n, re, im in rows:
        gaps.append(abs(re - fh_log_det(v_coeffs, roots, n)))
        problems += _problem(abs(im) <= IMAG_TOL, f"{what} Im log D_{n} = {im!r}")
    if len(gaps) >= 2:
        ok = gaps[-1] == min(gaps) and gaps[-1] <= gaps[0] / 8.0 and gaps[-1] < 0.01
        problems += _problem(ok, f"{what}: FH gaps do not shrink with n: {gaps}")
    return problems


def check_cue_export(out_dir: Path, n: int, samples: int) -> list[str]:
    """One file per draw: header ``theta``, n sorted angles in [0, 2 pi)."""
    files = sorted(out_dir.glob("cue_sample_*.csv"))
    problems = _problem(len(files) == samples, f"sample-cue wrote {len(files)} files, expected {samples}")
    for path in files:
        header, rows = read_csv(path)
        angles = np.array([float(r[0]) for r in rows if len(r) == 1])
        ok = (
            header == ["theta"]
            and len(rows) == n
            and angles.size == n
            and np.all(angles >= 0.0)
            and np.all(angles < TWO_PI)
            and np.all(np.diff(angles) > 0.0)
        )
        problems += _problem(bool(ok), f"{path.name}: not {n} sorted angles in [0, 2pi)")
    problems += _summary_lists(out_dir / "sample_cue_summary.json", files)
    return problems


def check_gmc_export(out_dir: Path, samples: int, grid_size: int) -> list[str]:
    """One file per draw: ``theta,mass`` on the uniform grid, masses > 0."""
    files = sorted(out_dir.glob("gmc_sample_*.csv"))
    problems = _problem(len(files) == samples, f"gmc-sample wrote {len(files)} files, expected {samples}")
    grid = np.arange(grid_size) * (TWO_PI / grid_size)
    for path in files:
        header, rows = read_csv(path)
        table = np.array([[float(x) for x in r] for r in rows]) if rows else np.zeros((0, 2))
        ok = (
            header == ["theta", "mass"]
            and table.shape == (grid_size, 2)
            and np.all(np.abs(table[:, 0] - grid) <= ANGLE_TOL)
            and np.all(np.isfinite(table[:, 1]))
            and np.all(table[:, 1] > 0.0)
        )
        problems += _problem(bool(ok), f"{path.name}: not a positive measure on the {grid_size}-point grid")
    problems += _summary_lists(out_dir / "gmc_sample_summary.json", files)
    return problems


def _summary_lists(path: Path, files: list[Path]) -> list[str]:
    try:
        listed = json.loads(path.read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return _problem(
        sorted(listed) == [f.name for f in files], f"{path.name} lists {len(listed)} files"
    )
