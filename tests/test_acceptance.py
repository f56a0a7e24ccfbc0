"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints "A<i> <name>: PASS/FAIL (<measured detail>)" and asserts the
criterion.  Monte Carlo tests use fixed seeds, so every run evaluates the
same draws; backends and sample counts are chosen to fit the documented
runtime budgets.  The expensive ones are A2 (10^5 draws from each of the two
samplers), A10 and A6 (10^5 draws each); A3, A9 and A10 run through the
experiment registry.
"""

import cmath
import math

import numpy as np

from cuechaos import (
    EigenSample,
    ExperimentConfig,
    ExponentPair,
    RngStream,
    SymbolSpec,
    exact_mean_f,
    fh_constant,
    fh_prediction,
    fourier_coeffs,
    heine_szego_check,
    ks_distance,
    log_barnes_g,
    log_gamma,
    make_sigma,
    mc_map,
    run_experiment,
    sample_cue,
    toeplitz_logdet,
    trace_powers,
    uniform_grid,
    variance_integral,
)

from cmv_oracle import eigen_oracle

TWO_PI = 2.0 * math.pi


def _verdict(label: str, ok: bool, detail: str) -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_A1_special_function_recurrences():
    rng = np.random.default_rng(101)
    z = rng.uniform(0.2, 6.0, 1000) + 1j * rng.uniform(-5.0, 5.0, 1000)
    worst = 0.0
    for w in z:
        gamma_gap = abs(cmath.exp(log_gamma(w + 1.0) - log_gamma(w) - cmath.log(w)) - 1.0)
        barnes_gap = abs(
            cmath.exp(log_barnes_g(w + 1.0) - log_barnes_g(w) - log_gamma(w)) - 1.0
        )
        worst = max(worst, gamma_gap, barnes_gap)
    g_small = np.array([cmath.exp(log_barnes_g(k)).real for k in range(1, 6)])
    int_gap = float(np.max(np.abs(g_small - np.array([1.0, 1.0, 1.0, 2.0, 12.0]))))
    ok = worst < 1e-10 and int_gap < 1e-12 * 12.0
    _verdict(
        "A1 special-function recurrences",
        ok,
        f"recurrence residual {worst:.2e}, G(1..5) gap {int_gap:.2e}",
    )


def test_A2_sampler_backend_cross_validation():
    # the two independent exact samplers: Killip-Nenciu Verblunsky
    # coefficients (traces by the Szego recursion, spacings from the
    # eigenangles of the CMV matrix of the same draw) against Ginibre QR
    n, samples = 16, 100_000

    def statistics(traces, angles):
        spacings = np.diff(angles, append=angles[0] + TWO_PI)
        return np.concatenate([np.abs(traces) ** 2, spacings * (n / TWO_PI)])

    def from_verblunsky(stream):
        smp = sample_cue(n, stream, "verblunsky")
        return statistics(trace_powers(smp, 3).traces, eigen_oracle(smp).angles)

    def from_qr(stream):
        smp = sample_cue(n, stream, "qr")
        return statistics(trace_powers(smp, 3).traces, smp.angles)

    verblunsky, _ = mc_map(from_verblunsky, samples, seed=100, dim=3 + n)
    ginibre, _ = mc_map(from_qr, samples, seed=200, dim=3 + n)

    moment_ok = True
    gaps = []
    for j in range(3):
        a, b = verblunsky[:, j], ginibre[:, j]
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(samples)
        gaps.append(abs(a.mean() - b.mean()) / se)
        moment_ok = moment_ok and abs(a.mean() - b.mean()) <= 3.0 * se
    ks = ks_distance(verblunsky[:, 3:].ravel(), ginibre[:, 3:].ravel())
    ok = moment_ok and ks < 0.02
    _verdict(
        "A2 sampler backend cross-validation",
        ok,
        f"|T^j|^2 gaps {max(gaps):.2f} combined-sigma, spacing KS {ks:.4f}",
    )


def test_A3_moment_identity():
    report = run_experiment(
        ExperimentConfig("moment-mc", n=8, alpha=1.0, beta=0.5, samples=100_000)
    )
    row = report["rows"][0]
    sigma_gap = abs(row["estimate"] - row["oracle"]) / row["stderr"]

    telescope_ok = True
    worst = 0.0
    for n in range(1, 101):
        oracle = 1.0
        for j in range(1, n + 1):  # Gamma(j) Gamma(j+2) / Gamma(j+1)^2 = (j+1)/j
            oracle *= (j + 1.0) / j
        gap = abs(exact_mean_f(n, ExponentPair(2.0, 0.0)) - oracle) / oracle
        worst = max(worst, gap)
        telescope_ok = telescope_ok and gap < 1e-10
    ok = report["passed"] and telescope_ok
    _verdict(
        "A3 moment identity",
        ok,
        f"MC gap {sigma_gap:.2f} sigma at (8, 1, 0.5); telescoping residual {worst:.2e}",
    )


def test_A4_barnes_limit_of_means():
    n = 4096
    worst = 0.0
    for alpha, beta in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]:
        p = ExponentPair(alpha, beta)
        limit = 0.25 * p.gamma_sq * math.log(n) + math.log(fh_constant(alpha, beta))
        ratio = math.exp(math.log(exact_mean_f(n, p)) - limit)
        worst = max(worst, abs(ratio - 1.0))
    _verdict("A4 Barnes-G limit of means", worst < 0.01, f"worst |ratio-1| = {worst:.2e}")


def test_A5_two_singularity_asymptotics():
    p = ExponentPair(0.6, 0.0)
    spec = make_sigma(3, 0.0, 0.5 * math.pi, p, 0)
    coeffs = fourier_coeffs(spec, 255)
    errors = []
    for n in (64, 128, 256):
        exact = toeplitz_logdet(coeffs, n).log_det
        pred = fh_prediction(spec, n).log_value
        errors.append(abs(cmath.exp(exact - pred) - 1.0))
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 0.03
    _verdict(
        "A5 two-singularity asymptotics",
        ok,
        "ratio errors " + ", ".join(f"{e:.2e}" for e in errors),
    )


def test_A6_heine_szego_product():
    spec = SymbolSpec({1: 0.3, -1: 0.3}, ())
    estimate, det = heine_szego_check(spec, 6, 100_000, RngStream(606, 0))
    sigma_gap = abs(estimate.mean - det) / estimate.stderr
    _verdict(
        "A6 Heine-Szego product",
        sigma_gap <= 3.0,
        f"MC {estimate.mean:.5f} vs exact {det:.5f}, gap {sigma_gap:.2f} sigma",
    )


def test_A7_strong_szego_limit():
    spec = SymbolSpec({1: 0.3, -1: 0.3}, ())
    coeffs = fourier_coeffs(spec, 64)
    logdets = np.array([toeplitz_logdet(coeffs, n).log_det.real for n in range(1, 65)])
    limit_gap = abs(logdets[63] - 0.09)
    monotone = bool(np.all(np.diff(logdets) >= -1e-12))
    ok = limit_gap < 1e-6 and monotone
    _verdict(
        "A7 strong Szego limit",
        ok,
        f"|log D - 0.09| = {limit_gap:.2e} at size 64, monotone = {monotone}",
    )


def test_A8_variance_kernel_decay():
    grid = uniform_grid(4096)
    norm = TWO_PI * TWO_PI
    values = [variance_integral(1.0, 1.0, k, grid) / norm for k in (8, 16, 32, 64)]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = decreasing and values[-1] < 0.5
    _verdict(
        "A8 variance-kernel decay",
        ok,
        "normalized integrals " + ", ".join(f"{v:.4f}" for v in values),
    )


def test_A9_total_mass_law_agreement():
    report = run_experiment(ExperimentConfig("mass-ks"))
    ks_row = next(r for r in report["rows"] if "KS" in r["check"])
    _verdict(
        "A9 total-mass law agreement",
        ks_row["pass"],
        f"KS = {ks_row['estimate']:.4f} over 2000 + 2000 draws",
    )


def test_A10_field_coefficient_variance():
    # the criterion holds for any exact CUE sampler, so it runs on the
    # registry's Verblunsky draws
    report = run_experiment(
        ExperimentConfig("coeff-variance", n=64, k=4, samples=100_000)
    )
    gaps = [
        abs(r["estimate"] - r["oracle"]) / r["stderr"] for r in report["rows"]
    ]
    _verdict(
        "A10 field-coefficient variance",
        report["passed"],
        "sigma gaps " + ", ".join(f"{g:.2f}" for g in gaps),
    )


def test_acceptance_sample_shapes():
    # tiny structural guard so a broken import fails fast here too
    smp = sample_cue(4, RngStream(0, 0))
    assert isinstance(smp, EigenSample) and smp.n == 4
