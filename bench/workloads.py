"""The benchmark's workloads: what one round of operations is, and how each
operation's output is checked.

An operation is one call to ``cuechaos.experiments.run_experiment`` or to
``cuechaos.cli.main``.  Functions are looked up on their module at call
time, so the tracer's wrappers see every call.  Inputs come from the
workload seed and the round index alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from cuechaos import cue, experiments
from program import quiet_cli

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One operation: ``metric`` names the per-operation time it adds to."""

    metric: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    draws: int = 0
    out_dir: Path | None = None


def round_seed(seed: int, index: int) -> int:
    """Experiment seed of round ``index``; rounds never share random streams."""
    return seed * 1000 + index


def _experiment(name: str, **fields) -> Callable[[], dict]:
    config = experiments.ExperimentConfig(name, **fields)
    return lambda: experiments.run_experiment(config)


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: quiet_cli(argv)


def _exited_zero(status: int) -> list[str]:
    return [] if status == 0 else [f"command exited {status}"]


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- chaos-mass ---------------------------------------------------------
# mass-ks at its defaults (backend left to the program's default), with the
# sample count cut from 2000 so that one operation takes a few seconds.
MASS_KS = dict(n=128, k=128, grid_size=1024, alpha=1.0, beta=0.0)
MASS_KS_SAMPLES = 64
MASS_KS_WORKERS = 2


def chaos_mass(seed: int, index: int, work: Path, workers: int | None = None) -> list[Op]:
    samples = MASS_KS_SAMPLES
    n, k, alpha, beta = MASS_KS["n"], MASS_KS["k"], MASS_KS["alpha"], MASS_KS["beta"]

    def check(report: dict) -> list[str]:
        normaliser = cue.exact_mean_f(n, cue.ExponentPair(alpha, beta))
        return checks.check_mass_ks(report, n, k, samples) + checks.check_gamma_mean(
            normaliser, n, alpha, beta
        )

    run = _experiment(
        "mass-ks",
        samples=samples,
        seed=round_seed(seed, index),
        workers=workers or MASS_KS_WORKERS,
        **MASS_KS,
    )
    # one CUE configuration and one Gaussian field per sample
    return [Op("mass_ks_s", run, check, draws=2 * samples)]


# -- trace-moments --------------------------------------------------------
MOMENT_MC = dict(n=8, alpha=1.0, beta=0.5, samples=1500)
CLT_TRACES = dict(n=32, k=4, samples=400)
COEFF_VARIANCE = dict(n=64, k=4, samples=160)
EXPORT_CUE_N = 64
EXPORT_GMC_K = 64
EXPORT_GMC_GRID = 1024
EXPORT_DRAWS = 16


def trace_moments(seed: int, index: int, work: Path, workers: int | None = None) -> list[Op]:
    rs = round_seed(seed, index)
    m, c, v = MOMENT_MC, CLT_TRACES, COEFF_VARIANCE
    cue_dir = work / f"round{index}" / "sample-cue"
    gmc_dir = work / f"round{index}" / "gmc-sample"
    return [
        Op(
            "moment_mc_s",
            _experiment("moment-mc", seed=rs, **m),
            lambda r: checks.check_moment_mc(r, m["n"], m["alpha"], m["beta"]),
            draws=m["samples"],
        ),
        Op(
            "clt_traces_s",
            _experiment("clt-traces", seed=rs, **c),
            lambda r: checks.check_clt_traces(r, c["n"], c["k"]),
            draws=c["samples"],
        ),
        Op(
            "coeff_variance_s",
            _experiment("coeff-variance", seed=rs, **v),
            lambda r: checks.check_coeff_variance(r, v["n"], v["k"]),
            draws=v["samples"],
        ),
        Op(
            "export_s",
            _cli(
                ["sample-cue", "--n", str(EXPORT_CUE_N), "--samples", str(EXPORT_DRAWS),
                 "--seed", str(rs), "--out", str(cue_dir)]
            ),
            lambda status: _exited_zero(status)
            + checks.check_cue_export(cue_dir, EXPORT_CUE_N, EXPORT_DRAWS),
            draws=EXPORT_DRAWS,
            out_dir=cue_dir,
        ),
        Op(
            "export_s",
            _cli(
                ["gmc-sample", "--k", str(EXPORT_GMC_K), "--beta", "1.0",
                 "--grid-size", str(EXPORT_GMC_GRID), "--samples", str(EXPORT_DRAWS),
                 "--seed", str(rs), "--out", str(gmc_dir)]
            ),
            lambda status: _exited_zero(status)
            + checks.check_gmc_export(gmc_dir, EXPORT_DRAWS, EXPORT_GMC_GRID),
            draws=EXPORT_DRAWS,
            out_dir=gmc_dir,
        ),
    ]


# -- toeplitz-fh ------------------------------------------------------------
SIZES = [64, 128, 256, 512, 1024]
TRIG_MODES = 200
KERNEL_DECAY = dict(k=64, grid_size=4096, gamma_sq=1.0)  # registry defaults
EF_LIMIT = dict(n=4096, alpha=1.0, beta=0.0)  # registry defaults


def _symbols(rng: np.random.Generator) -> list[tuple[str, dict, dict, list]]:
    """(label, symbol JSON, V coefficients, [(root angle, root exponent)]).

    Root exponents stay at or above 0.3, where the 2^20-node coefficient
    quadrature keeps log D_1024 within 1e-5, and two roots stay at least
    pi/3 apart, so the Fisher-Hartwig regime holds from the smallest size.
    """
    def two_angles() -> tuple[float, float]:
        theta = rng.uniform(0.0, TWO_PI)
        return theta, (theta + rng.uniform(math.pi / 3, 5 * math.pi / 3)) % TWO_PI

    symbols = []
    theta, theta2 = two_angles()
    alpha = rng.uniform(0.6, 1.2)
    sigma3 = {"which": 3, "theta": theta, "theta2": theta2, "alpha": alpha, "beta": 0.0, "k": 0}
    symbols.append(("sigma3", {"sigma": sigma3}, {}, [(theta, alpha / 2), (theta2, alpha / 2)]))

    theta, theta2 = two_angles()
    alpha = rng.uniform(0.6, 1.2)
    sigma2 = {"which": 2, "theta": theta, "theta2": theta2, "alpha": alpha, "beta": 0.0,
              "k": TRIG_MODES}
    v = {}
    for j in range(1, TRIG_MODES + 1):
        v[j] = -alpha * complex(math.cos(j * theta), -math.sin(j * theta)) / (2 * j)
        v[-j] = v[j].conjugate()
    symbols.append(("sigma2", {"sigma": sigma2}, v, [(theta2, alpha / 2)]))

    theta = rng.uniform(0.0, TWO_PI)
    a = rng.uniform(0.3, 0.6)
    explicit = {"v_coeffs": {}, "singularities": [{"location": theta, "alpha": a, "beta": 0.0}]}
    symbols.append(("single-root", explicit, {}, [(theta, a)]))
    return symbols


def toeplitz_fh(seed: int, index: int, work: Path, workers: int | None = None) -> list[Op]:
    rng = np.random.default_rng([seed, index])
    base = work / f"round{index}"
    base.mkdir(parents=True, exist_ok=True)
    sizes = ",".join(str(n) for n in SIZES)
    ops = []
    for label, symbol, v, roots in _symbols(rng):
        config = base / f"{label}.json"
        config.write_text(json.dumps(symbol), encoding="utf-8")
        det_dir, fh_dir = base / f"{label}-det", base / f"{label}-fh"

        def check_det(status, det_dir=det_dir, label=label, v=v, roots=roots):
            problems = _exited_zero(status)
            rows = checks.det_rows(det_dir)
            problems += checks.check_sizes(rows, SIZES, label)
            if label == "single-root":
                return problems + checks.check_single_root_det(rows, roots[0][1])
            return problems + checks.check_fh_gaps(rows, v, roots, label)

        def check_fh(status, fh_dir=fh_dir, label=label, v=v, roots=roots):
            rows = checks.fh_rows(fh_dir)
            return (
                _exited_zero(status)
                + checks.check_sizes(rows, SIZES, label)
                + checks.check_fh_predictions(rows, v, roots)
            )

        ops.append(Op("toeplitz_det_s", _cli(
            ["toeplitz-det", "--config", str(config), "--sizes", sizes, "--out", str(det_dir)]
        ), check_det, out_dir=det_dir))
        ops.append(Op("fh_asymptotics_s", _cli(
            ["fh-asymptotics", "--config", str(config), "--sizes", sizes, "--out", str(fh_dir)]
        ), check_fh, out_dir=fh_dir))

    kd_dir, ef_dir = base / "kernel-decay", base / "ef-limit"
    ops.append(Op(
        "kernel_decay_s",
        _cli(["experiment", "kernel-decay", "--out", str(kd_dir)]),
        lambda status: _exited_zero(status) + checks.check_kernel_decay(
            _report(kd_dir / "kernel-decay.json"), **KERNEL_DECAY
        ),
        out_dir=kd_dir,
    ))
    ops.append(Op(
        "ef_limit_s",
        _cli(["experiment", "ef-limit", "--out", str(ef_dir)]),
        lambda status: _exited_zero(status) + checks.check_ef_limit(
            _report(ef_dir / "ef-limit.json"), **EF_LIMIT
        ),
        out_dir=ef_dir,
    ))
    return ops


def _no_run_check(outputs: list) -> list[str]:
    return []


@dataclass
class Workload:
    """``build_round(seed, index, work, workers)`` gives one round's
    operations; ``check_run`` sees the outputs of every round together."""

    build_round: Callable[..., list[Op]]
    check_run: Callable[[list], list[str]] = _no_run_check


WORKLOADS = {
    "chaos-mass": Workload(chaos_mass, checks.check_pooled_mass),
    "trace-moments": Workload(trace_moments),
    "toeplitz-fh": Workload(toeplitz_fh),
}
