"""Experiment registry: named, reproducible runs that compare Monte Carlo
estimates against exact oracles and closed-form limits.

Each experiment resolves its configuration (defaults overridden per field),
validates the parameter domain, and produces a structured report: resolved
inputs, a build identifier, and one row per check with the estimate, the
oracle value, its provenance label, and a pass/fail verdict.  Reports can be
written as a JSON summary plus a CSV table; reruns with the same
configuration reproduce the output bytes exactly (no timestamps, fixed float
formatting, per-index random streams).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import variance_integral
from .cue import (
    ExponentPair,
    exact_mean_f,
    f_block,
    integrate_f,
    sample_cue,
    sample_verblunsky_block,
    total_mass_block,
    trace_powers,
)
from .gmc import chaos_mass_block, field_coeffs_from_traces, gaussian_block
from .grids import TWO_PI, uniform_grid
from .montecarlo import RngStream, ks_distance, mc_map, mc_map_blocks
from .special import fh_constant

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EXPERIMENTS",
    "run_experiment",
    "write_report",
    "build_identifier",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    """Parameters of a registry run; None fields take experiment defaults.

    Every sampled experiment draws Verblunsky coefficients, which give p_n
    and the traces with no eigensolve, a block of draws at a time
    (sample_verblunsky_block, through mc_map_blocks): the traces and f at
    one angle of a block are bitwise those of sample_cue(n, stream,
    "verblunsky") draw by draw, and mass-ks at beta = 0 and alpha >= 0
    reads |p_n| on its grid by FFT (total_mass_block); at beta != 0 or
    alpha < 0 it runs integrate_f draw by draw.  The chaos side of mass-ks
    draws in blocks too (gaussian_block, chaos_mass_block), bitwise
    chaos_measure(gaussian_draw(k, stream), ...) draw by draw.  Numeric
    fields must be numbers, and every field but alpha and beta an integer;
    a ConfigError names the field otherwise.

    ``workers`` has no effect (samples are always evaluated serially) and is
    left out of the report; it is still validated (>= 1) only because the
    benchmark's workloads (bench/workloads.py) pass workers=2, and it goes
    when the benchmark's next change drops that.
    """

    experiment: str
    n: int | None = None
    k: int | None = None
    alpha: float | None = None
    beta: float | None = None
    samples: int | None = None
    grid_size: int | None = None
    seed: int = 0
    out_dir: str | None = None
    workers: int = 1


_DEFAULTS = {
    "clt-traces": dict(n=32, k=4, alpha=0.0, beta=0.0, samples=20000, grid_size=0),
    "ef-limit": dict(n=4096, k=0, alpha=1.0, beta=0.0, samples=0, grid_size=0),
    "kernel-decay": dict(n=0, k=64, alpha=1.0, beta=0.0, samples=0, grid_size=4096),
    "moment-mc": dict(n=8, k=0, alpha=1.0, beta=0.5, samples=20000, grid_size=0),
    "mass-ks": dict(n=128, k=128, alpha=1.0, beta=0.0, samples=2000, grid_size=1024),
    "coeff-variance": dict(n=64, k=4, alpha=0.0, beta=0.0, samples=20000, grid_size=0),
}

_GAUSSIAN_MOMENTS = (0.0, 0.5, 0.0, 0.75)

# mass-ks KS tolerance: the larger of the allowance for the finite-n, finite-k
# gap between the two laws and the two-sample KS critical value
# c(alpha) sqrt(2/samples) at alpha = 1e-3, c(alpha) = sqrt(ln(2/alpha)/2)
_KS_ALLOWANCE = 0.10
_KS_C_ALPHA = math.sqrt(math.log(2.0 / 1e-3) / 2.0)


@functools.cache
def build_identifier() -> str:
    """Package version, extended with the git description when available.

    Computed once per process: the code a process runs is fixed at import.
    """
    here = Path(__file__).resolve().parent
    try:
        probe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if probe.returncode == 0 and probe.stdout.strip():
            return f"cuechaos-{__version__}+g{probe.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"cuechaos-{__version__}"


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    if config.experiment not in _DEFAULTS:
        raise ConfigError(
            f"experiment: unknown name {config.experiment!r}; "
            f"registry has {sorted(_DEFAULTS)}"
        )
    merged = dict(_DEFAULTS[config.experiment])
    for name in ("n", "k", "alpha", "beta", "samples", "grid_size"):
        value = getattr(config, name)
        if value is not None:
            merged[name] = value
    merged.update(seed=config.seed, workers=config.workers)
    resolved = ExperimentConfig(
        experiment=config.experiment,
        out_dir=config.out_dir,
        **{name: _number(name, value) for name, value in merged.items()},
    )
    if resolved.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {resolved.workers}")
    return resolved


_REAL_FIELDS = ("alpha", "beta")


def _number(field: str, value) -> int | float:
    """value as a float (alpha, beta) or an int (every other field); a
    ConfigError names the field of a value that is not a number, or not an
    integer where one is needed."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None
    if field in _REAL_FIELDS:
        return number
    if not number.is_integer():
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else int(number)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _moment_rows(values: np.ndarray, labels: list[str], provenance: str) -> list[dict]:
    rows = []
    for col, label in enumerate(labels):
        x = values[:, col]
        for order in range(1, 5):
            powered = x**order
            estimate = float(powered.mean())
            stderr = float(powered.std(ddof=1) / math.sqrt(powered.size))
            oracle = _GAUSSIAN_MOMENTS[order - 1]
            rows.append(
                {
                    "check": f"{label} moment {order}",
                    "estimate": estimate,
                    "stderr": stderr,
                    "oracle": oracle,
                    "oracle_provenance": provenance,
                    "tolerance": "3 stderr",
                    "pass": abs(estimate - oracle) <= 3.0 * stderr,
                }
            )
    return rows


def _run_clt_traces(cfg: ExperimentConfig) -> list[dict]:
    _require(cfg.n >= 1, "n", f"must be >= 1, got {cfg.n}")
    _require(1 <= cfg.k <= min(16, cfg.n), "k", f"trace order must be in 1..min(16, n), got {cfg.k}")
    _require(cfg.samples >= 2, "samples", f"must be >= 2, got {cfg.samples}")
    j_max = cfg.k
    scale = 1.0 / np.sqrt(np.arange(1, j_max + 1))

    def functional(streams: list[RngStream]) -> np.ndarray:
        traces = trace_powers(sample_verblunsky_block(cfg.n, streams), j_max).traces * scale
        return np.concatenate([traces.real, traces.imag], axis=-1)

    values, _ = mc_map_blocks(functional, cfg.samples, cfg.seed, dim=2 * j_max)
    labels = [f"Re T{j}/sqrt({j})" for j in range(1, j_max + 1)]
    labels += [f"Im T{j}/sqrt({j})" for j in range(1, j_max + 1)]
    return _moment_rows(values, labels, "standard-gaussian-moment")


def _run_ef_limit(cfg: ExperimentConfig) -> list[dict]:
    _require(cfg.alpha > -1.0, "alpha", f"must be > -1, got {cfg.alpha}")
    _require(cfg.n >= 32, "n", f"must be >= 32, got {cfg.n}")
    p = ExponentPair(cfg.alpha, cfg.beta)
    constant = fh_constant(cfg.alpha, cfg.beta)
    sizes = sorted({max(2, cfg.n // 16), max(2, cfg.n // 4), cfg.n})
    rows = []
    for size in sizes:
        log_pred = 0.25 * p.gamma_sq * math.log(size) + math.log(constant)
        ratio = math.exp(math.log(exact_mean_f(size, p)) - log_pred)
        # the 1% criterion applies at the target size; smaller sizes only
        # show the approach to the limit
        at_target = size == cfg.n
        rows.append(
            {
                "check": f"mean/limit ratio at n={size}",
                "estimate": ratio,
                "stderr": 0.0,
                "oracle": 1.0,
                "oracle_provenance": "barnes-g-limit",
                "tolerance": "abs 0.01" if at_target else "context (criterion at target n)",
                "pass": abs(ratio - 1.0) < 0.01 if at_target else True,
            }
        )
    return rows


def _run_kernel_decay(cfg: ExperimentConfig) -> list[dict]:
    gamma_sq = ExponentPair(cfg.alpha, cfg.beta).gamma_sq
    _require(gamma_sq < 2.0, "alpha", f"needs alpha^2 + beta^2 < 2, got {gamma_sq}")
    _require(cfg.k >= 8, "k", f"must be >= 8, got {cfg.k}")
    _require(cfg.grid_size >= 16 * cfg.k, "grid_size", f"must be >= 16*k = {16 * cfg.k}")
    truncations = sorted({max(1, cfg.k // 8), max(1, cfg.k // 4), max(1, cfg.k // 2), cfg.k})
    grid = uniform_grid(cfg.grid_size)
    norm = TWO_PI * TWO_PI
    rows = []
    previous = None
    for k in truncations:
        value, diag_bound = variance_integral(1.0, gamma_sq, k, grid, return_diag_bound=True)
        normalized = value / norm
        rows.append(
            {
                "check": f"normalized variance integral at k={k}",
                "estimate": normalized,
                "stderr": 0.0,
                "oracle": 0.0 if previous is None else previous,
                "oracle_provenance": "kernel-pointwise-decay",
                "tolerance": "strictly below previous k" if previous is not None else "none (first point)",
                "pass": True if previous is None else normalized < previous,
                "diag_bound": diag_bound / norm,
            }
        )
        previous = normalized
    return rows


def _run_moment_mc(cfg: ExperimentConfig) -> list[dict]:
    _require(cfg.alpha > -1.0, "alpha", f"must be > -1, got {cfg.alpha}")
    _require(cfg.n >= 1, "n", f"must be >= 1, got {cfg.n}")
    _require(cfg.samples >= 2, "samples", f"must be >= 2, got {cfg.samples}")
    p = ExponentPair(cfg.alpha, cfg.beta)

    def functional(streams: list[RngStream]) -> np.ndarray:
        return f_block(sample_verblunsky_block(cfg.n, streams), 0.0, p)

    values, stats = mc_map_blocks(functional, cfg.samples, cfg.seed)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(cfg.samples))
    oracle = exact_mean_f(cfg.n, p)
    return [
        {
            "check": f"E f at theta=0, n={cfg.n}",
            "estimate": mean,
            "stderr": stderr,
            "oracle": oracle,
            "oracle_provenance": "gamma-product",
            "tolerance": "3 stderr",
            "pass": abs(mean - oracle) <= 3.0 * stderr,
            "retries": stats.retries,
        }
    ]


def _run_mass_ks(cfg: ExperimentConfig) -> list[dict]:
    _require(cfg.alpha > -0.5, "alpha", f"main-theorem domain needs alpha > -1/2, got {cfg.alpha}")
    p = ExponentPair(cfg.alpha, cfg.beta)
    _require(p.gamma_sq < 2.0, "beta", f"main-theorem domain needs alpha^2 + beta^2 < 2, got {p.gamma_sq}")
    _require(cfg.samples >= 2, "samples", f"must be >= 2, got {cfg.samples}")
    _require(cfg.grid_size >= 4 * cfg.n, "grid_size", f"must be >= 4*n = {4 * cfg.n}")
    _require(cfg.grid_size >= 2 * cfg.k + 1, "grid_size", f"must be >= 2*k+1 = {2 * cfg.k + 1}")
    beta_chaos = math.sqrt(p.gamma_sq)
    grid = uniform_grid(cfg.grid_size)

    def cue_mass(stream: RngStream) -> float:
        return integrate_f(sample_cue(cfg.n, stream, "verblunsky"), 1.0, p, grid)

    def cue_masses(streams: list[RngStream]) -> np.ndarray:
        return total_mass_block(sample_verblunsky_block(cfg.n, streams), p, grid)

    def gmc_masses(streams: list[RngStream]) -> np.ndarray:
        return chaos_mass_block(gaussian_block(cfg.k, streams), beta_chaos, grid)

    # |p_n| alone comes off the grid by FFT (see total_mass_block); the
    # branch of Im log p_n, and |p_n|^alpha with alpha < 0, need the
    # recursion at every node
    if p.beta == 0.0 and p.alpha >= 0.0:
        cue_vals, _ = mc_map_blocks(cue_masses, cfg.samples, cfg.seed)
    else:
        cue_vals, _ = mc_map(cue_mass, cfg.samples, cfg.seed)
    # disjoint stream ids for the chaos side keep the two sample sets independent
    gmc_vals, _ = mc_map_blocks(gmc_masses, cfg.samples, cfg.seed, first_index=cfg.samples)
    statistic = ks_distance(cue_vals, gmc_vals)
    # the critical value is rounded up to the two decimals the label shows
    critical = _KS_C_ALPHA * math.sqrt(2.0 / cfg.samples)
    ks_tolerance = max(_KS_ALLOWANCE, math.ceil(100.0 * critical) / 100.0)
    rows = []
    for label, vals in (("characteristic-polynomial", cue_vals), ("chaos", gmc_vals)):
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
        rows.append(
            {
                "check": f"mean total mass ({label})",
                "estimate": mean,
                "stderr": stderr,
                "oracle": TWO_PI,
                "oracle_provenance": "normalization",
                "tolerance": "3 stderr",
                "pass": abs(mean - TWO_PI) <= 3.0 * stderr,
            }
        )
    rows.append(
        {
            "check": f"KS distance of total-mass laws (n={cfg.n}, k={cfg.k})",
            "estimate": statistic,
            "stderr": 0.0,
            "oracle": 0.0,
            "oracle_provenance": "shared-limit-law",
            "tolerance": f"abs {ks_tolerance:.2f}",
            "pass": statistic < ks_tolerance,
        }
    )
    return rows


def _run_coeff_variance(cfg: ExperimentConfig) -> list[dict]:
    _require(cfg.n >= 1, "n", f"must be >= 1, got {cfg.n}")
    _require(1 <= cfg.k <= min(16, cfg.n), "k", f"coefficient order must be in 1..min(16, n), got {cfg.k}")
    _require(cfg.samples >= 2, "samples", f"must be >= 2, got {cfg.samples}")
    j_max = cfg.k

    def functional(streams: list[RngStream]) -> np.ndarray:
        coeffs = field_coeffs_from_traces(
            trace_powers(sample_verblunsky_block(cfg.n, streams), j_max)
        )
        return np.abs(coeffs) ** 2

    values, _ = mc_map_blocks(functional, cfg.samples, cfg.seed, dim=j_max)
    rows = []
    for j in range(1, j_max + 1):
        col = values[:, j - 1]
        estimate = float(col.mean())
        stderr = float(col.std(ddof=1) / math.sqrt(col.size))
        oracle = 1.0 / (4.0 * j)
        rows.append(
            {
                "check": f"Var of field coefficient {j}",
                "estimate": estimate,
                "stderr": stderr,
                "oracle": oracle,
                "oracle_provenance": "limit-field-coefficient-variance",
                "tolerance": "3 stderr",
                "pass": abs(estimate - oracle) <= 3.0 * stderr,
            }
        )
    return rows


EXPERIMENTS = {
    "clt-traces": _run_clt_traces,
    "ef-limit": _run_ef_limit,
    "kernel-decay": _run_kernel_decay,
    "moment-mc": _run_moment_mc,
    "mass-ks": _run_mass_ks,
    "coeff-variance": _run_coeff_variance,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run a registry experiment and return (and optionally write) its report.

    The report carries the resolved config, the build identifier, one row
    per check, and the overall verdict.  If config.out_dir is set the report
    is written as <name>.json and <name>.csv in that directory.
    """
    cfg = _resolve(config)
    rows = EXPERIMENTS[cfg.experiment](cfg)
    embedded = asdict(cfg)
    # destination and the (ignored) worker count cannot influence results,
    # so they are left out of the reproducible report
    del embedded["out_dir"]
    del embedded["workers"]
    report = {
        "experiment": cfg.experiment,
        "build": build_identifier(),
        "config": embedded,
        "rows": rows,
        "passed": all(row["pass"] for row in rows),
    }
    if cfg.out_dir is not None:
        write_report(report, cfg.out_dir)
    return report


def _format_cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(report: dict, out_dir) -> tuple[Path, Path]:
    """Write <experiment>.json and <experiment>.csv (UTF-8, LF endings)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = report["experiment"]
    json_path = out / f"{name}.json"
    csv_path = out / f"{name}.csv"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    columns: list[str] = []
    for row in report["rows"]:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in report["rows"]:
            writer.writerow([_format_cell(row.get(col, "")) for col in columns])
    return json_path, csv_path
