"""Loading the cuechaos sources of this checkout, warming every layer up, and
recording the environment a run measured.

The benchmark imports the package from ``src/`` next to this directory and
never from an installed copy, so it measures the tree it ships with.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no cuechaos sources to benchmark."""


def import_program() -> None:
    """Import cuechaos from this checkout's ``src/``."""
    init = SRC / "cuechaos" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no cuechaos sources at {init}")
    sys.path.insert(0, str(SRC))
    import cuechaos
    import cuechaos.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(cuechaos.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported cuechaos from {cuechaos.__file__}, not from {init}")


def quiet_cli(argv: list[str]) -> int:
    """Run ``cuechaos.cli.main`` with its progress lines kept off stdout."""
    from cuechaos import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def warm_up(work_dir: Path) -> None:
    """One small call into each layer, so caches, BLAS threads and lazy
    imports are ready before anything is timed."""
    from cuechaos import asymptotics, cue, experiments, gmc, montecarlo, special, toeplitz
    from cuechaos.grids import uniform_grid

    p = cue.ExponentPair(1.0, 0.5)
    grid = uniform_grid(64)
    sample = cue.sample_cue(8, montecarlo.RngStream(0, 0))
    cue.integrate_f(sample, 1.0, p, grid)
    cue.f_value(sample, 0.0, p)
    cue.trace_powers(sample, 4)
    gmc.chaos_measure(gmc.gaussian_draw(8, montecarlo.RngStream(0, 1)), 1.0, grid)
    montecarlo.run_mc_detailed(lambda s: s.generator().random(), 4, 0)
    montecarlo.ks_distance([0.1, 0.2, 0.3], [0.15, 0.25])
    spec = toeplitz.make_sigma(3, 0.0, 2.0, cue.ExponentPair(1.0, 0.0), 0)
    coeffs = toeplitz.fourier_coeffs(spec, 7, 1024)
    toeplitz.toeplitz_logdet(coeffs, 8)
    asymptotics.fh_prediction(spec, 8)
    asymptotics.variance_integral(1.0, 1.0, 4, grid)
    special.log_barnes_g(1.5)
    experiments.run_experiment(
        experiments.ExperimentConfig("moment-mc", n=4, samples=4, out_dir=str(work_dir / "report"))
    )
    status = quiet_cli(["sample-cue", "--n", "4", "--out", str(work_dir / "warm-up")])
    if status != 0:
        raise RuntimeError(f"warm-up sample-cue exited {status}")


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if probe.returncode != 0:
        return None
    return probe.stdout.strip() or None


def environment() -> dict:
    """What a figure depends on besides the code: cores, versions, BLAS threads."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": _openblas_threads(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
    }
