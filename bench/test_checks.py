"""Each correctness check accepts what the program really returns and
rejects a perturbed copy of it.

    python3 -m pytest bench/test_checks.py -q

The valid outputs come from small runs of cuechaos itself (a few seconds in
all), so the test also shows the checks' tolerances fit real output.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

import checks
from program import import_program, quiet_cli

import_program()
from cuechaos import experiments  # noqa: E402


def _run(name: str, **fields) -> dict:
    return experiments.run_experiment(experiments.ExperimentConfig(name, seed=7, **fields))


def _perturbed(report: dict, label: str, **changes) -> dict:
    out = copy.deepcopy(report)
    for row in out["rows"]:
        if row["check"] == label:
            row.update(changes)
            return out
    raise KeyError(label)


def _estimate(report: dict, label: str) -> float:
    return next(r["estimate"] for r in report["rows"] if r["check"] == label)


def test_gamma_product_matches_telescoping_case():
    # alpha = 2, beta = 0: E|p_n|^2 = n + 1
    assert checks.check_gamma_mean(9.0, 8, 2.0, 0.0) == []
    assert checks.check_gamma_mean(9.001, 8, 2.0, 0.0)


def test_normalisation_of_mass_ks():
    from cuechaos import cue

    value = cue.exact_mean_f(128, cue.ExponentPair(1.0, 0.0))
    assert checks.check_gamma_mean(value, 128, 1.0, 0.0) == []
    assert checks.check_gamma_mean(value * 1.001, 128, 1.0, 0.0)


def test_moment_mc():
    report = _run("moment-mc", n=8, alpha=1.0, beta=0.5, samples=400)
    label = "E f at theta=0, n=8"
    assert checks.check_moment_mc(report, 8, 1.0, 0.5) == []
    stderr = next(r["stderr"] for r in report["rows"] if r["check"] == label)
    shifted = checks.gamma_product_mean(8, 1.0, 0.5) + 7 * stderr
    assert checks.check_moment_mc(_perturbed(report, label, estimate=shifted), 8, 1.0, 0.5)
    wrong_oracle = _perturbed(report, label, oracle=1.001 * checks.gamma_product_mean(8, 1.0, 0.5))
    assert checks.check_moment_mc(wrong_oracle, 8, 1.0, 0.5)


def test_mass_ks():
    report = _run("mass-ks", n=16, k=16, grid_size=128, samples=40)
    assert checks.check_mass_ks(report, 16, 16, 40) == []
    ks = "KS distance of total-mass laws (n=16, k=16)"
    assert checks.check_mass_ks(_perturbed(report, ks, estimate=0.95), 16, 16, 40)
    assert checks.check_mass_ks(_perturbed(report, ks, estimate=-0.1), 16, 16, 40)
    assert checks.check_pooled_mass([report, report]) == []
    for label in ("mean total mass (characteristic-polynomial)", "mean total mass (chaos)"):
        bad = _perturbed(report, label, estimate=1.5 * checks.TWO_PI)
        assert checks.check_pooled_mass([report, bad])


def test_ks_bound_scales_with_samples():
    # wide enough for sampling noise at 200 samples, where a fixed 0.10 is not
    assert checks.ks_bound(200, 200) > 0.125
    assert checks.ks_bound(2000, 2000) < checks.ks_bound(200, 200)


def test_clt_traces():
    report = _run("clt-traces", n=32, k=4, samples=300)
    assert checks.check_clt_traces(report, 32, 4) == []
    assert checks.check_clt_traces(_perturbed(report, "Re T3/sqrt(3) moment 2", estimate=1.0), 32, 4)
    assert checks.check_clt_traces(_perturbed(report, "Im T1/sqrt(1) moment 1", estimate=0.5), 32, 4)
    # below the Diaconis-Shahshahani range the oracle is min(j, n)/(2j), not 1/2
    small = _run("clt-traces", n=2, k=4, samples=300)
    assert checks.check_clt_traces(small, 2, 4) == []


def test_coeff_variance():
    report = _run("coeff-variance", n=64, k=4, samples=200)
    assert checks.check_coeff_variance(report, 64, 4) == []
    bad = _perturbed(report, "Var of field coefficient 2", estimate=0.25)
    assert checks.check_coeff_variance(bad, 64, 4)


def test_ef_limit():
    report = _run("ef-limit")
    assert checks.check_ef_limit(report, 4096, 1.0, 0.0) == []
    label = "mean/limit ratio at n=4096"
    bad = _perturbed(report, label, estimate=_estimate(report, label) + 1e-4)
    assert checks.check_ef_limit(bad, 4096, 1.0, 0.0)
    assert checks.check_ef_limit(report, 4096, 0.5, 0.0)  # ran another configuration


def test_kernel_decay():
    report = _run("kernel-decay")
    assert checks.check_kernel_decay(report, 64, 4096, 1.0) == []
    label = "normalized variance integral at k=32"
    bad = _perturbed(report, label, estimate=_estimate(report, label) * 1.01)
    assert checks.check_kernel_decay(bad, 64, 4096, 1.0)
    flat = _perturbed(report, label, estimate=_estimate(report, "normalized variance integral at k=16"))
    assert checks.check_kernel_decay(flat, 64, 4096, 1.0)


SIZES = [64, 128, 256, 512, 1024]


def _toeplitz(tmp_path, symbol: dict) -> tuple[list, list]:
    config = tmp_path / "symbol.json"
    config.write_text(json.dumps(symbol), encoding="utf-8")
    sizes = ",".join(map(str, SIZES))
    for command, out in (("toeplitz-det", "det"), ("fh-asymptotics", "fh")):
        status = quiet_cli([command, "--config", str(config), "--sizes", sizes, "--out", str(tmp_path / out)])
        assert status == 0
    return checks.det_rows(tmp_path / "det"), checks.fh_rows(tmp_path / "fh")


def test_single_root_determinant(tmp_path):
    a = 0.4
    symbol = {"v_coeffs": {}, "singularities": [{"location": 1.0, "alpha": a, "beta": 0.0}]}
    det, fh = _toeplitz(tmp_path, symbol)
    assert checks.check_sizes(det, SIZES, "det") == []
    assert checks.check_sizes(det[:-1], SIZES, "det")
    assert checks.check_single_root_det(det, a) == []
    assert checks.check_fh_predictions(fh, {}, [(1.0, a)]) == []
    n, re, im = det[2]
    assert checks.check_single_root_det(det[:2] + [(n, re + 1e-3, im)] + det[3:], a)
    assert checks.check_single_root_det(det[:2] + [(n, re, 1e-6)] + det[3:], a)
    assert checks.check_fh_predictions([(m, v + 1e-3) for m, v in fh], {}, [(1.0, a)])


def test_sigma3_gaps(tmp_path):
    alpha = 0.9
    symbol = {"sigma": {"which": 3, "theta": 0.5, "theta2": 2.5, "alpha": alpha, "beta": 0.0, "k": 0}}
    det, fh = _toeplitz(tmp_path, symbol)
    roots = [(0.5, alpha / 2), (2.5, alpha / 2)]
    assert checks.check_fh_predictions(fh, {}, roots) == []
    assert checks.check_fh_gaps(det, {}, roots, "sigma3") == []
    # a constant offset does not shrink with n
    assert checks.check_fh_gaps([(n, re + 0.02, im) for n, re, im in det], {}, roots, "sigma3")
    assert checks.check_fh_gaps([(n, re, im + 1e-6) for n, re, im in det], {}, roots, "sigma3")


def test_sigma2_gaps(tmp_path):
    alpha, theta, theta2, k = 0.8, 0.3, 3.0, 40
    symbol = {"sigma": {"which": 2, "theta": theta, "theta2": theta2, "alpha": alpha, "beta": 0.0, "k": k}}
    det, fh = _toeplitz(tmp_path, symbol)
    v = {}
    for j in range(1, k + 1):
        v[j] = -alpha * complex(math.cos(j * theta), -math.sin(j * theta)) / (2 * j)
        v[-j] = v[j].conjugate()
    roots = [(theta2, alpha / 2)]
    assert checks.check_fh_predictions(fh, v, roots) == []
    assert checks.check_fh_gaps(det, v, roots, "sigma2") == []
    wrong_v = {j: 1.01 * c for j, c in v.items()}
    assert checks.check_fh_predictions(fh, wrong_v, roots)
    n, re, im = det[-1]
    assert checks.check_fh_gaps(det[:-1] + [(n, re + 0.05, im)], v, roots, "sigma2")


def test_cue_export(tmp_path):
    out = tmp_path / "cue"
    assert quiet_cli(["sample-cue", "--n", "16", "--samples", "3", "--seed", "2", "--out", str(out)]) == 0
    assert checks.check_cue_export(out, 16, 3) == []
    assert checks.check_cue_export(out, 16, 4)
    assert checks.check_cue_export(out, 15, 3)
    path = out / "cue_sample_0001.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_cue_export(out, 16, 3)
    lines[1], lines[2] = lines[2], lines[1]
    lines[-1] = repr(2 * math.pi)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_cue_export(out, 16, 3)


@pytest.mark.parametrize("change", ["negative", "off-grid", "short"])
def test_gmc_export(tmp_path, change):
    out = tmp_path / "gmc"
    argv = ["gmc-sample", "--k", "16", "--grid-size", "64", "--samples", "8", "--seed", "3", "--out", str(out)]
    assert quiet_cli(argv) == 0
    assert checks.check_gmc_export(out, 8, 64) == []
    path = out / "gmc_sample_0000.csv"
    header, rows = checks.read_csv(path)
    table = np.array(rows, dtype=float)
    if change == "negative":
        table[5, 1] = -table[5, 1]
    elif change == "off-grid":
        table[5, 0] += 1e-6
    else:
        table = table[:-1]
    body = "\n".join(f"{float(t)!r},{float(m)!r}" for t, m in table)
    path.write_text(",".join(header) + "\n" + body + "\n", encoding="utf-8")
    assert checks.check_gmc_export(out, 8, 64)
