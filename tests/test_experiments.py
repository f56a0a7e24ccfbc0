"""Tests for the experiment registry: config resolution, validation,
report structure, and byte-level reproducibility of written reports."""

import json

import pytest

from cuechaos import EXPERIMENTS, ConfigError, ExperimentConfig, run_experiment, write_report

EXPECTED_NAMES = {
    "clt-traces",
    "ef-limit",
    "kernel-decay",
    "moment-mc",
    "mass-ks",
    "coeff-variance",
}

ROW_KEYS = {"check", "estimate", "stderr", "oracle", "oracle_provenance", "tolerance", "pass"}


def test_registry_names():
    assert set(EXPERIMENTS) == EXPECTED_NAMES


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="registry"):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_field_validation_names_the_field():
    cases = [
        (ExperimentConfig("mass-ks", alpha=-0.6), "alpha"),
        (ExperimentConfig("mass-ks", alpha=1.2, beta=1.0), "beta"),
        (ExperimentConfig("kernel-decay", grid_size=32), "grid_size"),
        (ExperimentConfig("moment-mc", samples=1), "samples"),
        (ExperimentConfig("clt-traces", k=0), "k"),
        (ExperimentConfig("clt-traces", n=2, k=6), "k"),
        (ExperimentConfig("ef-limit", alpha=-1.5), "alpha"),
        (ExperimentConfig("ef-limit", workers=0), "workers"),
    ]
    for config, field in cases:
        with pytest.raises(ConfigError, match=field):
            run_experiment(config)


def test_defaults_resolved_into_report():
    report = run_experiment(ExperimentConfig(experiment="ef-limit"))
    assert report["config"]["n"] == 4096
    assert report["config"]["alpha"] == 1.0
    assert report["config"]["seed"] == 0
    # execution details are not part of the reproducible report
    assert "out_dir" not in report["config"]
    assert "workers" not in report["config"]
    # every sampled experiment draws Verblunsky coefficients; there is no knob
    assert "backend" not in report["config"]


def test_report_structure_and_provenance_labels():
    report = run_experiment(ExperimentConfig(experiment="kernel-decay"))
    assert report["build"].startswith("cuechaos-")
    assert report["experiment"] == "kernel-decay"
    assert isinstance(report["passed"], bool)
    for row in report["rows"]:
        assert ROW_KEYS <= set(row)
        assert row["oracle_provenance"]


def test_cheap_experiments_pass_at_fixed_seed():
    # clt-traces needs n >= 4*j: trace moments match Gaussian moments
    # exactly only up to order n/j, and the rows go up to 4th moments
    configs = [
        ExperimentConfig("clt-traces", n=8, k=2, samples=1500, seed=3),
        ExperimentConfig("ef-limit", n=512),
        ExperimentConfig("kernel-decay"),
        ExperimentConfig("moment-mc", n=4, samples=1500, seed=1),
        ExperimentConfig("coeff-variance", n=8, samples=1500, seed=2),
    ]
    for config in configs:
        report = run_experiment(config)
        failing = [r["check"] for r in report["rows"] if not r["pass"]]
        assert report["passed"], (config.experiment, failing)


def test_worker_count_does_not_change_rows():
    serial = run_experiment(ExperimentConfig("coeff-variance", n=6, samples=800, workers=1))
    threaded = run_experiment(ExperimentConfig("coeff-variance", n=6, samples=800, workers=6))
    assert serial["rows"] == threaded["rows"]


def test_written_reports_are_byte_reproducible(tmp_path):
    config = ExperimentConfig("clt-traces", n=4, samples=400, seed=9)
    report = run_experiment(config)
    json_a, csv_a = write_report(report, tmp_path / "a")
    json_b, csv_b = write_report(run_experiment(config), tmp_path / "b")
    assert json_a.read_bytes() == json_b.read_bytes()
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_written_report_formats(tmp_path):
    config = ExperimentConfig("ef-limit", n=128, out_dir=str(tmp_path))
    report = run_experiment(config)
    json_path = tmp_path / "ef-limit.json"
    csv_path = tmp_path / "ef-limit.csv"
    assert json_path.exists() and csv_path.exists()
    loaded = json.loads(json_path.read_text(encoding="utf-8"))
    assert loaded["rows"] == report["rows"]
    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].startswith("check,estimate,stderr,oracle")
    assert len(lines) == 1 + len(report["rows"])
    assert lines[1].endswith("pass")


def test_seed_changes_estimates():
    a = run_experiment(ExperimentConfig("moment-mc", n=3, samples=500, seed=0))
    b = run_experiment(ExperimentConfig("moment-mc", n=3, samples=500, seed=1))
    assert a["rows"][0]["estimate"] != b["rows"][0]["estimate"]
    assert a["rows"][0]["oracle"] == b["rows"][0]["oracle"]


def test_clt_traces_at_default_matrix_size():
    # the registry default n=32 honors n >= 4*j_max, so all moments up to
    # order four are exactly Gaussian; a reduced sample count keeps this
    # affordable.
    config = ExperimentConfig(experiment="clt-traces", n=32, k=4, samples=8000, seed=3)
    report = run_experiment(config)
    assert report["passed"] is True
    assert len(report["rows"]) == 32  # Re/Im x four moments x j <= 4


def test_mass_ks_tolerance_follows_sample_count():
    # at 200 + 200 draws the two-sample KS critical value (level 1e-3) is
    # 0.195, above the 0.10 allowance that holds from about 760 draws on
    report = run_experiment(ExperimentConfig("mass-ks", samples=200, seed=0))
    ks_row = next(r for r in report["rows"] if "KS" in r["check"])
    assert ks_row["tolerance"] == "abs 0.20"
    assert ks_row["pass"], ks_row["estimate"]
