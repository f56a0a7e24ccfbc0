"""Tests for the command-line interface: CSV shapes, JSON symbol parsing,
agreement with direct library calls, and reproducible output."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuechaos import (
    ExponentPair,
    RngStream,
    fh_prediction,
    fourier_coeffs,
    make_sigma,
    sample_cue,
    toeplitz_logdet,
    uniform_grid,
)
from cuechaos.cli import _build_parser, main


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_sample_cue_csv(tmp_path):
    out = tmp_path / "cue"
    assert main(["sample-cue", "--n", "4", "--samples", "2", "--seed", "7", "--out", str(out)]) == 0
    # one file per draw, one angle per row under the header `theta`
    for i in range(2):
        header, rows = _read_csv(out / f"cue_sample_{i:04d}.csv")
        assert header == ["theta"]
        assert len(rows) == 4
    direct = sample_cue(4, RngStream(7, 1))
    _, rows = _read_csv(out / "cue_sample_0001.csv")
    assert_allclose([float(r[0]) for r in rows], direct.angles, rtol=1e-15)


def test_sample_cue_stdout_single_header(capsys):
    assert main(["sample-cue", "--n", "3", "--samples", "2", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta"
    assert len(lines) == 1 + 2 * 3
    assert all("," not in line for line in lines[1:])


def test_sample_cue_rerun_identical(tmp_path):
    args = ["sample-cue", "--n", "6", "--samples", "3", "--seed", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    for name in [f"cue_sample_{i:04d}.csv" for i in range(3)] + ["sample_cue_summary.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_summaries_describe_the_run(tmp_path):
    out = tmp_path / "cue"
    main(["sample-cue", "--n", "4", "--samples", "2", "--seed", "7", "--out", str(out)])
    summary = json.loads((out / "sample_cue_summary.json").read_text(encoding="utf-8"))
    assert summary["command"] == "sample-cue"
    assert summary["parameters"] == {"n": 4, "samples": 2, "seed": 7}
    assert summary["files"] == ["cue_sample_0000.csv", "cue_sample_0001.csv"]
    assert summary["build"].startswith("cuechaos-")

    config = tmp_path / "symbol.json"
    config.write_text(json.dumps({"v_coeffs": {"1": 0.3, "-1": 0.3}}), encoding="utf-8")
    out2 = tmp_path / "fh"
    main(["fh-asymptotics", "--config", str(config), "--sizes", "8,4", "--out", str(out2)])
    summary2 = json.loads((out2 / "fh_asymptotics_summary.json").read_text(encoding="utf-8"))
    assert summary2["parameters"]["sizes"] == [4, 8]
    assert summary2["parameters"]["symbol"] == {"v_coeffs": {"1": 0.3, "-1": 0.3}}
    assert summary2["files"] == ["fh_asymptotics.csv"]


def test_gmc_sample_csv(tmp_path):
    out = tmp_path / "gmc"
    code = main(
        ["gmc-sample", "--k", "4", "--beta", "0.8", "--samples", "2", "--grid-size", "16", "--out", str(out)]
    )
    assert code == 0
    for i in range(2):
        header, rows = _read_csv(out / f"gmc_sample_{i:04d}.csv")
        assert header == ["theta", "mass"]
        assert len(rows) == 16
        thetas = np.array([float(r[0]) for r in rows])
        masses = np.array([float(r[1]) for r in rows])
        assert_allclose(thetas, uniform_grid(16), rtol=1e-15)
        assert np.all(masses > 0.0)


def test_toeplitz_det_sigma_config(tmp_path):
    config = tmp_path / "sigma.json"
    config.write_text(
        json.dumps(
            {"sigma": {"which": 3, "theta": 0.0, "theta2": 0.5 * math.pi, "alpha": 0.6, "beta": 0.0, "k": 0}}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "det"
    assert main(["toeplitz-det", "--config", str(config), "--sizes", "8,16", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "toeplitz_det.csv")
    assert header == ["n", "log_det_re", "log_det_im"]
    spec = make_sigma(3, 0.0, 0.5 * math.pi, ExponentPair(0.6, 0.0), 0)
    coeffs = fourier_coeffs(spec, 15)
    for row in rows:
        n = int(row[0])
        direct = toeplitz_logdet(coeffs, n).log_det
        assert_allclose(float(row[1]), direct.real, rtol=1e-12)


def test_fh_asymptotics_explicit_config(tmp_path):
    config = tmp_path / "symbol.json"
    config.write_text(
        json.dumps(
            {
                "v_coeffs": {"0": 0.1, "1": [0.15, 0.0], "-1": 0.15},
                "singularities": [{"location": 1.0, "alpha": 0.3, "beta": [0.0, -0.2]}],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "fh"
    assert main(["fh-asymptotics", "--config", str(config), "--sizes", "32,64", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "fh_asymptotics.csv")
    assert header == ["n", "prediction_log"]
    assert [int(r[0]) for r in rows] == [32, 64]
    from cuechaos import Singularity, SymbolSpec

    spec = SymbolSpec(
        {0: 0.1, 1: 0.15, -1: 0.15}, (Singularity(1.0, 0.3, -0.2j),)
    )
    assert fh_prediction(spec, 32).regime == "fh_general"
    for row in rows:
        pred = fh_prediction(spec, int(row[0]))
        assert_allclose(float(row[1]), pred.log_value.real, rtol=1e-12)


def test_experiment_subcommand_writes_report(tmp_path):
    out = tmp_path / "report"
    code = main(["experiment", "ef-limit", "--n", "256", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "ef-limit.json").read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert payload["config"]["n"] == 256


def test_experiment_subcommand_writes_report_once(tmp_path, monkeypatch, capsys):
    import cuechaos.cli
    import cuechaos.experiments

    calls = []
    original = cuechaos.experiments.write_report

    def counting(report, out_dir):
        calls.append(out_dir)
        return original(report, out_dir)

    monkeypatch.setattr(cuechaos.cli, "write_report", counting)
    monkeypatch.setattr(cuechaos.experiments, "write_report", counting)
    out = tmp_path / "once"
    assert main(["experiment", "ef-limit", "--n", "128", "--out", str(out)]) == 0
    assert len(calls) == 1
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / 'ef-limit.json'}", f"wrote {out / 'ef-limit.csv'}"]


def test_experiment_subcommand_config_file_and_flag_priority(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 128, "seed": 5}), encoding="utf-8")
    out = tmp_path / "rep"
    code = main(["experiment", "ef-limit", "--config", str(config), "--n", "256", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "ef-limit.json").read_text(encoding="utf-8"))
    assert payload["config"]["n"] == 256  # flag overrides file
    assert payload["config"]["seed"] == 5  # file supplies the rest


def test_experiment_unknown_name_exits_cleanly():
    with pytest.raises(SystemExit):
        main(["experiment", "not-a-thing"])


def test_bad_config_json_exits_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["toeplitz-det", "--config", str(bad)])


def test_bad_sizes_rejected(tmp_path):
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"v_coeffs": {"0": 0.0}}), encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["toeplitz-det", "--config", str(config), "--sizes", "4,frog"])


@pytest.mark.parametrize(
    "argv, symbol",
    [
        (["gmc-sample", "--k", "64", "--grid-size", "100"], None),
        (["toeplitz-det", "--sizes", "2000"], {"v_coeffs": {"0": 0.0}}),
        (["sample-cue", "--n", "0"], None),
        (["fh-asymptotics"], {"singularities": [{"location": 1.0, "alpha": -0.5}]}),
        (["toeplitz-det"], {"sigma": {"theta": 0.0, "alpha": 0.5}}),
        (["toeplitz-det"], {"singularities": [{"alpha": 0.5}]}),
        (["fh-asymptotics"], {"singularities": {"a": 1}}),
    ],
    ids=[
        "gmc-sample-nyquist",
        "toeplitz-det-size-cap",
        "sample-cue-n0",
        "fh-asymptotics-alpha",
        "toeplitz-det-sigma-no-which",
        "toeplitz-det-no-location",
        "fh-asymptotics-singularities-object",
    ],
)
def test_bad_input_exits_with_error_message(tmp_path, argv, symbol):
    # library ValueErrors (ConfigError, DomainError, ...) end in one line, not a traceback
    if symbol is not None:
        config = tmp_path / "symbol.json"
        config.write_text(json.dumps(symbol), encoding="utf-8")
        argv = argv + ["--config", str(config)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert str(info.value.code).startswith("error:")


def test_sample_cue_rejects_the_verblunsky_backend():
    # sample-cue exports eigenangles from its one sampler and takes no
    # --backend; the experiment subcommand takes neither --workers nor
    # --backend (the registry always draws Verblunsky coefficients)
    for argv in (
        ["sample-cue", "--backend", "verblunsky"],
        ["sample-cue", "--backend", "qr"],
        ["experiment", "moment-mc", "--workers", "2"],
        ["experiment", "moment-mc", "--backend", "qr"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, payload, names",
    [
        (["experiment", "ef-limit"], {"samples_": 10, "backend": "qr"}, ["'samples_'", "'backend'"]),
        (["toeplitz-det"], {"v_coeffs": {"x": 1}}, ["v_coeffs[x]"]),
        (["toeplitz-det"], {"v_coeffs": {"1": ["a", 0]}}, ["v_coeffs[1]"]),
        (["experiment", "ef-limit"], {"n": "abc"}, ["n: expected a number", "'abc'"]),
        (["experiment", "ef-limit"], {"n": 40.7}, ["n: expected an integer", "40.7"]),
        (["experiment", "ef-limit"], {"k": 2.5}, ["k: expected an integer"]),
        (["experiment", "ef-limit"], {"samples": 10.5}, ["samples: expected an integer"]),
        (["experiment", "ef-limit"], {"grid_size": [64]}, ["grid_size: expected a number"]),
        (["experiment", "ef-limit"], {"seed": "x"}, ["seed: expected a number"]),
        (["experiment", "ef-limit"], {"seed": 1.5}, ["seed: expected an integer"]),
        (["experiment", "ef-limit"], {"alpha": "abc"}, ["alpha: expected a number"]),
    ],
    ids=[
        "experiment-unknown-keys",
        "v-coeffs-order",
        "v-coeffs-value",
        "experiment-n-text",
        "experiment-n-fraction",
        "experiment-k-fraction",
        "experiment-samples-fraction",
        "experiment-grid-size-list",
        "experiment-seed-text",
        "experiment-seed-fraction",
        "experiment-alpha-text",
    ],
)
def test_bad_json_field_is_named(tmp_path, argv, payload, names):
    config = tmp_path / "input.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(config)])
    message = str(info.value.code)
    assert message.startswith("error:")
    for name in names:
        assert name in message, message


def test_readme_commands_parse():
    # every `cuechaos ...` line of the README's sh blocks is a valid command
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("cuechaos ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
