"""Command-line entry point.

Subcommands
-----------
sample-cue      draw circular-ensemble eigenangle samples (Ginibre QR); CSV,
                one angle per row under the header ``theta`` (one file per
                draw with --out)
gmc-sample      draw truncated-field chaos measures on a grid; CSV with
                columns ``theta,mass`` (one file per draw with --out)
toeplitz-det    exact log-determinants of a symbol given as JSON; CSV with
                columns ``n,log_det_re,log_det_im``
fh-asymptotics  closed-form predictions for the same symbol JSON; CSV with
                columns ``n,prediction_log`` (real part of the predicted
                log-determinant; the constant is real for the
                conjugate-symmetric symbols this tool targets)
experiment      run a named registry experiment and report pass/fail

Symbol JSON (for toeplitz-det / fh-asymptotics) is either an explicit form

    {"v_coeffs": {"0": 0.3, "1": [0.15, 0.0], "-1": 0.15},
     "singularities": [{"location": 0.0, "alpha": 0.5, "beta": [0.0, -0.25]}]}

with complex numbers written as [re, im] (bare numbers are real), or the
shorthand {"sigma": {"which": 1|2|3, "theta": t, "theta2": t2,
"alpha": a, "beta": b, "k": truncation}} for the built-in symbol families.

All CSV output uses a header row, comma separators, UTF-8, and LF endings.
With --out, every run additionally writes a ``<command>_summary.json``
recording the command, build identifier, parameters, and files written
(the experiment subcommand's JSON report plays that role for experiments).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .asymptotics import fh_prediction
from .cue import ExponentPair, sample_cue
from .experiments import (
    ExperimentConfig,
    _format_cell,
    build_identifier,
    run_experiment,
    write_report,
)
from .gmc import chaos_measure, gaussian_draw
from .grids import uniform_grid
from .montecarlo import RngStream
from .toeplitz import (
    Singularity,
    SymbolSpec,
    check_dense_size,
    fourier_coeffs,
    make_sigma,
    toeplitz_logdets,
)

__all__ = ["main"]


def _csv_text(columns: list[str], rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_csv(out_dir: str | None, filename: str, columns: list[str], rows) -> list[str]:
    text = _csv_text(columns, rows)
    if out_dir is None:
        sys.stdout.write(text)
        return []
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / filename
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {target}")
    return [filename]


def _float_column(values) -> list[str]:
    """The CSV cells of a 1-d float64 array, each repr(float(value)) as in
    _format_cell, from one repr of the whole column."""
    return repr(values.tolist())[1:-1].split(", ")


def _emit_sample_csvs(out_dir: str | None, stem: str, columns: list[str], blocks) -> list[str]:
    """Serialize one draw per CSV file; on stdout, concatenate the draws.

    Each block is the formatted body lines of one draw.  Each draw is its
    own table (the serialization unit), so with --out the i-th draw lands in
    ``<stem>_<i:04d>.csv``.  Without --out all draws share one header on
    stdout; block boundaries are implied by the draw length.
    """
    header = [",".join(columns)]
    if out_dir is None:
        sys.stdout.write("\n".join(header + [line for block in blocks for line in block]) + "\n")
        return []
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    written = []
    for i, block in enumerate(blocks):
        target = path / f"{stem}_{i:04d}.csv"
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(header + block) + "\n")
        print(f"wrote {target}")
        written.append(target.name)
    return written


def _write_summary(out_dir: str | None, command: str, parameters: dict, files: list[str]) -> None:
    """JSON summary accompanying the CSV tables of one CLI run."""
    if out_dir is None:
        return
    payload = {
        "command": command,
        "build": build_identifier(),
        "parameters": parameters,
        "files": files,
    }
    target = Path(out_dir) / f"{command.replace('-', '_')}_summary.json"
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {target}")


def _complex_from_json(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise SystemExit(f"error: {where}: expected a number or [re, im], got {value!r}")


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SystemExit(f"error: config {path} must hold a JSON object")
    return data


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SystemExit(f"error: {where}: expected a JSON object, got {value!r}")
    return value


def _json_number(obj: dict, key: str, where: str, default=None, convert=float):
    """obj[key] through convert; a missing key takes default, and is an error
    when there is none."""
    if key not in obj:
        if default is None:
            raise SystemExit(f"error: {where}: missing field {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {where}.{key}: expected a number, got {obj[key]!r}") from exc


def _symbol_from_json(data: dict) -> SymbolSpec:
    if "sigma" in data:
        s = _json_object(data["sigma"], "sigma")
        p = ExponentPair(
            _json_number(s, "alpha", "sigma", 0.0), _json_number(s, "beta", "sigma", 0.0)
        )
        return make_sigma(
            _json_number(s, "which", "sigma", convert=int),
            _json_number(s, "theta", "sigma", 0.0),
            _json_number(s, "theta2", "sigma", 0.0),
            p,
            _json_number(s, "k", "sigma", 2000, int),
        )
    v_coeffs = {}
    for order, value in _json_object(data.get("v_coeffs", {}), "v_coeffs").items():
        where = f"v_coeffs[{order}]"
        try:
            j = int(order)
        except ValueError as exc:
            raise SystemExit(f"error: {where}: expected an integer order, got {order!r}") from exc
        v_coeffs[j] = _complex_from_json(value, where)
    entries = data.get("singularities", [])
    if not isinstance(entries, list):
        raise SystemExit(f"error: singularities: expected a list of objects, got {entries!r}")
    singularities = []
    for i, entry in enumerate(entries):
        where = f"singularities[{i}]"
        entry = _json_object(entry, where)
        beta = entry.get("beta", entry.get("beta_jump", 0.0))
        singularities.append(
            Singularity(
                _json_number(entry, "location", where),
                _json_number(entry, "alpha" if "alpha" in entry else "alpha_exp", where, 0.0),
                _complex_from_json(beta, f"{where}.beta"),
            )
        )
    return SymbolSpec(v_coeffs, tuple(singularities))


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: --sizes expects comma-separated integers, got {text!r}") from exc
    if not sizes or any(n < 1 for n in sizes):
        raise SystemExit(f"error: --sizes needs positive integers, got {text!r}")
    return sizes


def _cmd_sample_cue(args) -> int:
    blocks = []
    for i in range(args.samples):
        blocks.append(_float_column(sample_cue(args.n, RngStream(args.seed, i)).angles))
    files = _emit_sample_csvs(args.out, "cue_sample", ["theta"], blocks)
    _write_summary(
        args.out,
        "sample-cue",
        {"n": args.n, "samples": args.samples, "seed": args.seed},
        files,
    )
    return 0


def _cmd_gmc_sample(args) -> int:
    grid = uniform_grid(args.grid_size) if args.grid_size else None
    blocks = []
    theta = None
    for i in range(args.samples):
        measure = chaos_measure(gaussian_draw(args.k, RngStream(args.seed, i)), args.beta, grid)
        if theta is None:  # every draw shares one grid
            theta = _float_column(measure.grid)
        blocks.append(list(map(",".join, zip(theta, _float_column(measure.masses)))))
    files = _emit_sample_csvs(args.out, "gmc_sample", ["theta", "mass"], blocks)
    _write_summary(
        args.out,
        "gmc-sample",
        {
            "k": args.k,
            "beta": args.beta,
            "samples": args.samples,
            "seed": args.seed,
            "grid_size": args.grid_size or None,
        },
        files,
    )
    return 0


def _cmd_toeplitz_det(args) -> int:
    symbol = _load_json(args.config)
    spec = _symbol_from_json(symbol)
    sizes = _parse_sizes(args.sizes)
    for n in sorted(set(sizes)):
        check_dense_size(n)
    coeffs = fourier_coeffs(spec, max(sizes) - 1, args.fft_size)
    results = toeplitz_logdets(coeffs, sorted(set(sizes)))
    rows = [(r.n, r.log_det.real, r.log_det.imag) for r in results]
    files = _emit_csv(args.out, "toeplitz_det.csv", ["n", "log_det_re", "log_det_im"], rows)
    _write_summary(
        args.out,
        "toeplitz-det",
        {"symbol": symbol, "sizes": sorted(set(sizes)), "fft_size": args.fft_size},
        files,
    )
    return 0


def _cmd_fh_asymptotics(args) -> int:
    symbol = _load_json(args.config)
    spec = _symbol_from_json(symbol)
    sizes = _parse_sizes(args.sizes)
    rows = []
    for n in sorted(set(sizes)):
        pred = fh_prediction(spec, n)
        rows.append((n, pred.log_value.real))
    files = _emit_csv(args.out, "fh_asymptotics.csv", ["n", "prediction_log"], rows)
    _write_summary(
        args.out,
        "fh-asymptotics",
        {"symbol": symbol, "sizes": sorted(set(sizes))},
        files,
    )
    return 0


_CONFIG_KEYS = ("n", "k", "alpha", "beta", "samples", "grid_size", "seed")


def _cmd_experiment(args) -> int:
    base = _load_json(args.config) if args.config else {}
    unknown = sorted(set(base) - set(_CONFIG_KEYS))
    if unknown:
        raise SystemExit(
            f"error: config {args.config}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"recognized fields are {', '.join(_CONFIG_KEYS)}"
        )
    overrides = {
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "beta": args.beta,
        "samples": args.samples,
        "grid_size": args.grid_size,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    config = ExperimentConfig(
        experiment=args.name,
        n=base.get("n"),
        k=base.get("k"),
        alpha=base.get("alpha"),
        beta=base.get("beta"),
        samples=base.get("samples"),
        grid_size=base.get("grid_size"),
        seed=args.seed if args.seed is not None else base.get("seed", 0),
    )
    report = run_experiment(config)
    for row in report["rows"]:
        status = "pass" if row["pass"] else "FAIL"
        print(
            f"[{status}] {row['check']}: estimate={row['estimate']:.6g} "
            f"oracle={row['oracle']:.6g} ({row['tolerance']})"
        )
    print(f"experiment {report['experiment']}: {'pass' if report['passed'] else 'FAIL'}")
    if args.out:
        json_path, csv_path = write_report(report, args.out)
        print(f"wrote {json_path}")
        print(f"wrote {csv_path}")
    return 0 if report["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuechaos",
        description="circular-ensemble / multiplicative-chaos numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-cue", help="draw eigenangle samples")
    p.add_argument("--n", type=int, default=8, help="matrix size (default 8)")
    p.add_argument("--samples", type=int, default=1, help="number of draws (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="DIR", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_sample_cue)

    p = sub.add_parser("gmc-sample", help="draw chaos measures on a grid")
    p.add_argument("--k", type=int, default=64, help="field truncation (default 64)")
    p.add_argument("--beta", type=float, default=1.0, help="chaos parameter (default 1)")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-size", type=int, default=0, help="grid points (default: automatic)")
    p.add_argument("--out", metavar="DIR", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_gmc_sample)

    p = sub.add_parser("toeplitz-det", help="exact Toeplitz log-determinants")
    p.add_argument("--config", required=True, metavar="JSON", help="symbol description")
    p.add_argument("--sizes", default="4,8,16,32,64", help="comma-separated matrix sizes")
    p.add_argument("--fft-size", type=int, default=None, help="FFT length for coefficients")
    p.add_argument("--out", metavar="DIR", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_toeplitz_det)

    p = sub.add_parser("fh-asymptotics", help="closed-form determinant predictions")
    p.add_argument("--config", required=True, metavar="JSON", help="symbol description")
    p.add_argument("--sizes", default="4,8,16,32,64", help="comma-separated matrix sizes")
    p.add_argument("--out", metavar="DIR", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_fh_asymptotics)

    p = sub.add_parser("experiment", help="run a registry experiment")
    p.add_argument("name", help="registry name, e.g. clt-traces, ef-limit, kernel-decay")
    p.add_argument("--config", metavar="JSON", help="config overrides as a JSON object")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="DIR", help="write the JSON + CSV report here")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, DomainError, PoleError included
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
