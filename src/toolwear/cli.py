"""Command-line entry points.

Subcommands: design, segment, simulate, fit, diagnose, predict, taylor, run.
Exit codes: 0 success, 1 validation/input error, 2 convergence warning,
3 internal error. The ``TOOLWEAR_OUTPUT_DIR`` environment variable supplies
the default output directory where one is not given explicitly.

The stages that reach LAPACK (``pipeline``, ``predict``, ``simulate``) are
imported inside the handlers that run them, after their option checks, so
``--help``, ``design``, ``diagnose`` and a rejected option never load
``scipy.linalg``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import yaml

from . import io as tio
from .design import DesignBounds, augmentation_plan
from .diagnostics import PSRF_THRESHOLD, not_converged, summarize
from .errors import InsufficientDataError, SamplingError, ToolwearError, ValidationError
from .segmentation import CHANNELS

ENV_OUTPUT_DIR = "TOOLWEAR_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_INTERNAL = 3


def _default_output_dir() -> Path:
    return Path(os.environ.get(ENV_OUTPUT_DIR, "."))


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg is not None:
        return Path(arg)
    path = _default_output_dir()
    path.mkdir(parents=True, exist_ok=True)
    return path / default_name


def _parse_grid(spec: str):
    """'v_min:v_max:nv,f_min:f_max:nf' -> 6-tuple grid spec."""
    try:
        v_part, f_part = spec.split(",")
        v_min, v_max, nv = v_part.split(":")
        f_min, f_max, nf = f_part.split(":")
        return (float(v_min), float(v_max), int(nv),
                float(f_min), float(f_max), int(nf))
    except ValueError as exc:
        raise ValidationError(
            f"invalid --grid {spec!r}; expected v_min:v_max:nv,f_min:f_max:nf"
        ) from exc


def _verdict(warnings) -> int:
    """Print each reason the draws are not converged; exit 2 when there is one."""
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_CONVERGENCE if warnings else EXIT_OK


def _section(args, name: str) -> dict:
    """The run config's ``name`` section from the options of the same names, checked."""
    return tio.check_section(name, {key: getattr(args, key) for key in tio.SETTINGS[name]})


def _section_options(parser, name: str) -> None:
    """An option ``--<key>`` for each key of the run config's ``name`` section."""
    for key, setting in tio.SETTINGS[name].items():
        parser.add_argument(f"--{key.replace('_', '-')}", type=setting.type,
                            default=setting.default, help=setting.help)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_design(args) -> int:
    bounds = DesignBounds(args.v_min, args.v_max, args.f_min, args.f_max)
    initial, reserve = augmentation_plan(
        bounds, args.n_initial, n_reserve=args.n_reserve, skip=args.skip
    )
    out = _out_path(args.output, "design.csv")
    tio.write_design(out, initial, reserve)
    print(f"wrote {len(initial)} initial + {len(reserve)} reserve settings to {out}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    seg_cfg = _section(args, "segmentation")
    from .pipeline import segment_trace
    series, seg = segment_trace(args.trace, seg_cfg)
    series_out = _out_path(args.series_out, "series.csv")
    tio.write_series(series_out, series.length, series.forces)
    report_out = _out_path(args.report_out, "segments.csv")
    tio.write_segments(report_out, seg)
    print(f"{len(seg.changepoints)} changepoints; kept {len(series.length)} of "
          f"{seg.n_samples} samples; wrote {series_out} and {report_out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    tio.check_seed(args.seed)
    from .simulate import simulate_dataset, simulate_raw_trace
    out = Path(args.output_dir) if args.output_dir else _default_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    records, truth = simulate_dataset(
        n_experiments=args.n_experiments, n_points=args.n_points, seed=args.seed
    )
    tio.write_controls(out / "controls.csv", records)
    if args.raw:
        for rec in records:
            trace = simulate_raw_trace(rec, seed=args.seed + rec.id)
            tio.write_trace(out / f"trace_{rec.id}.csv", trace)
    else:
        for rec in records:
            tio.write_series(out / f"series_{rec.id}.csv", rec.length, rec.forces)
    truth_path = out / "truth.json"
    truth_path.write_text(json.dumps({
        "seed": args.seed,
        "mu_beta": truth.mu_beta,
        "alpha": list(truth.alpha),
        "beta": {ch: list(truth.beta[ch]) for ch in CHANNELS},
        "sigma": truth.sigma,
    }, indent=2))
    kind = "raw traces" if args.raw else "clean series"
    print(f"simulated {len(records)} experiments ({kind}) in {out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    smp, seed = _section(args, "sampler"), tio.check_seed(args.seed)
    from .pipeline import attach_series, fit_channel, fit_files
    records = tio.load_controls(args.controls)
    priors = tio.parse_priors(None if args.priors is None else tio.load_yaml(args.priors))
    if args.channel != "life":
        if args.series_dir is None:
            raise ValidationError("--series-dir is required for force channels")
        attach_series(records, args.series_dir)
    chains = fit_channel(records, args.channel, priors, smp, seed)
    files, warnings = fit_files(chains, args.channel)
    draws = _out_path(args.draws_out, files[0][0])
    paths = (draws, tio.chains_path(draws), _out_path(args.summary_out, files[2][0]))
    for path, (_, writer, obj) in zip(paths, files):
        writer(path, obj)
        print(f"wrote {path}")
    print(f"worst PSRF {files[2][2].worst_psrf():.3f}, divergences {chains.divergences.tolist()}")
    return _verdict(warnings)


def _cmd_diagnose(args) -> int:
    if not 1.0 <= args.threshold < math.inf:  # PSRF is at least 1; nan would pass every draw
        raise ValidationError(f"--threshold must be a finite number >= 1.0, got {args.threshold}")
    chains = tio.read_draws(args.draws)
    try:
        summary = summarize(chains)
    except InsufficientDataError as exc:  # too few chains or draws for a PSRF
        raise InsufficientDataError(f"{args.draws}: {exc}") from exc
    if args.summary_out is not None:
        tio.write_summary_csv(args.summary_out, summary)
    header = f"{'parameter':<16}{'mean':>12}{'sd':>12}{'q2.5':>12}" \
             f"{'median':>12}{'q97.5':>12}{'psrf':>8}"
    print(header)
    print("-" * len(header))
    for name, mean, sd, lo, med, hi, r in summary.rows():
        flag = " *" if r > args.threshold else ""
        print(f"{name:<16}{mean:>12.4g}{sd:>12.4g}{lo:>12.4g}"
              f"{med:>12.4g}{hi:>12.4g}{r:>8.4f}{flag}")
    divergences = ("not recorded in this draws file" if chains.divergences is None
                   else chains.divergences.tolist())
    print(f"\nchains: {chains.n_chains}, retained draws/chain: "
          f"{chains.n_retained}, divergences: {divergences}")
    warnings = not_converged(chains, summary, args.draws, args.threshold)
    if not warnings:
        print(f"converged: all PSRF <= {args.threshold}")
    return _verdict(warnings)


def _cmd_predict(args) -> int:
    chains = tio.read_draws(args.draws)
    grid_spec = _parse_grid(args.grid) if args.grid else None
    from .pipeline import predict_channel
    grid = predict_channel(chains, tio.load_controls(args.controls), args.channel, grid_spec)
    out = _out_path(args.output, f"surface_{args.channel}.csv")
    tio.write_surface_csv(out, grid)
    if args.matrix_out is not None:
        tio.write_surface_matrix(args.matrix_out, grid)
    print(f"wrote {grid.n_nodes} grid nodes to {out}")
    return EXIT_OK


def _cmd_taylor(args) -> int:
    rows = tio.load_taylor(args.input)
    from .predict import fit_taylor
    fit = fit_taylor(rows)
    print(f"n = {tio.fmt(fit.n)}")
    print(f"C = {tio.fmt(fit.C)}")
    print(f"residual sd (log life) = {tio.fmt(fit.residual_sd)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = tio.RunConfig.from_file(args.config)
    overrides = {key: val for key, val in (("seed", args.seed), ("output_dir", args.output_dir))
                 if val is not None}
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = yaml.safe_load(value)
        except yaml.YAMLError as exc:
            raise ValidationError(f"--set {key}: invalid YAML: {exc}") from exc
    config.override(overrides)
    from .pipeline import run_pipeline
    result = run_pipeline(config)
    print(f"pipeline complete: {len(result.artifacts)} artifacts, "
          f"manifest {result.manifest_path}")
    return _verdict(result.warnings)


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toolwear",
        description="Bayesian tool-wear analysis: experimental design, trace "
                    "segmentation, hierarchical GP model fitting, convergence "
                    "diagnostics, and predictive wear/tool-life surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="Sobol experimental design over (v_c, f)")
    p.add_argument("--v-min", type=float, required=True, help="cutting speed lower bound (m/min)")
    p.add_argument("--v-max", type=float, required=True, help="cutting speed upper bound (m/min)")
    p.add_argument("--f-min", type=float, required=True, help="feed rate lower bound (um/rev)")
    p.add_argument("--f-max", type=float, required=True, help="feed rate upper bound (um/rev)")
    p.add_argument("--n-initial", type=int, required=True, help="number of initial settings")
    p.add_argument("--n-reserve", type=int, default=0, help="reserve block for later augmentation")
    p.add_argument("--skip", type=int, default=1, help="leading sequence points to skip")
    p.add_argument("-o", "--output", help="output CSV (index,v_c,f,priority)")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("segment", help="changepoint segmentation of a raw force trace on Ft")
    p.add_argument("--trace", required=True, help="raw trace CSV (sample,Ft,Ff,Fp)")
    _section_options(p, "segmentation")
    p.add_argument("--series-out", help="contact-phase series CSV (L,Ft,Ff,Fp)")
    p.add_argument("--report-out", help="segment report CSV (default segments.csv)")
    p.set_defaults(handler=_cmd_segment)

    p = sub.add_parser("simulate", help="synthetic dataset from known ground truth")
    p.add_argument("--output-dir", help=f"output directory (default: ${ENV_OUTPUT_DIR} or .)")
    p.add_argument("--n-experiments", type=int, default=21)
    p.add_argument("--n-points", type=int, default=50, help="series points per experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw", action="store_true",
                   help="emit raw traces with non-contact gaps instead of clean series")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="sample the posterior for one channel")
    p.add_argument("--controls", required=True, help="controls CSV (id,v_c,f[,tool_life])")
    p.add_argument("--series-dir", help="directory of series_<id>.csv files")
    p.add_argument("--channel", choices=[*CHANNELS, "life"], default="Ft")
    _section_options(p, "sampler")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priors", help="YAML file of prior scales")
    p.add_argument("--draws-out", help="draws CSV path; the per-chain statistics go beside it "
                                       "in <name>.chains.csv")
    p.add_argument("--summary-out", help="fit summary CSV path")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("diagnose", help="convergence report for a draws file")
    p.add_argument("--draws", required=True,
                   help="draws CSV from fit, read with its <name>.chains.csv where present")
    p.add_argument("--summary-out", help="also write the summary CSV here")
    p.add_argument("--threshold", type=float, default=PSRF_THRESHOLD,
                   help="PSRF threshold for the convergence flag")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("predict", help="posterior-predictive surface on a (v_c, f) grid")
    p.add_argument("--draws", required=True, help="draws CSV from fit")
    p.add_argument("--controls", required=True, help="training controls CSV")
    p.add_argument("--channel", choices=[*CHANNELS, "life"], default="Ft")
    p.add_argument("--grid", help="v_min:v_max:nv,f_min:f_max:nf (default: 20x20 over the hull)")
    p.add_argument("-o", "--output", help="long-format surface CSV (v_c,f,mean,sd)")
    p.add_argument("--matrix-out", help="optional gnuplot-compatible matrix file")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("taylor", help="classical Taylor tool-life fit v_c * T^n = C")
    p.add_argument("--input", required=True, help="CSV with columns v_c and life (or tool_life)")
    p.set_defaults(handler=_cmd_taylor)

    p = sub.add_parser("run", help="full pipeline from a YAML config")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--output-dir", help="override the config output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable; YAML-parsed value)")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.handler(args)
    except ToolwearError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL if isinstance(exc, SamplingError) else EXIT_VALIDATION
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # a path it cannot use
            print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
