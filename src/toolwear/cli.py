"""Command-line entry points.

Subcommands: design, segment, simulate, fit, diagnose, predict, taylor, run.
Exit codes: 0 success, 1 validation/input error, 2 convergence warning,
3 internal error. The ``TOOLWEAR_OUTPUT_DIR`` environment variable supplies
the default output directory where one is not given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import io as tio
from .design import DesignBounds, augmentation_plan
from .diagnostics import PSRF_THRESHOLD, summarize
from .errors import SamplingError, ToolwearError, ValidationError
from .model import ForceChannelModel, PriorConfig, controls_array
from .pipeline import run_pipeline
from .predict import fit_taylor, fit_tool_life, life_surface, surface
from .sampler import run_chains
from .segmentation import CHANNELS, RawTrace, binary_segmentation, extract_contact_phases
from .simulate import DEFAULT_BOUNDS, simulate_dataset, simulate_raw_trace

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


def _load_priors(path: str | None) -> PriorConfig:
    if path is None:
        return PriorConfig()
    raw = yaml.safe_load(Path(path).read_text())
    if raw is None:
        return PriorConfig()
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: priors file must be a mapping")
    try:
        cfg = PriorConfig(**raw)
    except TypeError as exc:
        raise ValidationError(f"{path}: unknown prior key ({exc})") from exc
    for name, val in raw.items():
        if val <= 0:
            raise ValidationError(f"{path}: prior scale {name} must be positive")
    return cfg


def _read_draws(path: str):
    if path.endswith(".npz"):
        return tio.read_draws_npz(path)
    return tio.read_draws_csv(path)


def _write_draws(path: Path, chains) -> None:
    if str(path).endswith(".npz"):
        tio.write_draws_npz(path, chains)
    else:
        tio.write_draws_csv(path, chains)


def _attach_series(records, series_dir: str) -> None:
    for rec in records:
        path = Path(series_dir) / f"series_{rec.id}.csv"
        if not path.exists():
            raise ValidationError(f"missing series file {path}")
        tio.load_series(path, rec)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_design(args) -> int:
    bounds = DesignBounds(args.v_min, args.v_max, args.f_min, args.f_max)
    initial, reserve = augmentation_plan(
        bounds, args.n_initial, n_reserve=args.n_reserve, skip=args.skip
    )
    out = _out_path(args.output, "design.csv")
    with open(out, "w") as fh:
        fh.write("index,v_c,f,priority\n")
        for block, tag in ((initial, "initial"), (reserve, "reserve")):
            for p in block:
                fh.write(f"{p.index},{tio.fmt(p.v_c)},{tio.fmt(p.f)},{tag}\n")
    print(f"wrote {len(initial)} initial + {len(reserve)} reserve settings to {out}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    trace = RawTrace(
        forces=tio.load_trace(args.trace),
        length_per_sample=args.length_per_sample,
    )
    seg = binary_segmentation(
        trace, penalty=args.penalty, min_seg_len=args.min_seg_len,
        channel=args.channel,
    )
    series = extract_contact_phases(trace, seg, args.threshold, channel=args.channel)
    series_out = _out_path(args.series_out, "series.csv")
    tio.write_series(series_out, series.length, series.forces)
    report_out = _out_path(args.report_out, "changepoints.csv")
    with open(report_out, "w") as fh:
        fh.write("segment_start,segment_end,mean,variance\n")
        for (lo, hi), mean, var in zip(seg.segments(), seg.segment_means,
                                       seg.segment_vars):
            fh.write(f"{lo},{hi},{tio.fmt(mean)},{tio.fmt(var)}\n")
    print(f"{len(seg.changepoints)} changepoints; kept {len(series.length)} of "
          f"{trace.n_samples} samples; wrote {series_out} and {report_out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    out = Path(args.output_dir) if args.output_dir else _default_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    records, truth = simulate_dataset(
        n_experiments=args.n_experiments, n_points=args.n_points, seed=args.seed
    )
    controls_path = out / "controls.csv"
    with open(controls_path, "w") as fh:
        fh.write("id,v_c,f,tool_life\n")
        for rec in records:
            fh.write(f"{rec.id},{tio.fmt(rec.v_c)},{tio.fmt(rec.f)},"
                     f"{tio.fmt(rec.tool_life)}\n")
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
    records = tio.load_controls(args.controls)
    if not records:
        raise ValidationError("controls table is empty")
    priors = _load_priors(args.priors)
    kwargs = dict(n_chains=args.chains, n_warmup=args.warmup,
                  n_samples=args.samples, seed=args.seed,
                  max_tree_depth=args.max_tree_depth,
                  target_accept=args.target_accept)
    if args.channel == "life":
        chains, _ = fit_tool_life(records, priors=priors, **kwargs)
    else:
        if args.series_dir is None:
            raise ValidationError("--series-dir is required for force channels")
        _attach_series(records, args.series_dir)
        model = ForceChannelModel(records, channel=args.channel, priors=priors)
        chains = run_chains(model, **kwargs)
    draws_ext = "npz" if args.format == "npz" else "csv"
    draws_out = _out_path(args.draws_out, f"draws_{args.channel}.{draws_ext}")
    _write_draws(draws_out, chains)
    summary = summarize(chains)
    summary_out = _out_path(args.summary_out, f"summary_{args.channel}.csv")
    tio.write_summary_csv(summary_out, summary)
    print(f"wrote {draws_out} and {summary_out}; worst PSRF "
          f"{summary.worst_psrf():.3f}, divergences {chains.divergences.tolist()}")
    if summary.flagged(PSRF_THRESHOLD):
        print(f"warning: PSRF > {PSRF_THRESHOLD} for "
              f"{summary.flagged(PSRF_THRESHOLD)}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    chains = _read_draws(args.draws)
    summary = summarize(chains)
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
    print(f"\nchains: {chains.n_chains}, retained draws/chain: "
          f"{chains.n_retained}, divergences: {chains.divergences.tolist()}")
    flagged = summary.flagged(args.threshold)
    if flagged:
        print(f"NOT CONVERGED: PSRF > {args.threshold} for {flagged}",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    print(f"converged: all PSRF <= {args.threshold}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    chains = _read_draws(args.draws)
    records = tio.load_controls(args.controls)
    if not records:
        raise ValidationError("controls table is empty")
    train = controls_array(records)
    grid_spec = _parse_grid(args.grid) if args.grid else None
    if args.channel == "life":
        life = np.array([r.tool_life for r in records], dtype=float)
        if np.any(np.isnan(life)):
            raise ValidationError("all controls rows need tool_life for --channel life")
        grid = life_surface(chains, train, life, grid_spec=grid_spec)
    else:
        grid = surface(chains, train, grid_spec=grid_spec, channel=args.channel)
    out = _out_path(args.output, f"surface_{args.channel}.csv")
    tio.write_surface_csv(out, grid)
    if args.matrix_out is not None:
        tio.write_surface_matrix(args.matrix_out, grid)
    print(f"wrote {grid.n_nodes} grid nodes to {out}")
    return EXIT_OK


def _cmd_taylor(args) -> int:
    pairs = []
    with open(args.input) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        try:
            iv = header.index("v_c")
            il = header.index("life") if "life" in header else header.index("tool_life")
        except ValueError:
            raise ValidationError(
                f"{args.input}: expected columns v_c and life (or tool_life)"
            ) from None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                pairs.append((float(cells[iv]), float(cells[il])))
            except (ValueError, IndexError) as exc:
                raise ValidationError(
                    f"{args.input}:{lineno}: malformed row {line.strip()!r}"
                ) from exc
    fit = fit_taylor(pairs)
    print(f"n = {tio.fmt(fit.n)}")
    print(f"C = {tio.fmt(fit.C)}")
    print(f"residual sd (log life) = {tio.fmt(fit.residual_sd)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = tio.RunConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.output_dir is not None:
        config.output_dir = args.output_dir
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        if not hasattr(config, key):
            raise ValidationError(f"unknown config key {key!r}")
        setattr(config, key, yaml.safe_load(value))
    result = run_pipeline(config)
    print(f"pipeline complete: {len(result.artifacts)} artifacts, "
          f"manifest {result.manifest_path}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


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

    p = sub.add_parser("segment", help="changepoint segmentation of a raw force trace")
    p.add_argument("--trace", required=True, help="raw trace CSV (sample,Ft,Ff,Fp)")
    p.add_argument("--penalty", type=float, default=None, help="split penalty (default: data-driven)")
    p.add_argument("--min-seg-len", type=int, default=20, help="minimum segment length in samples")
    p.add_argument("--threshold", type=float, default=50.0, help="contact threshold on mean force (N)")
    p.add_argument("--length-per-sample", type=float, default=1.0, help="cutting length per sample (m)")
    p.add_argument("--channel", choices=CHANNELS, default="Ft", help="channel driving the segmentation")
    p.add_argument("--series-out", help="contact-phase series CSV (L,Ft,Ff,Fp)")
    p.add_argument("--report-out", help="changepoint report CSV")
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
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tree-depth", type=int, default=10)
    p.add_argument("--target-accept", type=float, default=0.8)
    p.add_argument("--priors", help="YAML file of prior scales")
    p.add_argument("--format", choices=["csv", "npz"], default="csv",
                   help="draws format: CSV (inspectable) or columnar binary")
    p.add_argument("--draws-out", help="draws output path")
    p.add_argument("--summary-out", help="fit summary CSV path")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("diagnose", help="convergence report for a draws file")
    p.add_argument("--draws", required=True, help="draws file (.csv or .npz)")
    p.add_argument("--summary-out", help="also write the summary CSV here")
    p.add_argument("--threshold", type=float, default=PSRF_THRESHOLD,
                   help="PSRF threshold for the convergence flag")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("predict", help="posterior-predictive surface on a (v_c, f) grid")
    p.add_argument("--draws", required=True, help="draws file from fit")
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
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ToolwearError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
