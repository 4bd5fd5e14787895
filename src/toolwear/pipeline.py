"""End-to-end orchestration: segment -> fit -> diagnose -> predict.

A run is a pure function of (input files, config, seed); the manifest records
the config echo, seed, and a SHA-256 digest of every artifact so identical
runs are verifiably identical and tampering is detectable.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import io as tio
from .diagnostics import PSRF_THRESHOLD, summarize
from .errors import ToolwearError, ValidationError
from .model import ForceChannelModel, controls_array
from .predict import fit_tool_life, life_surface, surface
from .sampler import run_chains
from .segmentation import RawTrace, binary_segmentation, extract_contact_phases


class PipelineResult:
    def __init__(self, output_dir: Path):
        self.output_dir = output_dir
        self.artifacts: list[Path] = []
        self.warnings: list[str] = []
        self.manifest_path = output_dir / "manifest.json"

    @property
    def converged(self) -> bool:
        return not any(w.startswith("psrf") or w.startswith("divergence") for w in self.warnings)


def run_pipeline(config: tio.RunConfig) -> PipelineResult:
    """Execute every stage of the analysis described by ``config``.

    Stage failures abort with a stage-tagged error; a partial manifest listing
    the completed artifacts and naming the failed stage is written whatever
    the error. Package errors become a ``ValidationError``; any other error
    (a dead worker process, an I/O error) propagates unchanged.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(out)
    stages_done = []
    failed = None
    try:
        _run_stages(config, result, stages_done)
    except BaseException as exc:
        failed = f"{stages_done[-1] if stages_done else 'validate'}: {exc}"
        if isinstance(exc, ToolwearError):
            raise ValidationError(f"pipeline aborted at stage {failed}") from exc
        raise
    finally:
        _write_manifest(config, result, stages_done, failed)
    return result


def _run_stages(config, result, stages_done):
    out = result.output_dir
    seg_cfg = config.settings("segmentation")
    priors = config.prior_config()
    smp = config.settings("sampler")
    sampler_kw = dict(n_chains=smp["chains"], n_warmup=smp["warmup"], n_samples=smp["samples"],
                      seed=config.seed, max_tree_depth=smp["max_tree_depth"],
                      target_accept=smp["target_accept"])

    stages_done.append("load")
    records = tio.load_controls(config.controls)
    if not records:
        raise ValidationError("controls table is empty")

    if config.traces_dir is not None:
        stages_done.append("segment")
        report_rows = []
        series_out = out / "series"
        series_out.mkdir(exist_ok=True)
        for rec in records:
            trace_path = Path(config.traces_dir) / f"trace_{rec.id}.csv"
            if not trace_path.exists():
                raise ValidationError(f"missing trace file {trace_path}")
            trace = RawTrace(
                forces=tio.load_trace(trace_path),
                length_per_sample=seg_cfg["length_per_sample"],
            )
            seg = binary_segmentation(trace, penalty=seg_cfg["penalty"],
                                      min_seg_len=seg_cfg["min_seg_len"])
            series = extract_contact_phases(trace, seg, seg_cfg["threshold"])
            path = series_out / f"series_{rec.id}.csv"
            tio.write_series(path, series.length, series.forces)
            result.artifacts.append(path)
            rec.length, rec.forces = series.length, series.forces
            rec.__post_init__()
            for cp, mean in zip([0, *seg.changepoints], seg.segment_means):
                report_rows.append((rec.id, cp, mean))
        report = out / "changepoints.csv"
        with open(report, "w") as fh:
            fh.write("id,segment_start,segment_mean\n")
            for rid, cp, mean in report_rows:
                fh.write(f"{rid},{cp},{tio.fmt(mean)}\n")
        result.artifacts.append(report)
    else:
        stages_done.append("load-series")
        for rec in records:
            tio.load_series(Path(config.series_dir) / f"series_{rec.id}.csv", rec)

    train = controls_array(records)
    for channel in config.channels:
        stages_done.append(f"fit:{channel}")
        model = ForceChannelModel(records, channel=channel, priors=priors)
        chains = run_chains(model, **sampler_kw)
        draws_path = out / f"draws_{channel}.csv"
        tio.write_draws_csv(draws_path, chains)
        result.artifacts.append(draws_path)

        summary = summarize(chains)
        summary_path = out / f"summary_{channel}.csv"
        tio.write_summary_csv(summary_path, summary)
        result.artifacts.append(summary_path)

        flagged = summary.flagged(PSRF_THRESHOLD)
        if flagged:
            result.warnings.append(f"psrf>{PSRF_THRESHOLD} for {channel}: {flagged}")
        frac_div = chains.divergences.sum() / (chains.n_chains * chains.n_retained)
        if frac_div > 0.10:
            result.warnings.append(f"divergence rate {frac_div:.1%} for {channel}")

        stages_done.append(f"predict:{channel}")
        grid = surface(chains, train, grid_spec=_grid_spec(config), channel=channel)
        surf_path = out / f"surface_{channel}.csv"
        tio.write_surface_csv(surf_path, grid)
        result.artifacts.append(surf_path)

    with_life = [r for r in records if r.tool_life is not None]
    if config.fit_tool_life and len(with_life) >= 3:
        stages_done.append("tool-life")
        life_chains = fit_tool_life(records, priors=priors, **sampler_kw)
        life_grid = life_surface(life_chains, controls_array(with_life),
                                 [r.tool_life for r in with_life], grid_spec=_grid_spec(config))
        life_summary = summarize(life_chains)
        for path, writer, obj in (
            (out / "draws_life.csv", tio.write_draws_csv, life_chains),
            (out / "summary_life.csv", tio.write_summary_csv, life_summary),
            (out / "surface_life.csv", tio.write_surface_csv, life_grid),
        ):
            writer(path, obj)
            result.artifacts.append(path)
        flagged = life_summary.flagged(PSRF_THRESHOLD)
        if flagged:
            result.warnings.append(f"psrf>{PSRF_THRESHOLD} for life: {flagged}")


def _grid_spec(config):
    if config.grid is None:
        return None
    g = config.grid
    if len(g) != 6:
        raise ValidationError("grid must be [v_min, v_max, nv, f_min, f_max, nf]")
    return tuple(g)


def _write_manifest(config, result, stages_done, failed):
    manifest = {
        "config": config.echo(),
        "seed": config.seed,
        "stages": stages_done,
        "failed_stage": failed,
        "warnings": result.warnings,
        "artifacts": {
            str(p.relative_to(result.output_dir)): tio.sha256_file(p)
            for p in sorted(result.artifacts)
        },
    }
    result.manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
