"""End-to-end orchestration: segment -> fit -> diagnose -> predict.

Each stage is written once here: ``toolwear run`` chains them, and the
``segment``, ``fit`` and ``predict`` subcommands call them one at a time.
A run is a pure function of (input files, config, seed); the manifest records
the config echo, seed, and a SHA-256 digest of every artifact so identical
runs are verifiably identical and tampering is detectable.
"""

from __future__ import annotations

import json
from contextlib import suppress
from pathlib import Path

from . import io as tio
from .diagnostics import not_converged, summarize
from .errors import InsufficientDataError, ToolwearError
from .model import ForceChannelModel, ToolLifeModel, controls_array, life_data
from .predict import life_surface, surface
from .sampler import fork_map, run_chains
from .segmentation import RawTrace, binary_segmentation, extract_contact_phases


class PipelineResult:
    def __init__(self, output_dir: Path):
        self.output_dir = output_dir
        self.artifacts: list[Path] = []
        self.warnings: list[str] = []
        self.manifest_path = output_dir / "manifest.json"


def run_pipeline(config: tio.RunConfig) -> PipelineResult:
    """Execute every stage of the analysis described by ``config``.

    Stage failures abort with a stage-tagged error; a partial manifest listing
    the completed artifacts and naming the failed stage is written whatever
    the error. A package error is raised again as its own class with the
    stage named, so it keeps its exit code; any other error (a dead worker
    process, an I/O error) propagates unchanged.
    """
    out = config.path("output_dir")
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(out)
    stages_done = []
    failed = None
    try:
        _run_stages(config, result, stages_done)
    except BaseException as exc:
        failed = f"{stages_done[-1] if stages_done else 'validate'}: {exc}"
        if isinstance(exc, ToolwearError):
            raise type(exc)(f"pipeline aborted at stage {failed}") from exc
        raise
    finally:
        _write_manifest(config, result, stages_done, failed)
    return result


def attach_series(records, series_dir) -> None:
    """Attach each record's ``series_<id>.csv`` from ``series_dir``."""
    for rec in records:
        tio.load_series(Path(series_dir) / f"series_{rec.id}.csv", rec)


def segment_trace(path, seg: dict):
    """(contact-phase series, segmentation) of a raw trace file, segmented with
    the settings of a ``segmentation`` section; a trace it cannot segment is named."""
    forces = tio.load_trace(path)  # its refusals name file:line
    try:
        trace = RawTrace(forces=forces, length_per_sample=seg["length_per_sample"])
        found = binary_segmentation(trace, penalty=seg["penalty"], min_seg_len=seg["min_seg_len"])
        return extract_contact_phases(trace, found, seg["threshold"]), found
    except ToolwearError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def fit_channel(records, channel: str, priors, smp: dict, seed: int):
    """Draws of a force channel's model, or of the life GP on :func:`life_data`
    when ``channel`` is ``"life"``, sampled with the settings of a ``sampler`` section."""
    target = (ToolLifeModel(*life_data(records), priors) if channel == "life"
              else ForceChannelModel(records, channel=channel, priors=priors))
    return run_chains(target, n_chains=smp["chains"], n_warmup=smp["warmup"],
                      n_samples=smp["samples"], seed=seed, max_tree_depth=smp["max_tree_depth"],
                      target_accept=smp["target_accept"])


def fit_files(chains, channel: str):
    """A fit's draws, their sidecar and summary files, each (name, writer,
    object), and why it is not converged."""
    summary, draws = summarize(chains), f"draws_{channel}.csv"
    return ([(draws, tio.write_draws_csv, chains),
             (tio.chains_path(draws).name, tio.write_chain_stats, chains),
             (f"summary_{channel}.csv", tio.write_summary_csv, summary)],
            not_converged(chains, summary, channel))


def predict_channel(chains, records, channel: str, grid_spec):
    """The surface of a channel's draws; the life GP's conditions on :func:`life_data`."""
    if channel == "life":
        return life_surface(chains, *life_data(records), grid_spec=grid_spec)
    return surface(chains, controls_array(records), grid_spec=grid_spec)


def _run_stages(config, result, stages_done):
    stages_done.append("load")
    records = tio.load_controls(config.path("controls"))
    if config.traces_dir is not None:
        stages_done.append("segment")
        seg_cfg, found = config.settings("segmentation"), []
        (result.output_dir / "series").mkdir(exist_ok=True)
        paths = [config.path("traces_dir") / f"trace_{rec.id}.csv" for rec in records]
        segmented = fork_map(lambda i: segment_trace(paths[i], seg_cfg), len(records))
        for rec, (series, seg) in zip(records, segmented):
            path = result.output_dir / "series" / f"series_{rec.id}.csv"
            tio.write_series(path, series.length, series.forces)
            result.artifacts.append(path)
            rec.set_series(series.length, series.forces)
            found.append((rec.id, seg))
        _keep(result, [("changepoints.csv", tio.write_changepoints, found)])
    else:
        stages_done.append("load-series")
        attach_series(records, config.path("series_dir"))

    fits = list(config.channels)
    with suppress(InsufficientDataError):  # too few tool lives: no life stage
        if config.fit_tool_life and life_data(records):
            fits.append("life")
    for channel in fits:
        stages_done.append(f"fit:{channel}")
        chains = fit_channel(records, channel, tio.parse_priors(config.priors),
                             config.settings("sampler"), config.seed)
        _keep(result, *fit_files(chains, channel))
        stages_done.append(f"predict:{channel}")
        grid = predict_channel(chains, records, channel, config.grid)
        _keep(result, [(f"surface_{channel}.csv", tio.write_surface_csv, grid)])


def _keep(result, files, warnings=()):
    """Write each (name, writer, object) in the output directory, then add the warnings."""
    for name, writer, obj in files:
        path = result.output_dir / name
        writer(path, obj)
        result.artifacts.append(path)
    result.warnings += warnings


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
