"""Per-layer metrics: which toolwear functions are traced, and what is derived.

The layers are the package's modules. Spans wrap calls into each module's
public functions from outside the package (see ``spans.instrument``). Every
metric is reported for every workload; a layer the workload bypasses reads 0.
Times (``.s``) and counts are per repeat of the workload's command sequence.
"""

from __future__ import annotations

import os
import statistics

import numpy as np


def _file_size(out, args, kwargs):
    return os.path.getsize(args[0])


def _surface_work(out, args, kwargs):
    draws = args[0].draws
    return out.n_nodes * draws.shape[0] * draws.shape[1]


def trace_targets():
    """(module, attribute, span name, keep_result) of every traced call."""
    from toolwear import cli, design, diagnostics, io, kernel, model, pipeline, predict, \
        sampler, segmentation
    return [
        (cli, "main", "cli.main", None),
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (io, "sha256_file", "pipeline.sha256", None),
        (design, "augmentation_plan", "design.augmentation_plan", None),
        (io, "load_controls", "io.load_controls", _file_size),
        (io, "load_series", "io.load_series", _file_size),
        (io, "load_trace", "io.load_trace", _file_size),
        (io, "read_draws_csv", "io.read_draws_csv", _file_size),
        (io, "write_series", "io.write_series", None),
        (io, "write_draws_csv", "io.write_draws_csv", None),
        (io, "write_surface_csv", "io.write_surface_csv", None),
        (segmentation, "binary_segmentation", "segmentation.binary_segmentation",
         lambda out, a, k: (out.n_samples, len(out.changepoints))),
        (diagnostics, "summarize", "diagnostics.summarize", None),
        (sampler, "run_chains", "sampler.run_chains",
         lambda out, a, k: int(out.divergences.sum())),
        (sampler, "nuts_transition", "sampler.nuts_transition",
         lambda out, a, k: out[1]["n_steps"]),
        (model, "ForceChannelModel.logp_grad", "model.logp_grad", None),
        (predict, "ToolLifeModel.logp_grad", "predict.life_logp_grad", None),
        (predict, "surface", "predict.surface", _surface_work),
        (predict, "life_surface", "predict.life_surface", _surface_work),
        (kernel, "cholesky_cov", "kernel.cholesky_cov", None),
    ]


# (metric name, unit, better) in report order; BENCHMARK.json lists the same
LAYER_METRICS = [
    ("model.logp_grad.calls", "count", "lower"),
    ("model.logp_grad.us_p50", "us", "lower"),
    ("model.logp_grad.us_p99", "us", "lower"),
    ("model.logp_grad.self_share", "ratio", "lower"),
    ("sampler.grad_evals_per_iter", "count", "lower"),
    ("sampler.ess_min", "count", "higher"),
    ("sampler.ess_per_grad_eval", "ratio", "higher"),
    ("sampler.ess_per_s", "1/s", "higher"),
    ("sampler.divergences", "count", "lower"),
    ("sampler.overhead_us_per_leapfrog", "us", "lower"),
    ("predict.life_logp_grad.calls", "count", "lower"),
    ("predict.life_logp_grad.us_p50", "us", "lower"),
    ("predict.surface.s", "s", "lower"),
    ("predict.life_surface.s", "s", "lower"),
    ("predict.node_draws_per_s", "1/s", "higher"),
    ("kernel.cholesky_cov.calls", "count", "lower"),
    ("kernel.cholesky_cov.self_s", "s", "lower"),
    ("io.load_trace.s", "s", "lower"),
    ("io.load_trace.mb_per_s", "MB/s", "higher"),
    ("io.write_series.s", "s", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("io.read_draws_csv.s", "s", "lower"),
    ("io.write_draws_csv.s", "s", "lower"),
    ("io.write_surface_csv.s", "s", "lower"),
    ("segmentation.binary_segmentation.s", "s", "lower"),
    ("segmentation.samples_per_s", "1/s", "higher"),
    ("segmentation.changepoint_error", "count", "lower"),
    ("segmentation.series_length_error", "count", "lower"),
    ("diagnostics.summarize.s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.sha256.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("design.augmentation_plan.us", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def per_layer(wl, repeats, rec) -> dict:
    """Every per-layer metric from the traced repeats of one run."""
    names = np.asarray(rec.names, dtype=object)
    dur = rec.durations()
    self_t = rec.self_times()
    traced = [r for r in repeats if r["traced"]]
    untraced = [r for r in repeats if not r["traced"]]
    n = len(traced)

    def spans(name):
        return names == name

    def total(name, times=dur):
        return float(times[spans(name)].sum())

    def count(name):
        return int(spans(name).sum())

    def pct_us(name, q):
        d = dur[spans(name)]
        return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

    def results(name):
        return rec.results.get(name, [])

    logp_calls = count("model.logp_grad") + count("predict.life_logp_grad")
    transitions = count("sampler.nuts_transition")
    leapfrogs = sum(results("sampler.nuts_transition"))
    traced_wall = sum(r["wall_raw_s"] for r in traced)   # spans are raw times too
    sampled = wl.fit_ess()
    ess_min, ess_label = sampled if sampled else (0.0, None)
    ess_cmd_s = [c["s"] for r in untraced for c in r["commands"] if c["label"] == ess_label]
    seg = results("segmentation.binary_segmentation")
    seg_error = wl.segmentation_error() or (0, 0)
    surfaces = total("predict.surface") + total("predict.life_surface")
    read_bytes = sum(sum(results(k)) for k in ("io.load_controls", "io.load_series",
                                               "io.load_trace", "io.read_draws_csv"))
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in untraced)

    values = {
        "model.logp_grad.calls": count("model.logp_grad") / n,
        "model.logp_grad.us_p50": pct_us("model.logp_grad", 50),
        "model.logp_grad.us_p99": pct_us("model.logp_grad", 99),
        "model.logp_grad.self_share": _ratio(total("model.logp_grad", self_t), traced_wall),
        "sampler.grad_evals_per_iter": _ratio(logp_calls, transitions),
        "sampler.ess_min": ess_min,
        "sampler.ess_per_grad_eval": _ratio(ess_min, logp_calls / n),
        "sampler.ess_per_s": _ratio(ess_min, statistics.median(ess_cmd_s)) if ess_cmd_s else 0.0,
        "sampler.divergences": sum(results("sampler.run_chains")) / n,
        "sampler.overhead_us_per_leapfrog": 1e6 * _ratio(
            total("sampler.run_chains", self_t) + total("sampler.nuts_transition", self_t),
            leapfrogs),
        "predict.life_logp_grad.calls": count("predict.life_logp_grad") / n,
        "predict.life_logp_grad.us_p50": pct_us("predict.life_logp_grad", 50),
        "predict.surface.s": total("predict.surface") / n,
        "predict.life_surface.s": total("predict.life_surface") / n,
        "predict.node_draws_per_s": _ratio(
            sum(results("predict.surface")) + sum(results("predict.life_surface")), surfaces),
        "kernel.cholesky_cov.calls": count("kernel.cholesky_cov") / n,
        "kernel.cholesky_cov.self_s": total("kernel.cholesky_cov", self_t) / n,
        "io.load_trace.s": total("io.load_trace") / n,
        "io.load_trace.mb_per_s": _ratio(sum(results("io.load_trace")) / 1e6,
                                         total("io.load_trace")),
        "io.write_series.s": total("io.write_series") / n,
        "io.bytes_read": read_bytes / n,
        "io.bytes_written": sum(r["bytes_written"] for r in traced) / n,
        "io.read_draws_csv.s": total("io.read_draws_csv") / n,
        "io.write_draws_csv.s": total("io.write_draws_csv") / n,
        "io.write_surface_csv.s": total("io.write_surface_csv") / n,
        "segmentation.binary_segmentation.s": total("segmentation.binary_segmentation") / n,
        "segmentation.samples_per_s": _ratio(sum(s for s, _ in seg),
                                             total("segmentation.binary_segmentation")),
        "segmentation.changepoint_error": seg_error[0],
        "segmentation.series_length_error": seg_error[1],
        "diagnostics.summarize.s": total("diagnostics.summarize") / n,
        "pipeline.run_pipeline.self_s": total("pipeline.run_pipeline", self_t) / n,
        "pipeline.sha256.s": total("pipeline.sha256") / n,
        "cli.main.self_s": total("cli.main", self_t) / n,
        "design.augmentation_plan.us": 1e6 * _ratio(total("design.augmentation_plan"),
                                                    count("design.augmentation_plan")),
        "trace.overhead_s": wall_t - wall_u,
        "trace.overhead_share": _ratio(wall_t - wall_u, wall_u),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def changepoints_per_repeat(rec, n_traced) -> float:
    """Changepoints found per traced repeat. Reported without a direction:
    the right count is the simulated one, not the lowest."""
    return sum(c for _, c in rec.results.get("segmentation.binary_segmentation", [])) / n_traced
