"""toolwear benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a toolwear checkout:

    python3 bench/run.py --workload fit-force-k21 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

Each run makes its inputs (from ``--seed``, except for the fixed instance
that ``fit-force-k21`` fits), then repeats the workload's
``toolwear`` command sequence in-process through ``toolwear.cli.main`` until
``--seconds`` are used (at least once, or as often as the workload's checks
need), checks every output and prints one JSON object as its last line.
Times are scaled to nominal machine speed by a probe interleaved with the
work (see ``speed.py``); the raw times are printed and recorded as well.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics from the
traced ones. A full record of each run, environment included, is written to
``.bench_results/``; ``--compare`` reads two such directories. BLAS and
OpenMP thread variables are recorded as found and never set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
CALIBRATE_S = 0.1   # probe time before and after each set-up, in seconds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_toolwear() -> None:
    """Import the package from this checkout's ``src``, and only from there."""
    init = SRC / "toolwear" / "__init__.py"
    if not init.is_file():
        fail(f"{init} not found; run from the root of a toolwear checkout")
    sys.path.insert(0, str(SRC))
    import toolwear
    import toolwear.cli  # noqa: F401  (everything the CLI needs, before timing)
    if Path(toolwear.__file__).resolve() != init.resolve():
        fail(f"imported toolwear from {toolwear.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall time for a fresh interpreter to import toolwear and build its
    parser: (raw, scaled by the mean of the probes timed just before and
    just after each set-up)."""
    from speed import calibrate, scaled
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import toolwear.cli as c; c.build_parser()"
    raw, at_nominal = [], []
    before = calibrate(CALIBRATE_S)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = calibrate(CALIBRATE_S)
        at_nominal.append(scaled(raw[-1], (before + after) / 2))
        before = after
    return raw, at_nominal


def run_command(argv):
    """One ``toolwear`` command in-process: (exit code or None, seconds, output)."""
    from toolwear import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse rejected the arguments
        code = exc.code
    except Exception:               # escaped the CLI's own error mapping
        code = None
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - t0, buf.getvalue()


def run_repeat(wl, recorder=None) -> dict:
    """One repeat of the command sequence, with the speed probe running.

    ``wall_s`` is the sequence's wall time without the probe's own time,
    scaled to nominal machine speed with the workload's elasticity
    (``speed.scaled``); ``wall_raw_s`` is the wall time as
    measured and ``slowdown`` the mean probe duration over nominal.
    """
    from speed import NOMINAL_PROBE_S, SpeedProbe, calibrate, scaled
    from workloads import dir_bytes
    wl.reset()
    commands = []
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    try:
        for label, argv in wl.commands():
            if recorder is not None:
                recorder.op += 1
            code, seconds, output = run_command(argv)
            commands.append({"label": label, "code": code, "s": seconds,
                             "ok": code in wl.ok_codes,
                             "output": "" if code in wl.ok_codes else output[-4000:]})
    finally:
        probes = probe.stop()
    wall = time.perf_counter() - t0
    mean_probe = statistics.fmean(probes) if probes else calibrate(0.01)
    written = dir_bytes(wl.out)
    wl.keep({c["label"]: c["code"] for c in commands})
    return {"wall_s": scaled(wall - sum(probes), mean_probe, wl.elasticity),
            "wall_raw_s": wall, "slowdown": mean_probe / NOMINAL_PROBE_S, "probe_s": sum(probes),
            "traced": recorder is not None, "commands": commands, "bytes_written": written}


def measure(wl, seconds: float, traced: bool):
    """Repeat the sequence until ``seconds`` are used.

    With ``traced``, repeats alternate traced/untraced in the order T U U T
    T U ..., so a first repeat's cold start lands on the traced side and the
    tracing overhead (traced minus untraced wall) is not understated.
    """
    from layers import trace_targets
    from spans import SpanRecorder, instrument, restore
    recorder = SpanRecorder() if traced else None
    repeats = []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(repeats) % 4 in (0, 3)
        if trace_this:
            patched = instrument(recorder, trace_targets())
            try:
                repeats.append(run_repeat(wl, recorder))
            finally:
                restore(patched)
        else:
            repeats.append(run_repeat(wl))
        kinds = {r["traced"] for r in repeats}
        enough = len(repeats) >= wl.min_repeats and (not traced or len(kinds) == 2)
        typical = statistics.median(r["wall_raw_s"] for r in repeats)
        if enough and time.perf_counter() - start + typical > seconds:
            return repeats, recorder


def count_failures(repeats, check_errors) -> tuple[int, int]:
    attempted = failed = 0
    for rep in repeats:
        for cmd in rep["commands"]:
            attempted += 1
            failed += not cmd["ok"] or bool(check_errors.get(cmd["label"]))
    return attempted, failed


def end_to_end(wl, repeats, setup, peak_rss_mb, attempted, failed):
    """Bounded metrics and the rest of the end-to-end figures."""
    setup_raw, setup_scaled = setup
    walls = [r["wall_s"] for r in repeats]
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    extra = {
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "wall_s_n": {"value": len(walls), "unit": "count"},
        "wall_s_max": {"value": max(walls), "unit": "s"},
        "wall_s_raw": {"value": statistics.median(r["wall_raw_s"] for r in repeats),
                       "unit": "s"},
        "slowdown": {"value": statistics.median(r["slowdown"] for r in repeats),
                     "unit": "ratio"},
        "setup_s_raw": {"value": statistics.median(setup_raw), "unit": "s"},
        "setup_s_runs": setup_scaled,
        "command_s": {label: statistics.median(c["s"] for r in repeats for c in r["commands"]
                                               if c["label"] == label)
                      for label, _ in wl.commands()},
    }
    sampled = wl.fit_ess()
    if sampled is not None:
        ess_min, label = sampled
        extra["ess_min"] = {"value": ess_min, "unit": "count"}
        extra["ess_per_s"] = {"value": ess_min / extra["command_s"][label], "unit": "1/s"}
    return metrics, extra


def print_summary(name, seed, metrics, extra, check_errors, env) -> None:
    print(f"toolwear benchmark: workload {name}, seed {seed}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for key, value in (metrics | extra).items():
        if isinstance(value, dict) and "unit" in value:
            print(f"  {key:<40} {value['value']:>14.6g} {value['unit']}")
        else:
            print(f"  {key:<40} {json.dumps(value)}")
    for label, errs in check_errors.items():
        for err in errs:
            print(f"  CHECK FAILED [{label}] {err}")


def run(args) -> int:
    from speed import block_alarm, unblock_alarm
    block_alarm()   # the BLAS threads the imports below start inherit the mask
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_toolwear()
    unblock_alarm()
    env = environment(args.seed)
    setup = [] if args.trace else setup_seconds()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        wl.prepare()
        repeats, recorder = measure(wl, args.seconds, traced=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_errors = {k: v for k, v in wl.check().items() if v}
        attempted, failed = count_failures(repeats, check_errors)
        if args.trace:
            from layers import changepoints_per_repeat, per_layer
            metrics = per_layer(wl, repeats, recorder)
            n_traced = sum(r["traced"] for r in repeats)
            extra = {"fail_frac": {"value": failed / attempted, "unit": "ratio"},
                     "segmentation.changepoints": {
                         "value": changepoints_per_repeat(recorder, n_traced), "unit": "count"}}
        else:
            metrics, extra = end_to_end(wl, repeats, setup, peak_rss_mb, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for rep in repeats:
        for cmd in rep["commands"]:
            if cmd["output"]:
                print(f"  command {cmd['label']} exited {cmd['code']}:\n{cmd['output']}")
    print_summary(args.workload, args.seed, metrics, extra, check_errors, env)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "result": result, "extra": extra,
              "checks": check_errors,
              "repeats": [{k: v for k, v in r.items() if k != "commands"}
                          | {"command_s": [c["s"] for c in r["commands"]]} for r in repeats]}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps(result))
    return 0


def compare(parent_dir: str, change_dir: str) -> int:
    """Per metric, one row per workload: quartiles of both sides and the verdict."""
    from stats import compare_pairs, quartiles
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(directory):
        runs = {}
        for path in sorted(Path(directory).glob("**/*.json")):
            rec = json.loads(path.read_text())
            key = (rec["workload"], rec["trace"], rec["seed"])
            runs.setdefault(key, []).append(rec["result"]["metrics"])
        return runs

    parent, change = load(parent_dir), load(change_dir)
    rows = {}
    for key in sorted(set(parent) & set(change)):
        workload, trace, _ = key
        for p_metrics, c_metrics in zip(parent[key], change[key]):
            for name in p_metrics.keys() & c_metrics.keys():
                unit = p_metrics[name]["unit"]
                cell = rows.setdefault((trace, name, unit), {}).setdefault(workload, ([], []))
                cell[0].append(p_metrics[name]["value"])
                cell[1].append(c_metrics[name]["value"])
    if not rows:
        fail("no (workload, trace, seed) run appears in both result sets")
    for (trace, name, unit), by_workload in sorted(rows.items()):
        spec_m = bounds.get(name)
        head = f"{name} [{unit}]"
        if spec_m:
            head += f", {spec_m['better']} is better, bound {spec_m['bound']}"
        print(f"\n{head}")
        print(f"  {'workload':<18}{'pairs':>6}  {'parent median [q1, q3]':<36}"
              f"{'change median [q1, q3]':<36}{'wins':>5}  verdict")
        for workload, (p_vals, c_vals) in sorted(by_workload.items()):
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            if spec_m:
                v = compare_pairs(p_vals, c_vals, spec_m["better"], spec_m["bound"])
                wins, verdict = str(v["wins"]), v["verdict"]
            else:
                wins, verdict = "-", "no bound (per-layer)"
            print(f"  {workload:<18}{len(p_vals):>6}  "
                  f"{f'{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]':<36}"
                  f"{f'{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]':<36}{wins:>5}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
