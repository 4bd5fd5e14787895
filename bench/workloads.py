"""The three benchmark workloads: inputs, CLI sequences, checks.

Each workload writes its inputs under ``work/in`` before timing starts,
names the ``toolwear`` commands one repeat runs, keeps what its checks need
after each repeat (untimed), and checks every output once timing is over.
Why each workload exists is in ``NOTES.md``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from pathlib import Path

import numpy as np

# NUTS iterations per chain (warmup and retained each). A converged K=21 fit
# needs 4 x (1000 + 1000) and over two minutes, more than one run may spend.
FIT_ITERATIONS = 100
# The fit runs one fixed instance: the K=21 dataset and sampler seed of the
# package's at-scale recovery test. At this length the gradient-evaluation
# count varies by 17-23% (CV) between datasets and sampler seeds, more than
# any bound could absorb, so --seed does not change this workload.
FIT_INSTANCE_SEED = 104
LIFE_ITERATIONS = 500
CONTACT_THRESHOLD = 50.0   # the pipeline's default segmentation threshold
TRACE_POINTS = 200         # in-contact samples of each ingest-life record
TRUE_CHANGEPOINTS = 6      # 4 passes and the 3 air gaps between them
MCSE_TOLERANCE = 6.0       # surface check, in Monte Carlo standard errors
GRAD_CHECK_DRAWS = 3       # retained draws at which logp_grad is checked
FD_STEP = 1e-5             # central-difference step on the unconstrained scale
GRAD_TOLERANCE = 1e-6      # gradient check, relative to 1 + |gradient|


def read_csv(path):
    """Header and rows (as lists of str) of a small CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_matrix(path):
    """Header and float matrix of a numeric CSV file."""
    header, rows = read_csv(path)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def read_draws(path):
    """(chains, iterations, params) draws and parameter names of a draws CSV."""
    header, mat = read_matrix(path)
    chain, it = mat[:, 0].astype(int), mat[:, 1].astype(int)
    draws = np.full((chain.max() + 1, it.max() + 1, len(header) - 2), np.nan)
    draws[chain, it] = mat[:, 2:]
    return draws, header[2:]


def split_psrf(x: np.ndarray) -> float:
    """Split-chain PSRF of (m, n) draws, as ``toolwear diagnose`` documents it."""
    n = x.shape[1]
    half = n // 2
    seqs = np.concatenate([x[:, :half], x[:, n - half:]])
    w = seqs.var(axis=1, ddof=1).mean()
    if w == 0.0:
        return 1.0
    b = half * seqs.mean(axis=1).var(ddof=1)
    return max(1.0, float(np.sqrt(((half - 1) / half * w + b / half) / w)))


def write_controls(path, records) -> None:
    from toolwear import io as tio
    with open(path, "w") as fh:
        fh.write("id,v_c,f,tool_life\n")
        for r in records:
            fh.write(f"{r.id},{tio.fmt(r.v_c)},{tio.fmt(r.f)},{tio.fmt(r.tool_life)}\n")


def logp_grad_errors(model, constrained):
    """Check ``model.logp_grad`` at constrained draws against the package's
    standalone density.

    The log density must equal ``log_posterior``, which already folds in the
    log-Jacobian of the log-scale transform, to 1e-9 relative. Each gradient
    coordinate must agree with a central finite difference of that density
    along the unconstrained coordinate, to GRAD_TOLERANCE x (1 + |gradient|).
    """
    from toolwear.model import log_posterior

    def density(u):
        params = model.params_from_constrained(model.constrain(u))
        return log_posterior(params, model.records, model.priors, model.channel)

    errors = []
    for c in constrained:
        u = model.unconstrain(model.params_from_constrained(c))
        logp, grad = model.logp_grad(u)
        ref = density(u)
        if not abs(logp - ref) <= 1e-9 * max(1.0, abs(ref)):
            errors.append(f"logp_grad gives log density {logp:.12g}, log_posterior {ref:.12g}")
        fd = np.empty_like(u)
        for j in range(len(u)):
            e = np.zeros_like(u)
            e[j] = FD_STEP
            fd[j] = (density(u + e) - density(u - e)) / (2.0 * FD_STEP)
        worst = int(np.argmax(np.abs(grad - fd) / (1.0 + np.abs(grad))))
        if not abs(grad[worst] - fd[worst]) <= GRAD_TOLERANCE * (1.0 + abs(grad[worst])):
            errors.append(f"logp_grad coordinate {model.param_names[worst]} is "
                          f"{grad[worst]:.9g}, finite difference {fd[worst]:.9g}")
    return errors


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """Base: subclasses set ``name`` and implement the hooks below."""

    name = ""
    min_repeats = 1
    ok_codes = {0}
    elasticity = 1.0  # of wall time to the speed probe, see speed.py

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inp = work / "in"
        self.out = work / "out"
        self.kept: list[dict] = []

    def prepare(self) -> None:
        """Write the inputs; untimed."""

    def commands(self) -> list[tuple[str, list[str]]]:
        """(label, argv) of every CLI command in one repeat."""
        raise NotImplementedError

    def reset(self) -> None:
        """Start a repeat from an empty output directory; untimed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def keep(self, codes: dict) -> None:
        """Keep what the checks need from this repeat's outputs, given the
        exit code of each command; untimed."""

    def check(self) -> dict[str, list[str]]:
        """Failed checks, as messages keyed by command label."""
        return {}

    def fit_ess(self) -> tuple[float, str] | None:
        """Minimum bulk ESS of the draws the workload samples and the label
        of the command that sampled them, or None when it samples none."""
        return None

    def segmentation_error(self) -> tuple[int, int] | None:
        """(changepoint error, series length error) against the simulated
        truth, or None when the workload segments no trace."""
        return None


# ---------------------------------------------------------------------------

class FitForce(Workload):
    """``toolwear fit`` of the Ft channel on K=21 simulated experiments (one
    fixed instance, see FIT_INSTANCE_SEED)."""

    name = "fit-force-k21"
    ok_codes = {0, 2}  # 2: completed, PSRF above 1.05 (expected at this length)
    elasticity = 0.7

    def prepare(self):
        from toolwear import cli
        self.inp.mkdir(parents=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--n-experiments", "21", "--n-points", "50",
                             "--seed", str(FIT_INSTANCE_SEED), "--output-dir", str(self.inp)])
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")

    def commands(self):
        n = str(FIT_ITERATIONS)
        return [("fit", ["fit", "--controls", str(self.inp / "controls.csv"),
                         "--series-dir", str(self.inp), "--channel", "Ft",
                         "--chains", "4", "--warmup", n, "--samples", n,
                         "--seed", str(FIT_INSTANCE_SEED),
                         "--draws-out", str(self.out / "draws_Ft.csv"),
                         "--summary-out", str(self.out / "summary_Ft.csv")])]

    def keep(self, codes):
        kept = {"code": codes["fit"]}
        try:
            kept["draws"], kept["names"] = read_draws(self.out / "draws_Ft.csv")
            _, kept["summary"] = read_csv(self.out / "summary_Ft.csv")
        except (OSError, ValueError, IndexError) as exc:
            kept["error"] = f"unreadable fit output: {exc}"
        self.kept.append(kept)

    def check(self):
        """Outputs agree with each other and with the documented formulas.

        A fit this short need not have converged, so nothing here depends on
        where the chains are: the summary must restate the draws (mean, sd,
        quantiles, split-chain PSRF), the exit code must follow the PSRF, and
        the sampler's density and gradient must be right at the last retained
        draws of the first chains (see ``logp_grad_errors``).
        """
        errors = []
        for kept in self.kept:
            if "error" in kept:
                errors.append(kept["error"])
                continue
            draws, names = kept["draws"], kept["names"]
            if draws.shape != (4, FIT_ITERATIONS, 3 * 21 + 7) or not np.all(np.isfinite(draws)):
                errors.append(f"draws have shape {draws.shape} or non-finite values")
                continue
            positive = [i for i, n in enumerate(names) if n.startswith("sigma")
                        or n in ("eta_sq", "rho1", "rho2", "sigma_b_sq")]
            if not np.all(draws[:, :, positive] > 0):
                errors.append("a scale or kernel parameter draw is not positive")
            rows = kept["summary"]
            if [r[0] for r in rows] != names:
                errors.append("summary does not list the drawn parameters in order")
                continue
            flat = draws.reshape(-1, draws.shape[2])
            expected = np.column_stack([
                flat.mean(axis=0), flat.std(axis=0, ddof=1),
                *np.quantile(flat, [0.025, 0.5, 0.975], axis=0),
                [split_psrf(draws[:, :, j]) for j in range(draws.shape[2])]])
            got = np.array([r[1:] for r in rows], dtype=float)
            if not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
                errors.append("summary does not match the draws")
            if kept["code"] != (2 if got[:, -1].max() > 1.05 else 0):
                errors.append(f"exit code {kept['code']} does not follow worst PSRF "
                              f"{got[:, -1].max():.3f}")
        if "error" not in self.kept[0] and not errors:
            errors += logp_grad_errors(self._model(), self.kept[0]["draws"][:GRAD_CHECK_DRAWS, -1])
        return {"fit": errors}

    def _model(self):
        """The model ``fit`` samples, built from this workload's inputs."""
        from toolwear import io as tio
        from toolwear.model import ForceChannelModel
        records = tio.load_controls(self.inp / "controls.csv")
        for rec in records:
            tio.load_series(self.inp / f"series_{rec.id}.csv", rec)
        return ForceChannelModel(records, channel="Ft")

    def fit_ess(self):
        from ess import min_bulk_ess  # scipy.stats, kept out of the measured peak RSS
        kept = self.kept[0]
        return (min_bulk_ess(kept["draws"]), "fit") if "draws" in kept else None


# ---------------------------------------------------------------------------

class IngestLife(Workload):
    """``toolwear design`` then ``toolwear run`` from raw traces, life fit only."""

    name = "ingest-life"
    min_repeats = 2  # the manifest must repeat byte for byte
    elasticity = 1.1

    def prepare(self):
        from toolwear import io as tio
        self.records = self._records()
        traces = self.inp / "traces"
        traces.mkdir(parents=True)
        write_controls(self.inp / "controls.csv", self.records)
        for rec in self.records:
            tio.write_trace(traces / f"trace_{rec.id}.csv", self._trace(rec))
        n = LIFE_ITERATIONS
        (self.work / "run.yaml").write_text("\n".join([
            f"seed: {self.seed}",
            "output_dir: out",
            "controls: in/controls.csv",
            "traces_dir: in/traces",
            "channels: []",
            "fit_tool_life: true",
            f"sampler: {{chains: 4, warmup: {n}, samples: {n}}}",
        ]) + "\n")

    def _records(self):
        from toolwear.simulate import simulate_dataset
        return simulate_dataset(n_experiments=21, n_points=TRACE_POINTS, seed=self.seed)[0]

    def _trace(self, rec):
        from toolwear.simulate import simulate_raw_trace
        return simulate_raw_trace(rec, gap_samples=20000, seed=self.seed * 1000 + rec.id)

    def commands(self):
        return [
            ("design", ["design", "--v-min", "20", "--v-max", "60", "--f-min", "20",
                        "--f-max", "50", "--n-initial", "21", "--n-reserve", "5",
                        "-o", str(self.out / "design.csv")]),
            ("run", ["run", "--config", str(self.work / "run.yaml")]),
        ]

    def keep(self, codes):
        kept = {}
        try:
            kept["design"] = read_csv(self.out / "design.csv")[1]
            kept["manifest"] = (self.out / "manifest.json").read_bytes()
            kept["changepoints"] = read_csv(self.out / "changepoints.csv")[1]
            kept["series"] = {rec.id: read_matrix(self.out / "series" / f"series_{rec.id}.csv")[1]
                              for rec in self.records}
            kept["draws"], _ = read_draws(self.out / "draws_life.csv")
        except (OSError, ValueError, IndexError) as exc:
            kept["error"] = f"unreadable run output: {exc}"
        self.kept.append(kept)

    def check(self):
        design_err, run_err = [], []
        first = self.kept[0]
        for kept in self.kept:
            if "error" in kept:
                run_err.append(kept["error"])
                continue
            rows = kept["design"]
            initial = [(float(r[1]), float(r[2])) for r in rows if r[3] == "initial"]
            if len(rows) != 26 or initial != [(r.v_c, r.f) for r in self.records]:
                design_err.append("design does not reproduce the 21 simulated settings + 5 reserve")
            if kept["manifest"] != first.get("manifest"):
                run_err.append("manifest.json differs between repeats")
            if kept["draws"].shape != (4, LIFE_ITERATIONS, 5) or \
                    not np.all(np.isfinite(kept["draws"])):
                run_err.append(f"life draws have shape {kept['draws'].shape}")
        if "error" not in first:
            run_err += self._check_segments(first)
        return {"design": design_err, "run": run_err}

    def segmentation_error(self):
        """Distance of the first repeat's segmentation from the simulated
        truth, summed over traces: |changepoints - 6| and |series length -
        200|. Not a check: the default penalty over-segments these traces
        (see NOTES.md), a defect left open that these figures track."""
        kept = self.kept[0]
        if "error" in kept:
            return None
        per_trace = {}
        for rid, _, _ in kept["changepoints"]:
            per_trace[int(rid)] = per_trace.get(int(rid), -1) + 1  # the first row starts at 0
        return (sum(abs(per_trace.get(r.id, 0) - TRUE_CHANGEPOINTS) for r in self.records),
                sum(abs(len(kept["series"][r.id]) - TRACE_POINTS) for r in self.records))

    def _check_segments(self, kept):
        """Reported segments partition each trace, carry its means, and the
        series holds exactly the samples of segments above the threshold."""
        errors = []
        starts = {}
        for rid, start, mean in kept["changepoints"]:
            starts.setdefault(int(rid), []).append((int(start), float(mean)))
        for rec in self.records:
            trace = self._trace(rec)
            segs = starts.get(rec.id, [])
            edges = [s for s, _ in segs] + [trace.n_samples]
            if not segs or edges[0] != 0 or np.any(np.diff(edges) <= 0):
                errors.append(f"trace {rec.id}: segments do not partition the trace")
                continue
            ft = trace.forces["Ft"]
            keep_idx = []
            for (lo, mean), hi in zip(segs, edges[1:]):
                if not np.isclose(mean, ft[lo:hi].mean(), rtol=1e-12, atol=1e-9):
                    errors.append(f"trace {rec.id}: segment at {lo} reports mean {mean}")
                if mean > CONTACT_THRESHOLD:
                    keep_idx.append(np.arange(lo, hi))
            idx = np.concatenate(keep_idx) if keep_idx else np.array([], dtype=int)
            expected = np.column_stack([np.arange(1, len(idx) + 1, dtype=float)]
                                       + [trace.forces[ch][idx] for ch in ("Ft", "Ff", "Fp")])
            if not np.array_equal(kept["series"][rec.id], expected):
                errors.append(f"trace {rec.id}: series is not the above-threshold samples")
        return errors

    def fit_ess(self):
        from ess import min_bulk_ess
        kept = self.kept[0]
        return (min_bulk_ess(kept["draws"]), "run") if "draws" in kept else None


# ---------------------------------------------------------------------------

def synthetic_force_draws(truth, rng, n_chains=4, n_draws=1000):
    """Independent draws centred on the simulation truth.

    Slopes get sd 0.03 N/m (a converged fit's posterior sd is about 0.025);
    the kernel hyperparameters and scales get log-normal spread 0.3.
    """
    K = len(truth.alpha)
    D = n_chains * n_draws
    k = truth.kernel

    def logn(center, sd=0.3):
        return center * np.exp(sd * rng.standard_normal(D))

    cols = ([truth.alpha[i] + rng.standard_normal(D) for i in range(K)]
            + [truth.beta["Ft"][i] + 0.03 * rng.standard_normal(D) for i in range(K)]
            + [logn(truth.sigma, 0.05) for _ in range(K)]
            + [truth.alpha.mean() + 2.0 * rng.standard_normal(D), logn(10.0, 0.15),
               truth.mu_beta + 0.3 * rng.standard_normal(D),
               logn(k.eta_sq), logn(k.rho1), logn(k.rho2), logn(k.sigma_b_sq)])
    names = ([f"alpha[{i + 1}]" for i in range(K)] + [f"beta[{i + 1}]" for i in range(K)]
             + [f"sigma[{i + 1}]" for i in range(K)]
             + ["mu_alpha", "sigma_alpha", "mu_beta", "eta_sq", "rho1", "rho2", "sigma_b_sq"])
    return np.column_stack(cols).reshape(n_chains, n_draws, -1), names


def synthetic_life_draws(life, rng, n_chains=4, n_draws=1000):
    """Independent life-GP draws around the log-life mean and variance."""
    D = n_chains * n_draws
    y = np.log(life)
    cols = [y.mean() + 0.1 * rng.standard_normal(D)]
    for center in (y.var(), 0.5, 0.5, 0.01):
        cols.append(center * np.exp(0.3 * rng.standard_normal(D)))
    names = ["mu_life", "eta_sq", "rho1", "rho2", "sigma_b_sq"]
    return np.column_stack(cols).reshape(n_chains, n_draws, -1), names


def write_draws(path, draws, names):
    from toolwear import io as tio
    from toolwear.sampler import ChainSet
    m, n, _ = draws.shape
    tio.write_draws_csv(path, ChainSet(
        draws=draws, param_names=names, n_warmup=0, n_retained=n, seed=0,
        accept_stats=np.ones(m), divergences=np.zeros(m, dtype=int)))


def conditional_moments(x_train, v_axis, f_axis, y, mu, kern):
    """GP conditional mean and variance on a (v, f) grid for every draw, (D, M).

    Nodes run v-major over standardized axes. Dense inverses of each draw's
    covariance (kernel + nugget), written from the model definition
    independently of ``toolwear.predict``; the squared-exponential kernel
    factors over the two axes, so only the axis terms are exponentiated.
    """
    dv = (x_train[:, None, 0] - x_train[None, :, 0]) ** 2
    df = (x_train[:, None, 1] - x_train[None, :, 1]) ** 2
    sv = (v_axis[:, None] - x_train[None, :, 0]) ** 2                   # (nv, K)
    sf = (f_axis[:, None] - x_train[None, :, 1]) ** 2                   # (nf, K)
    D, K = len(mu), len(x_train)
    M = len(v_axis) * len(f_axis)
    chunk = max(1, 2_000_000 // (M * K))  # bounds the (c, M, K) temporaries
    mean = np.empty((D, M))
    var = np.empty_like(mean)
    for lo in range(0, D, chunk):
        sl = slice(lo, lo + chunk)
        eta, r1, r2, sb = (kern[sl, j, None, None] for j in range(4))
        cov_inv = np.linalg.inv(eta * np.exp(-r1 * dv - r2 * df) + sb * np.eye(K))
        k_star = (eta[:, :, :, None] * np.exp(-r1[:, :, :, None] * sv[None, :, None, :])
                  * np.exp(-r2[:, :, :, None] * sf[None, None, :, :])).reshape(-1, M, K)
        weights = cov_inv @ (y[sl] - mu[sl, None])[:, :, None]         # (c, K, 1)
        mean[sl] = mu[sl, None] + (k_star @ weights)[:, :, 0]
        var[sl] = (eta + sb)[:, :, 0] - np.sum((k_star @ cov_inv) * k_star, axis=2)
    return mean, np.maximum(var, 0.0)


def mixture_check(got_mean, got_sd, raw_moments, label):
    """Compare a sampled surface with the mixture it samples from.

    ``raw_moments`` holds E[Y^k], k = 1..4, of each draw's conditional
    distribution, shape (4, D, M). The surface mean is the average of D
    conditional samples, so its Monte Carlo standard error is
    sqrt(sum of conditional variances) / D; the sd's error follows from the
    variance of the sample variance, sum(c4 - c2^2) / (D - 1)^2, with c2, c4
    the second and fourth moments of each draw about the mixture mean.
    """
    r1, r2, r3, r4 = raw_moments
    D = r1.shape[0]
    mu = r1.mean(axis=0)
    var_d = r2 - r1 * r1
    c2 = r2 - 2 * mu * r1 + mu * mu
    c4 = r4 - 4 * mu * r3 + 6 * mu * mu * r2 - 4 * mu ** 3 * r1 + mu ** 4
    exp_s2 = (c2.sum(axis=0) - var_d.sum(axis=0) / D) / (D - 1)
    se_mean = np.sqrt(var_d.sum(axis=0)) / D
    se_sd = np.sqrt(np.maximum((c4 - c2 * c2).sum(axis=0), 0.0)) / (D - 1) \
        / (2.0 * np.sqrt(exp_s2))
    errors = []
    z_mean = np.abs(got_mean - mu) / (se_mean + 1e-12 * np.abs(mu))
    z_sd = np.abs(got_sd - np.sqrt(exp_s2)) / (se_sd + 1e-12 * np.sqrt(exp_s2))
    for what, z in (("mean", z_mean), ("sd", z_sd)):
        if z.max() > MCSE_TOLERANCE:
            errors.append(f"{label} surface {what} is {z.max():.1f} MCSE from the "
                          f"closed-form mixture moment (limit {MCSE_TOLERANCE})")
    return errors


class PostfitSurface(Workload):
    """``toolwear diagnose`` and two ``toolwear predict`` runs on stored draws."""

    name = "postfit-surface"
    GRID = 60
    elasticity = 0.7

    def prepare(self):
        from toolwear.simulate import simulate_dataset
        self.inp.mkdir(parents=True)
        records, truth = simulate_dataset(n_experiments=21, n_points=50, seed=self.seed)
        write_controls(self.inp / "controls.csv", records)
        rng = np.random.default_rng([self.seed, 1])
        self.train = np.array([[r.v_c, r.f] for r in records])
        self.life = np.array([r.tool_life for r in records])
        self.force = synthetic_force_draws(truth, rng)
        self.life_draws = synthetic_life_draws(self.life, rng)
        write_draws(self.inp / "draws_Ft.csv", *self.force)
        write_draws(self.inp / "draws_life.csv", *self.life_draws)
        lo, hi = self.train.min(axis=0).tolist(), self.train.max(axis=0).tolist()
        g = self.GRID
        self.grid = f"{lo[0]!r}:{hi[0]!r}:{g},{lo[1]!r}:{hi[1]!r}:{g}"

    def commands(self):
        draws_ft, draws_life = str(self.inp / "draws_Ft.csv"), str(self.inp / "draws_life.csv")
        controls = str(self.inp / "controls.csv")
        return [
            ("diagnose", ["diagnose", "--draws", draws_ft]),
            ("predict-Ft", ["predict", "--draws", draws_ft, "--controls", controls,
                            "--channel", "Ft", "--grid", self.grid,
                            "-o", str(self.out / "surface_Ft.csv")]),
            ("predict-life", ["predict", "--draws", draws_life, "--controls", controls,
                              "--channel", "life", "-o", str(self.out / "surface_life.csv")]),
        ]

    def keep(self, codes):
        kept = {}
        try:
            for ch in ("Ft", "life"):
                kept[ch] = read_matrix(self.out / f"surface_{ch}.csv")[1]
        except (OSError, ValueError, IndexError) as exc:
            kept["error"] = f"unreadable surface: {exc}"
        self.kept.append(kept)

    def check(self):
        errors = {"predict-Ft": [], "predict-life": []}
        first = self.kept[0]
        for kept in self.kept:
            if "error" in kept:
                errors["predict-Ft"].append(kept["error"])
            elif any(not np.array_equal(kept[ch], first[ch]) for ch in ("Ft", "life")):
                errors["predict-Ft"].append("surfaces differ between repeats")
        if "error" in first:
            return errors
        mean_x, sd_x = self.train.mean(axis=0), self.train.std(axis=0)
        x_train = (self.train - mean_x) / sd_x
        for ch, label in (("Ft", "predict-Ft"), ("life", "predict-life")):
            surf = first[ch]
            expected_nodes = self.GRID ** 2 if ch == "Ft" else 400
            if surf.shape != (expected_nodes, 4):
                errors[label].append(f"{ch} surface has shape {surf.shape}")
                continue
            n_f = int(np.sum(surf[:, 0] == surf[0, 0]))
            v_axis, f_axis = surf[::n_f, 0], surf[:n_f, 1]
            if not (np.array_equal(surf[:, 0], np.repeat(v_axis, n_f))
                    and np.array_equal(surf[:, 1], np.tile(f_axis, len(v_axis)))):
                errors[label].append(f"{ch} surface nodes are not a v-major grid")
                continue
            draws, names = self.force if ch == "Ft" else self.life_draws
            flat = draws.reshape(-1, draws.shape[2])
            idx = {n: i for i, n in enumerate(names)}
            kern = flat[:, [idx[n] for n in ("eta_sq", "rho1", "rho2", "sigma_b_sq")]]
            if ch == "Ft":
                y = flat[:, [idx[f"beta[{i + 1}]"] for i in range(len(self.train))]]
                mu = flat[:, idx["mu_beta"]]
            else:
                y = np.broadcast_to(np.log(self.life), (len(flat), len(self.life)))
                mu = flat[:, idx["mu_life"]]
            m, v = conditional_moments(x_train, (v_axis - mean_x[0]) / sd_x[0],
                                       (f_axis - mean_x[1]) / sd_x[1], y, mu, kern)
            if ch == "Ft":   # normal: E[Y^k] from mean and variance
                raw = (m, m * m + v, m ** 3 + 3 * m * v, m ** 4 + 6 * m * m * v + 3 * v * v)
            else:            # log-normal: E[Y^k] = exp(k m + k^2 v / 2)
                raw = tuple(np.exp(k * m + 0.5 * k * k * v) for k in (1, 2, 3, 4))
            errors[label] += mixture_check(surf[:, 2], surf[:, 3], raw, ch)
        return errors


WORKLOADS = {w.name: w for w in (IngestLife, PostfitSurface, FitForce)}
