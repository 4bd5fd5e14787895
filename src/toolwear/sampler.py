"""Hamiltonian Monte Carlo with No-U-Turn trajectories and dual averaging.

Multinomial NUTS with a diagonal mass matrix: trajectories double until the
U-turn criterion or the maximum tree depth, the next state is drawn with
multinomial weights, and step size adapts toward a target acceptance rate
during a windowed warmup (step-size phase, growing mass-matrix windows, final
step-size phase). A transition is flagged divergent when the energy error
exceeds :data:`DIVERGENCE_THRESHOLD`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefiniteError, SamplingError

DIVERGENCE_THRESHOLD = 1000.0


@dataclass
class ChainSet:
    """Multi-chain posterior draws on the constrained scale."""

    draws: np.ndarray  # (n_chains, n_retained, n_params)
    param_names: list[str]
    n_warmup: int
    n_retained: int
    seed: int
    accept_stats: np.ndarray  # mean acceptance probability per chain
    divergences: np.ndarray   # post-warmup divergence count per chain
    step_sizes: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    def flat(self) -> np.ndarray:
        """Draws pooled over chains, shape (n_chains * n_retained, n_params)."""
        return self.draws.reshape(-1, self.draws.shape[2])

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, :, self.param_names.index(name)]


def leapfrog(x, p, grad, step, logp_grad_fn, inv_mass):
    """One symplectic leapfrog step: half kick, full drift, half kick.

    ``grad`` is the log-density gradient at ``x``, so each step evaluates
    ``logp_grad_fn`` once; the drift uses velocity ``inv_mass * p`` (diagonal
    inverse mass). Returns ``(x, p, logp, grad)`` at the new state. A
    covariance that cannot be factored there reads as ``logp = -inf`` with a
    zero gradient, which the caller counts as a divergence.
    """
    p = p + 0.5 * step * grad
    x = x + step * inv_mass * p
    try:
        logp, grad = logp_grad_fn(x)
    except NotPositiveDefiniteError:
        logp, grad = -math.inf, np.zeros_like(x)
    p = p + 0.5 * step * grad
    return x, p, logp, grad


class _Tree:
    """State of one NUTS trajectory subtree (multinomial weighting)."""

    __slots__ = ("x_min", "p_min", "g_min", "x_max", "p_max", "g_max",
                 "x_prop", "logp_prop", "grad_prop", "log_weight", "sum_accept",
                 "n_steps", "turning", "diverged")


def _kinetic(p, inv_mass):
    return 0.5 * float(np.sum(p * p * inv_mass))


def nuts_transition(position, logp_grad_fn, step_size, rng,
                    inv_mass=None, max_tree_depth=10, logp0=None, grad0=None):
    """One NUTS transition from ``position``.

    Returns ``(new_position, stats)`` where stats holds the mean acceptance
    probability, divergence flag, tree depth, and cached logp/grad of the
    returned state.
    """
    x0 = np.asarray(position, dtype=float)
    if inv_mass is None:
        inv_mass = np.ones_like(x0)
    if logp0 is None or grad0 is None:
        logp0, grad0 = logp_grad_fn(x0)
    p0 = rng.standard_normal(x0.shape) / np.sqrt(inv_mass)
    h0 = -logp0 + _kinetic(p0, inv_mass)

    # trajectory endpoints
    x_min, p_min, g_min = x0.copy(), p0.copy(), grad0.copy()
    x_max, p_max, g_max = x0.copy(), p0.copy(), grad0.copy()
    x_sel, logp_sel, grad_sel = x0, logp0, grad0
    log_weight = 0.0  # weight of the initial point: exp(-(H - h0)) = 1
    sum_accept = 0.0
    n_steps = 0
    diverged = False
    depth = 0

    def build(x, p, g, direction, depth):
        """Build a subtree of 2^depth states starting one step from (x, p)."""
        tree = _Tree()
        if depth == 0:
            x1, p1, logp1, g1 = leapfrog(x, p, g, direction * step_size,
                                         logp_grad_fn, inv_mass)
            if np.all(np.isfinite(x1)) and math.isfinite(logp1):
                h1 = -logp1 + _kinetic(p1, inv_mass)
            else:
                h1 = math.inf
            delta = h1 - h0
            tree.diverged = not math.isfinite(h1) or delta > DIVERGENCE_THRESHOLD
            tree.turning = False
            tree.x_min = tree.x_max = x1
            tree.p_min = tree.p_max = p1
            tree.g_min = tree.g_max = g1
            tree.x_prop, tree.logp_prop = x1, logp1
            tree.log_weight = -delta if math.isfinite(delta) else -math.inf
            if not math.isfinite(delta):
                tree.sum_accept = 0.0
            else:
                tree.sum_accept = 1.0 if delta <= 0 else math.exp(-delta)
            tree.n_steps = 1
            tree.grad_prop = g1
            return tree
        first = build(x, p, g, direction, depth - 1)
        if first.diverged or first.turning:
            return first
        if direction > 0:
            second = build(first.x_max, first.p_max, first.g_max, direction, depth - 1)
        else:
            second = build(first.x_min, first.p_min, first.g_min, direction, depth - 1)
        tree.sum_accept = first.sum_accept + second.sum_accept
        tree.n_steps = first.n_steps + second.n_steps
        tree.diverged = second.diverged
        total = np.logaddexp(first.log_weight, second.log_weight)
        if math.isfinite(second.log_weight) and \
                math.log(rng.uniform()) < second.log_weight - total:
            tree.x_prop, tree.logp_prop = second.x_prop, second.logp_prop
            tree.grad_prop = second.grad_prop
        else:
            tree.x_prop, tree.logp_prop = first.x_prop, first.logp_prop
            tree.grad_prop = first.grad_prop
        tree.log_weight = total
        if direction > 0:
            tree.x_min, tree.p_min, tree.g_min = first.x_min, first.p_min, first.g_min
            tree.x_max, tree.p_max, tree.g_max = second.x_max, second.p_max, second.g_max
        else:
            tree.x_min, tree.p_min, tree.g_min = second.x_min, second.p_min, second.g_min
            tree.x_max, tree.p_max, tree.g_max = first.x_max, first.p_max, first.g_max
        tree.turning = second.turning or _uturn(tree.x_min, tree.x_max,
                                                tree.p_min, tree.p_max, inv_mass)
        return tree

    while depth < max(max_tree_depth, 1):
        direction = 1 if rng.uniform() < 0.5 else -1
        if direction > 0:
            sub = build(x_max, p_max, g_max, 1, depth)
            if not (sub.diverged or sub.turning):
                x_max, p_max, g_max = sub.x_max, sub.p_max, sub.g_max
        else:
            sub = build(x_min, p_min, g_min, -1, depth)
            if not (sub.diverged or sub.turning):
                x_min, p_min, g_min = sub.x_min, sub.p_min, sub.g_min
        sum_accept += sub.sum_accept
        n_steps += sub.n_steps
        if sub.diverged:
            diverged = True
            break
        if sub.turning:
            break
        total = np.logaddexp(log_weight, sub.log_weight)
        if math.log(rng.uniform()) < sub.log_weight - total:
            x_sel, logp_sel, grad_sel = sub.x_prop, sub.logp_prop, sub.grad_prop
        log_weight = total
        depth += 1
        if _uturn(x_min, x_max, p_min, p_max, inv_mass):
            break

    stats = {
        "accept_prob": sum_accept / max(n_steps, 1),
        "divergent": diverged,
        "depth": depth,
        "logp": logp_sel,
        "grad": grad_sel,
        "n_steps": n_steps,
    }
    return x_sel, stats


def _uturn(x_min, x_max, p_min, p_max, inv_mass):
    dx = x_max - x_min
    return (float(dx @ (inv_mass * p_min)) < 0.0
            or float(dx @ (inv_mass * p_max)) < 0.0)


class DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    def __init__(self, step_size0, target_accept=0.8,
                 gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * step_size0)
        self.target = target_accept
        self.gamma, self.t0, self.kappa = gamma, t0, kappa
        self.count = 0
        self.h_bar = 0.0
        self.log_step = math.log(step_size0)
        self.log_step_bar = 0.0

    def update(self, accept_prob: float) -> float:
        self.count += 1
        w = 1.0 / (self.count + self.t0)
        self.h_bar = (1 - w) * self.h_bar + w * (self.target - accept_prob)
        self.log_step = self.mu - math.sqrt(self.count) / self.gamma * self.h_bar
        eta = self.count ** (-self.kappa)
        self.log_step_bar = eta * self.log_step + (1 - eta) * self.log_step_bar
        return math.exp(self.log_step)

    @property
    def adapted_step_size(self) -> float:
        return math.exp(self.log_step_bar)


def find_reasonable_step_size(logp_grad_fn, x0, rng, inv_mass,
                              logp0=None, grad0=None) -> float:
    """Double/halve the step size until the one-step acceptance crosses 1/2.

    ``logp0``/``grad0``, when given, are the density and gradient at ``x0``.
    """
    eps = 1.0
    if logp0 is None or grad0 is None:
        logp0, grad0 = logp_grad_fn(x0)
    p0 = rng.standard_normal(x0.shape) / np.sqrt(inv_mass)
    h0 = -logp0 + _kinetic(p0, inv_mass)

    def energy_after(eps):
        _, p, logp, _ = leapfrog(x0, p0, grad0, eps, logp_grad_fn, inv_mass)
        return -logp + _kinetic(p, inv_mass) if math.isfinite(logp) else math.inf

    delta = energy_after(eps) - h0
    direction = 1 if delta < math.log(2.0) else -1
    for _ in range(50):
        eps *= 2.0 ** direction
        delta = energy_after(eps) - h0
        if (direction == 1 and delta >= math.log(2.0)) or \
           (direction == -1 and delta <= math.log(2.0)):
            break
    return eps


def _warmup_schedule(n_warmup, init_buffer=75, term_buffer=50, base_window=25):
    """(step-size-only end, mass-matrix window ends, final phase start)."""
    if n_warmup < init_buffer + term_buffer + base_window:
        init_buffer = max(1, int(0.15 * n_warmup))
        term_buffer = max(1, int(0.10 * n_warmup))
        base_window = max(1, n_warmup - init_buffer - term_buffer)
    window_ends = []
    start = init_buffer
    size = base_window
    while start + size < n_warmup - term_buffer:
        window_ends.append(start + size)
        start += size
        size *= 2
    window_ends.append(n_warmup - term_buffer)
    return init_buffer, window_ends


def _run_chain(seed_seq, target, n_warmup, n_samples, max_tree_depth,
               target_accept, init_radius):
    """One NUTS chain seeded by ``seed_seq``: windowed warmup, then sampling.

    Returns ``(draws, accept_stat, divergences, step_size)``: the retained
    draws on the constrained scale, shape (n_samples, n_params), their mean
    acceptance probability, their divergence count and the adapted step size.
    """
    constrain = getattr(target, "constrain", lambda u: u)
    rng = np.random.default_rng(seed_seq)
    x = rng.uniform(-init_radius, init_radius, target.dim)
    logp, grad = target.logp_grad(x)
    inv_mass = np.ones(target.dim)
    eps = find_reasonable_step_size(target.logp_grad, x, rng, inv_mass, logp, grad)
    da = DualAveraging(eps, target_accept)
    init_buffer, window_ends = _warmup_schedule(n_warmup) if n_warmup > 0 else (0, [])
    window_draws = []

    for it in range(n_warmup):
        x, stats = nuts_transition(x, target.logp_grad, eps, rng,
                                   inv_mass=inv_mass, max_tree_depth=max_tree_depth,
                                   logp0=logp, grad0=grad)
        logp, grad = stats["logp"], stats["grad"]
        eps = da.update(stats["accept_prob"])
        if it >= init_buffer:
            window_draws.append(x)
        if window_ends and it + 1 == window_ends[0]:
            window_ends.pop(0)
            if len(window_draws) >= 10:
                var = np.var(np.asarray(window_draws), axis=0, ddof=1)
                n = len(window_draws)
                inv_mass = (n / (n + 5.0)) * var + (5.0 / (n + 5.0)) * 1e-3
                eps = find_reasonable_step_size(target.logp_grad, x, rng, inv_mass,
                                                logp, grad)
                da = DualAveraging(eps, target_accept)
            window_draws = []
    eps = da.adapted_step_size if n_warmup > 0 else eps

    draws = []
    accept_sum = 0.0
    divergences = 0
    for it in range(n_samples):
        x, stats = nuts_transition(x, target.logp_grad, eps, rng,
                                   inv_mass=inv_mass, max_tree_depth=max_tree_depth,
                                   logp0=logp, grad0=grad)
        logp, grad = stats["logp"], stats["grad"]
        accept_sum += stats["accept_prob"]
        divergences += bool(stats["divergent"])
        draws.append(constrain(x))
    return np.asarray(draws, dtype=float), accept_sum / n_samples, divergences, eps


def _worker_count(n_chains: int) -> int:
    """Worker processes for ``n_chains`` chains: one per CPU in this process's
    affinity mask, at most one per chain, and 1 where fork is not offered."""
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or \
            "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(n_chains, len(os.sched_getaffinity(0)))


_ADOPTED = None  # the target of a worker process, set by ``_adopt``


def _adopt(target):
    global _ADOPTED
    _ADOPTED = target


def _run_adopted(seed_seq, settings):
    return _run_chain(seed_seq, _ADOPTED, *settings)


def run_chains(
    target,
    n_chains: int = 4,
    n_warmup: int = 1000,
    n_samples: int = 1000,
    seed: int = 0,
    max_tree_depth: int = 10,
    target_accept: float = 0.8,
    init_radius: float = 2.0,
) -> ChainSet:
    """Sample ``target`` with independent NUTS chains.

    ``target`` provides ``dim``, ``logp_grad(u) -> (logp, grad)`` and
    optionally ``constrain(u)`` / ``param_names``. Chains start from uniform
    draws in ``[-init_radius, init_radius]`` with seeds split from ``seed``,
    so results are reproducible regardless of execution order. The density
    is evaluated once at each chain's start; every step-size search and
    transition then starts from the density and gradient already held.

    The chains run in parallel, one worker process per CPU in this process's
    affinity mask (never more workers than chains). The workers are forked,
    so they inherit ``target`` as it is, closures and local classes
    included; only each chain's seed and the scalar settings are pickled,
    and the draws come back in chain order. The draws do not depend on the
    number of workers. With one CPU (``taskset -c 0``), or where fork is not
    offered, the chains run one after another in this process.
    """
    if n_chains < 2:
        raise SamplingError("need at least 2 chains (convergence diagnostics require it)")
    if n_samples < 1:
        raise SamplingError("n_samples must be >= 1")

    names = getattr(target, "param_names", [f"u[{i+1}]" for i in range(target.dim)])
    seeds = np.random.SeedSequence(seed).spawn(n_chains)
    settings = (n_warmup, n_samples, max_tree_depth, target_accept, init_radius)
    workers = _worker_count(n_chains)
    if workers == 1:
        results = [_run_chain(ss, target, *settings) for ss in seeds]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_adopt, initargs=(target,)) as pool:
            results = list(pool.map(_run_adopted, seeds, [settings] * n_chains))
    draws, accept_stats, divergences, step_sizes = zip(*results)
    divergences = np.array(divergences, dtype=int)

    if np.all(divergences >= n_samples):
        raise SamplingError("all transitions diverged; model is numerically unstable")

    return ChainSet(
        draws=np.stack(draws), param_names=list(names), n_warmup=n_warmup,
        n_retained=n_samples, seed=seed, accept_stats=np.array(accept_stats),
        divergences=divergences, step_sizes=np.array(step_sizes),
    )


@dataclass
class GaussianTarget:
    """Multivariate normal test target (diagonal or full covariance)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        self._prec = np.linalg.inv(self.cov)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def logp_grad(self, u):
        d = u - self.mean
        g = -self._prec @ d
        return 0.5 * float(d @ g), g
