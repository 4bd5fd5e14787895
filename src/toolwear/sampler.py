"""Hamiltonian Monte Carlo with No-U-Turn trajectories and dual averaging.

Multinomial NUTS (Hoffman & Gelman 2014): trajectories double until the
U-turn criterion or the maximum tree depth, the next state is drawn with
multinomial weights, and step size adapts toward a target acceptance rate
during a windowed warmup (step-size phase, growing mass-matrix windows,
final step-size phase). A transition is flagged divergent when the energy
error exceeds :data:`DIVERGENCE_THRESHOLD`.

The inverse mass matrix is diagonal, held as the array ``inv_mass`` of its
diagonal: the drift moves by ``step * inv_mass * p``, the velocity is
``inv_mass * p`` and the momenta are drawn with standard deviations
``1 / sqrt(inv_mass)``. It starts from the target's ``initial_metric()`` when
the target offers one (the force model's least-squares variances), otherwise
from the unit diagonal, and each mass-matrix window replaces it with the
regularized variances of the window's draws (:func:`_window_inv_mass`).

Each doubling builds its subtree leaf by leaf in a loop, without recursion.
:func:`_merge` is the one place where two subtrees join: it draws the
multinomial choice, adds the weights, accept sums and step counts, moves
an end and checks the U-turn, inside a subtree and in the doubling loop.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, SamplingError

DIVERGENCE_THRESHOLD = 1000.0
_LOG2 = math.log(2.0)
INIT_RADIUS = 2.0  # chains start uniform in [-INIT_RADIUS, INIT_RADIUS] per coordinate


@dataclass
class ChainSet:
    """Multi-chain posterior draws on the constrained scale."""

    draws: np.ndarray  # (n_chains, n_retained, n_params)
    param_names: list[str]
    n_warmup: int
    n_retained: int
    seed: int
    # None where the draws come from a draws CSV without its sidecar (io.read_draws)
    accept_stats: np.ndarray | None = None  # mean acceptance probability per chain
    divergences: np.ndarray | None = None   # post-warmup divergence count per chain
    step_sizes: np.ndarray | None = None    # adapted step size per chain

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    def flat(self) -> np.ndarray:
        """Draws pooled over chains, shape (n_chains * n_retained, n_params)."""
        return self.draws.reshape(-1, self.draws.shape[2])


def _kinetic(p, inv_mass):
    """The kinetic energy p' M^-1 p / 2."""
    return 0.5 * float((p * p * inv_mass).sum())


def _window_inv_mass(draws):
    """The inverse mass of a mass-matrix window's ``draws``, shape (n, dim):
    their variances shrunk by n / (n + 5), plus 5e-3 / (n + 5)."""
    n = len(draws)
    var = np.var(np.asarray(draws), axis=0, ddof=1)
    return (n / (n + 5.0)) * var + (5.0 / (n + 5.0)) * 1e-3


def leapfrog(x, p, grad, step, logp_grad_fn, inv_mass):
    """One symplectic leapfrog step: half kick, full drift, half kick.

    ``grad`` is the log-density gradient at ``x``, so each step evaluates
    ``logp_grad_fn`` once; the drift moves by ``step * inv_mass * p``, in that
    order. Returns ``(x, p, logp, grad)`` at the new state. A covariance that
    cannot be factored there reads as ``logp = -inf`` with a zero gradient,
    which the caller counts as a divergence.
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
    """A NUTS trajectory or subtree, built for one state (a leaf, or the
    start of a transition) and grown by :func:`_merge`."""

    __slots__ = ("lo", "hi", "x_prop", "logp_prop", "grad_prop", "log_weight",
                 "sum_accept", "n_steps", "turning", "diverged")

    def __init__(self, x, p, v, logp, grad, log_weight, sum_accept, n_steps, diverged):
        # the ends, backward and forward: position, momentum, gradient and
        # the velocity M^-1 p that the U-turn check takes
        self.lo = self.hi = (x, p, grad, v)
        self.x_prop, self.logp_prop, self.grad_prop = x, logp, grad
        self.log_weight = log_weight
        self.sum_accept = sum_accept
        self.n_steps = n_steps
        self.diverged = diverged
        self.turning = False


def _logaddexp(a, b):
    """log(exp(a) + exp(b)) of two floats, computed as ``np.logaddexp``
    computes it (the same bits), without its per-call cost."""
    if a == b:
        return a + _LOG2
    d = a - b
    return a + math.log1p(math.exp(-d)) if d > 0 else b + math.log1p(math.exp(d))


def _merge(first, second, direction, rng):
    """Extend ``first``, in place, by ``second``, the subtree built after it in
    ``direction``. The multinomial uniform is drawn whenever ``second``'s log
    weight is finite, even if ``second`` turned or diverged; ``rng.random()``
    draws the bits ``rng.uniform()`` would."""
    total = _logaddexp(first.log_weight, second.log_weight)
    if math.isfinite(second.log_weight) and \
            math.log(rng.random()) < second.log_weight - total:
        first.x_prop, first.logp_prop = second.x_prop, second.logp_prop
        first.grad_prop = second.grad_prop
    first.log_weight = total
    first.sum_accept += second.sum_accept
    first.n_steps += second.n_steps
    first.diverged = second.diverged
    if direction > 0:
        first.hi = second.hi
    else:
        first.lo = second.lo
    first.turning = second.turning or _uturn(first.lo, first.hi)
    return first


def nuts_transition(position, logp_grad_fn, step_size, rng, inv_mass, max_tree_depth,
                    logp0, grad0):
    """One NUTS transition from ``position``, where the log density and its
    gradient are ``logp0`` and ``grad0``.

    Returns ``(new_position, stats)`` where stats holds the mean acceptance
    probability, divergence flag, tree depth, leapfrog count, and cached
    logp/grad of the returned state.

    Each doubling builds a subtree of ``2**depth`` leapfrog steps. A stack
    holds its finished left halves, so merges run in the order of a
    recursive build; a subtree that turns or diverges is merged into every
    half still on the stack, and ends the doubling without joining the
    trajectory.
    """
    x0 = np.asarray(position, dtype=float)
    p0 = rng.standard_normal(inv_mass.shape) / np.sqrt(inv_mass)
    h0 = -logp0 + _kinetic(p0, inv_mass)
    # weight exp(-(h0 - h0)) = 1
    traj = _Tree(x0, p0, inv_mass * p0, logp0, grad0, 0.0, 0.0, 0, False)
    depth = 0

    while depth < max(max_tree_depth, 1):
        direction = 1 if rng.random() < 0.5 else -1
        x, p, g, _ = traj.hi if direction > 0 else traj.lo
        halves = []
        for leaf in range(1 << depth):
            x, p, logp, g = leapfrog(x, p, g, direction * step_size, logp_grad_fn, inv_mass)
            finite = math.isfinite(logp) and np.isfinite(x).all()
            h = -logp + _kinetic(p, inv_mass) if finite else math.inf
            delta = h - h0
            log_weight = -delta if math.isfinite(delta) else -math.inf
            sub = _Tree(x, p, inv_mass * p, logp, g, log_weight,
                        math.exp(min(0.0, log_weight)), 1,
                        not math.isfinite(h) or delta > DIVERGENCE_THRESHOLD)
            # an odd leaf index closes a left half; a failed subtree closes them all
            while halves and (leaf & 1 or sub.diverged or sub.turning):
                sub = _merge(halves.pop(), sub, direction, rng)
                leaf >>= 1
            if sub.diverged or sub.turning:
                break
            halves.append(sub)  # after the last leaf, the whole subtree
        if sub.diverged or sub.turning:  # its steps count; its states are not candidates
            traj.sum_accept += sub.sum_accept
            traj.n_steps += sub.n_steps
            traj.diverged = sub.diverged
            break
        traj = _merge(traj, sub, direction, rng)
        depth += 1
        if traj.turning:
            break

    stats = {
        "accept_prob": traj.sum_accept / traj.n_steps,
        "divergent": bool(traj.diverged),
        "depth": depth,
        "logp": traj.logp_prop,
        "grad": traj.grad_prop,
        "n_steps": traj.n_steps,
    }
    return traj.x_prop, stats


def _uturn(lo, hi):
    """Whether the trajectory between the ends ``lo`` and ``hi`` turns back:
    its span against either end's velocity."""
    dx = hi[0] - lo[0]
    return float(dx @ lo[3]) < 0.0 or float(dx @ hi[3]) < 0.0


class DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance.

    ``gamma``, ``t0`` and ``kappa`` take the values of Hoffman & Gelman
    (2014, sec. 3.2.1).
    """

    gamma, t0, kappa = 0.05, 10.0, 0.75

    def __init__(self, step_size0, target_accept=0.8):
        self.mu = math.log(10.0 * step_size0)
        self.target = target_accept
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


def find_reasonable_step_size(logp_grad_fn, x0, rng, inv_mass, logp0, grad0) -> float:
    """Double/halve the step size until the one-step acceptance crosses 1/2.

    ``logp0``/``grad0`` are the density and gradient at ``x0``.
    """
    eps = 1.0
    p0 = rng.standard_normal(inv_mass.shape) / np.sqrt(inv_mass)
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


def _warmup_schedule(n_warmup):
    """(end of the step-size-only phase, ends of the mass-matrix windows); the
    last window ends where the final step-size-only phase starts."""
    init_buffer, term_buffer, base_window = 75, 50, 25
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


def _run_chain(seed_seq, target, n_warmup, n_samples, max_tree_depth, target_accept):
    """One NUTS chain seeded by ``seed_seq``: windowed warmup, then sampling.

    Returns ``(draws, accept_stat, divergences, step_size)``: the retained
    draws on the constrained scale, shape (n_samples, n_params), their mean
    acceptance probability, their divergence count and the adapted step size.
    The inverse mass starts from ``target.initial_metric()``, or from the
    unit diagonal where the target has no such method.
    """
    constrain = getattr(target, "constrain", lambda u: u)
    initial_metric = getattr(target, "initial_metric", None)
    rng = np.random.default_rng(seed_seq)
    x = rng.uniform(-INIT_RADIUS, INIT_RADIUS, target.dim)
    logp, grad = target.logp_grad(x)
    inv_mass = initial_metric() if initial_metric else np.ones(target.dim)
    eps = find_reasonable_step_size(target.logp_grad, x, rng, inv_mass, logp, grad)
    da = DualAveraging(eps, target_accept)
    init_buffer, window_ends = _warmup_schedule(n_warmup) if n_warmup > 0 else (0, [])
    window_draws = []
    draws = []
    accept_sum = 0.0
    divergences = 0

    for it in range(n_warmup + n_samples):
        if it == n_warmup > 0:
            eps = da.adapted_step_size
        x, stats = nuts_transition(x, target.logp_grad, eps, rng, inv_mass,
                                   max_tree_depth, logp, grad)
        logp, grad = stats["logp"], stats["grad"]
        if it >= n_warmup:
            accept_sum += stats["accept_prob"]
            divergences += stats["divergent"]
            draws.append(constrain(x))
            continue
        eps = da.update(stats["accept_prob"])
        if it >= init_buffer:
            window_draws.append(x)
        if window_ends and it + 1 == window_ends[0]:
            window_ends.pop(0)
            if len(window_draws) >= 10:
                inv_mass = _window_inv_mass(window_draws)
                eps = find_reasonable_step_size(target.logp_grad, x, rng, inv_mass,
                                                logp, grad)
                da = DualAveraging(eps, target_accept)
            window_draws = []
    return np.asarray(draws, dtype=float), accept_sum / n_samples, divergences, eps


def _worker_count(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: one per CPU in this process's
    affinity mask, at most one per task, and 1 where fork is not offered."""
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or \
            "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


_MAPPED = None  # the function of a running ``fork_map``, inherited by its workers


def _call_mapped(i):
    return _MAPPED(i)


def fork_map(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed on ``_worker_count(n)`` worker processes.

    The workers are forked, so they inherit ``fn`` as it is, closures and local
    classes included; only the indices and the results are pickled. With one
    worker (``taskset -c 0``, or where fork is not offered) the calls run one
    after another in this process. An error raised by a call is raised here
    with its own class, and the calls still queued are cancelled.
    """
    workers = _worker_count(n)
    if workers == 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _MAPPED
    _MAPPED = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_call_mapped, range(n)))
    finally:
        _MAPPED = None


def run_chains(
    target,
    n_chains: int = 4,
    n_warmup: int = 1000,
    n_samples: int = 1000,
    seed: int = 0,
    max_tree_depth: int = 10,
    target_accept: float = 0.8,
) -> ChainSet:
    """Sample ``target`` with independent NUTS chains.

    ``target`` provides ``dim``, ``logp_grad(u) -> (logp, grad)`` and
    optionally ``constrain(u)`` / ``param_names``. Chains start from uniform
    draws in ``[-INIT_RADIUS, INIT_RADIUS]`` with seeds split from ``seed``,
    so results are reproducible regardless of execution order. The density
    is evaluated once at each chain's start; every step-size search and
    transition then starts from the density and gradient already held.

    The chains run in parallel through :func:`fork_map`, one worker process
    per CPU in this process's affinity mask (never more workers than chains),
    which inherit ``target`` as it is; the draws come back in chain order and
    do not depend on the number of workers.
    """
    if n_chains < 2:
        raise SamplingError("need at least 2 chains (convergence diagnostics require it)")
    # the rules of io.SETTINGS["sampler"]; the split-chain PSRF needs 4 draws per chain
    for ok, rule in ((n_samples >= 4, "n_samples must be >= 4"),
                     (n_warmup >= 0, "n_warmup must be >= 0"),
                     (max_tree_depth >= 1, "max_tree_depth must be >= 1"),
                     (0 < target_accept < 1, "target_accept must be between 0 and 1")):
        if not ok:
            raise SamplingError(f"{rule}, as the sampler settings require")

    names = getattr(target, "param_names", [f"u[{i+1}]" for i in range(target.dim)])
    seeds = np.random.SeedSequence(seed).spawn(n_chains)
    settings = (n_warmup, n_samples, max_tree_depth, target_accept)
    results = fork_map(lambda i: _run_chain(seeds[i], target, *settings), n_chains)
    draws, accept_stats, divergences, step_sizes = zip(*results)
    divergences = np.array(divergences, dtype=int)

    if np.all(divergences >= n_samples):
        raise SamplingError("all transitions diverged; model is numerically unstable")

    return ChainSet(
        draws=np.stack(draws), param_names=list(names), n_warmup=n_warmup,
        n_retained=n_samples, seed=seed, accept_stats=np.array(accept_stats),
        divergences=divergences, step_sizes=np.array(step_sizes),
    )
