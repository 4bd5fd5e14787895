"""The recursive NUTS transition that the iterative one replaced, kept as a test oracle.

``nuts_transition`` below is the multinomial NUTS transition as it stood
before ``toolwear.sampler.nuts_transition`` was rewritten as a loop with one
merge routine; its body is unchanged. ``test_sampler.TestNutsOracle``
asserts that the two agree bit for bit: position, every stats value and the
generator state after the transition. The oracle keeps its own copy of the
diagonal leapfrog step as it stood then, so it checks the integrator and its
float order as well as the tree building, the multinomial draws and the
U-turn checks. It takes the diagonal inverse mass as an array, as the
sampler under test does.

The generalized U-turn criterion (Betancourt 2017, arXiv:1701.02434), ROADMAP
item 3, changes the draws by design. It retires this oracle and its test.
"""

from __future__ import annotations

import math

import numpy as np

from toolwear.errors import NotPositiveDefiniteError
from toolwear.sampler import DIVERGENCE_THRESHOLD


def leapfrog(x, p, grad, step, logp_grad_fn, inv_mass):
    """One leapfrog step with a diagonal inverse mass; the drift multiplies
    ``step * inv_mass`` first."""
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
