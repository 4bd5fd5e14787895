"""Order statistics and the paired comparison rule used by ``run.py --compare``."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def compare_pairs(parent, change, better: str, bound: float) -> dict:
    """Verdict for one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` ran with the same seed. The change is
    ``better`` only if there are at least ten pairs, it wins at least 9/10
    of them (ties count for neither) and its median beats the parent's by
    more than the parent's interquartile range. It is ``worse`` if its
    median is worse than the parent's by more than ``bound`` (a share of the
    parent's median). When the parent's own spread exceeds the bound the
    result is ``unresolved`` unless every change run reads better than every
    parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    out = {"pairs": len(parent), "wins": wins, "parent_median": p_med,
           "change_median": c_med, "parent_iqr": p_q3 - p_q1}
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        out["verdict"] = "better"
    elif -gain > bound * abs(p_med):
        out["verdict"] = "worse"
    elif spread(parent) > bound and \
            not min(sign * c for c in change) > max(sign * p for p in parent):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "within-bound"
    return out
