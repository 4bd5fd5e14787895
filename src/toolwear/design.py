"""Quasi-random experimental designs over the (cutting speed, feed rate) plane.

Points are generated from a Sobol sequence using Joe-Kuo direction numbers
(bundled in ``data/joe_kuo_d16.txt``) and scaled onto user-supplied bounds.
The sequence refines progressively, so a design can be augmented later by
simply taking the next points.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, UnsupportedDimensionError

MAX_DIM = 16
_N_BITS = 32
_SCALE = 2.0 ** (-_N_BITS)


@dataclass(frozen=True)
class DesignBounds:
    """Feasible rectangle for cutting speed (m/min) and feed rate (um/rev)."""

    v_min: float
    v_max: float
    f_min: float
    f_max: float

    def __post_init__(self):
        if not (0 < self.v_min < self.v_max < np.inf):
            raise DomainError(f"need 0 < v_min < v_max < inf, got [{self.v_min}, {self.v_max}]")
        if not (0 < self.f_min < self.f_max < np.inf):
            raise DomainError(f"need 0 < f_min < f_max < inf, got [{self.f_min}, {self.f_max}]")


@dataclass(frozen=True)
class DesignPoint:
    """One test setting in the prioritized sequence."""

    index: int
    v_c: float
    f: float


def _load_direction_numbers():
    """Parse the bundled Joe-Kuo table: one row (d, s, a, m_1..m_s) per dimension."""
    rows = {}
    text = resources.files("toolwear.data").joinpath("joe_kuo_d16.txt").read_text()
    for line in text.strip().splitlines()[1:]:
        parts = [int(tok) for tok in line.split()]
        d, s, a, m = parts[0], parts[1], parts[2], parts[3:]
        rows[d] = (s, a, m)
    return rows

_JOE_KUO = _load_direction_numbers()


def _direction_integers(dim: int, n_bits: int = _N_BITS) -> np.ndarray:
    """Direction integers V[dim][k] for k = 0..n_bits-1, as uint64 scaled to 2^32."""
    v = np.zeros((dim, n_bits), dtype=np.uint64)
    # first dimension: van der Corput in base 2
    for k in range(n_bits):
        v[0, k] = 1 << (n_bits - 1 - k)
    for d in range(2, dim + 1):
        s, a, m = _JOE_KUO[d]
        for k in range(min(s, n_bits)):
            v[d - 1, k] = np.uint64(m[k]) << np.uint64(n_bits - 1 - k)
        for k in range(s, n_bits):
            val = v[d - 1, k - s] ^ (v[d - 1, k - s] >> np.uint64(s))
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    val ^= v[d - 1, k - i]
            v[d - 1, k] = val
    return v


def _sobol_state(index: int, v: np.ndarray) -> np.ndarray:
    """Direct binary construction: XOR of direction integers selected by gray(index)."""
    dim, n_bits = v.shape
    x = np.zeros(dim, dtype=np.uint64)
    gray = index ^ (index >> 1)
    k = 0
    while gray:
        if gray & 1:
            x ^= v[:, k]
        gray >>= 1
        k += 1
    return x


def sobol_unit(dim: int, n: int, skip: int = 0) -> np.ndarray:
    """Points skip..skip+n-1 of the Sobol sequence in [0, 1)^dim.

    Each point is built directly by :func:`_sobol_state` from its index.
    Deterministic for fixed arguments.
    """
    if not 1 <= dim <= MAX_DIM:
        raise UnsupportedDimensionError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if skip < 0:
        raise DomainError(f"skip must be >= 0, got {skip}")
    if skip + n > 2 ** _N_BITS:
        raise DomainError(f"points skip..skip+n-1 must have indices below 2^{_N_BITS}, "
                          f"got skip={skip}, n={n}")
    v = _direction_integers(dim)
    return np.array([_sobol_state(skip + i, v) for i in range(n)]).astype(float) * _SCALE


def scale_design(points: np.ndarray, bounds: DesignBounds, start_index: int = 0) -> list[DesignPoint]:
    """Affine-map unit-square points onto the design rectangle, order preserved."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"expected (n, 2) points, got shape {pts.shape}")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise DomainError("unit-cube coordinates must lie in [0, 1)")
    v = bounds.v_min + pts[:, 0] * (bounds.v_max - bounds.v_min)
    f = bounds.f_min + pts[:, 1] * (bounds.f_max - bounds.f_min)
    return [DesignPoint(start_index + i, v[i], f[i]) for i in range(len(pts))]


def augmentation_plan(
    bounds: DesignBounds,
    n_initial: int,
    n_reserve: int = 0,
    skip: int = 1,
) -> tuple[list[DesignPoint], list[DesignPoint]]:
    """Prioritized initial settings plus a reserve block for later augmentation.

    By default the all-zeros sequence origin is skipped (a zero-corner test
    setting is physically meaningless); pass ``skip=0`` for the raw sequence.
    Concatenating the two blocks equals a single request of the combined size.
    """
    if n_initial < 1:
        raise DomainError(f"n_initial must be >= 1, got {n_initial}")
    if n_reserve < 0:
        raise DomainError(f"n_reserve must be >= 0, got {n_reserve}")
    total = sobol_unit(2, n_initial + n_reserve, skip=skip)
    scaled = scale_design(total, bounds)
    return scaled[:n_initial], scaled[n_initial:]
