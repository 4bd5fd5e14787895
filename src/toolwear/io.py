"""File formats, run configuration, and dataset loading.

All numeric output uses ``repr`` of the Python float (shortest round-trip
decimal), so ``read(write(x)) == x`` exactly and re-runs are byte-identical.

Traces, series and draws are read by one numeric CSV reader: it checks the
header, then parses the body with ``np.loadtxt``. Only when that fails does
it walk the rows with ``csv`` and ``float()``, which accepts a few more
spellings (``1_000``, whitespace-only rows, quoted cells) and otherwise
finds the malformed row. Blank rows are skipped, and every error about a
row names it as ``file:line``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np
import yaml

from .errors import ValidationError
from .model import ExperimentRecord, PriorConfig
from .sampler import ChainSet
from .segmentation import CHANNELS


def fmt(x) -> str:
    """Full-precision decimal representation of a float."""
    return repr(float(x))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# controls and series

def load_controls(path) -> list[ExperimentRecord]:
    """Controls table: CSV with header id,v_c,f[,tool_life]."""
    records = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["id", "v_c", "f"]:
            raise ValidationError(f"{path}: expected header id,v_c,f[,tool_life]")
        has_life = len(header) >= 4 and header[3].strip() == "tool_life"
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rid = int(row[0])
                v_c, f = float(row[1]), float(row[2])
                life = None
                if has_life and len(row) > 3 and row[3].strip():
                    life = float(row[3])
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if rid in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate experiment id {rid}")
            if v_c <= 0 or f <= 0:
                raise ValidationError(f"{path}:{lineno}: settings must be positive")
            if life is not None and life <= 0:
                raise ValidationError(f"{path}:{lineno}: tool_life must be positive")
            seen.add(rid)
            records.append(ExperimentRecord(id=rid, v_c=v_c, f=f, tool_life=life))
    return records


def _data_rows(path):
    """(file line, cells) of each body row that has a non-blank cell, as ``csv`` reads them."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if any(c.strip() for c in row):
                yield lineno, row


def _line_of(path, index: int) -> int:
    """File line of the ``index``-th data row."""
    return next(islice(_data_rows(path), index, None))[0]


def _read_numeric(path, header_ok, expected: str, usecols=None):
    """Numeric CSV body under a checked header -> (header cells, 2-D float array).

    ``header_ok(cells)`` accepts the header, else ``ValidationError`` says
    ``expected``. Rows need at least as many cells as the header. With
    ``usecols`` only those columns are parsed and returned; without, every
    cell is parsed and the first ``len(header)`` columns are returned.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not header_ok(header):
            raise ValidationError(f"{path}: expected {expected}")
        width = len(header)
        ncols = width if usecols is None else len(usecols)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
            except ValueError:
                values = None
    if values is not None and len(values) and values.shape[1] >= ncols:
        return header, values[:, :ncols]
    rows = []
    for lineno, row in _data_rows(path):
        try:
            if len(row) < width:
                raise ValueError(f"{len(row)} cells under a header of {width}")
            rows.append([float(row[j]) for j in usecols or range(len(row))][:ncols])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed row {row!r}") from exc
    return header, np.array(rows, dtype=float).reshape(-1, ncols)


def load_series(path, record: ExperimentRecord | None = None):
    """Per-experiment series: CSV with header L,Ft,Ff,Fp and strictly increasing L.

    Returns (L, forces); when ``record`` is given the series is attached to it.
    """
    _, values = _read_numeric(path, lambda h: [c.strip() for c in h] == ["L", *CHANNELS],
                              "header L,Ft,Ff,Fp")
    length = np.ascontiguousarray(values[:, 0])
    bad = np.flatnonzero(length <= np.concatenate(([-np.inf], length[:-1])))
    if bad.size:
        raise ValidationError(f"{path}:{_line_of(path, bad[0])}: L must be strictly increasing")
    forces = {ch: np.ascontiguousarray(values[:, j]) for j, ch in enumerate(CHANNELS, start=1)}
    if record is not None:
        record.length = length
        record.forces = forces
        record.__post_init__()
    return length, forces


def write_series(path, length, forces) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["L", *CHANNELS])
        for i in range(len(length)):
            w.writerow([fmt(length[i])] + [fmt(forces[ch][i]) for ch in CHANNELS])


def write_trace(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", *CHANNELS])
        for i in range(trace.n_samples):
            w.writerow([i] + [fmt(trace.forces[ch][i]) for ch in CHANNELS])


def load_trace(path):
    """Raw trace CSV (columns sample,Ft,Ff,Fp) -> forces dict; ``sample`` is not read."""
    _, values = _read_numeric(path, lambda h: [c.strip() for c in h] == ["sample", *CHANNELS],
                              "header sample,Ft,Ff,Fp", usecols=(1, 2, 3))
    return {ch: np.ascontiguousarray(values[:, j]) for j, ch in enumerate(CHANNELS)}


# ---------------------------------------------------------------------------
# draws

def write_draws_csv(path, chains: ChainSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "iteration", *chains.param_names])
        for c in range(chains.n_chains):
            for it in range(chains.n_retained):
                w.writerow([c, it] + [fmt(v) for v in chains.draws[c, it]])


def read_draws_csv(path) -> ChainSet:
    header, values = _read_numeric(path, lambda h: h[:2] == ["chain", "iteration"],
                                   "draws header chain,iteration,...")
    if not len(values):
        raise ValidationError(f"{path}: no draws")
    index = values[:, :2]
    ok = (np.isfinite(index) & (index >= 0) & (index == np.floor(index))).all(axis=1)
    bad = np.flatnonzero(~(ok & np.isfinite(values[:, 2:]).all(axis=1)))
    if bad.size:  # before the NaN fill below, which would call a NaN cell a missing draw
        what = ("parameter values must be finite" if ok[bad[0]]
                else "chain and iteration must be non-negative integers")
        raise ValidationError(f"{path}:{_line_of(path, bad[0])}: {what}")
    n_chains, n_iter = (int(n) + 1 for n in index.max(axis=0))
    missing = ValidationError(f"{path}: missing (chain, iteration) combinations")
    if n_chains * n_iter > len(values):  # too few rows for the grid: allocate nothing
        raise missing
    flat = (index[:, 0] * n_iter + index[:, 1]).astype(np.intp)
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]  # a repeat's last row
    draws = np.full((n_chains * n_iter, len(header) - 2), np.nan)
    draws[flat[last]] = values[last, 2:]
    draws = draws.reshape(n_chains, n_iter, -1)
    if np.any(np.isnan(draws)):
        raise missing
    return ChainSet(
        draws=draws, param_names=header[2:], n_warmup=0, n_retained=n_iter,
        seed=0, accept_stats=np.full(n_chains, np.nan),
        divergences=np.zeros(n_chains, dtype=int),
    )


def write_draws_npz(path, chains: ChainSet) -> None:
    """Compact columnar form; parameter names and layout travel in the file."""
    np.savez_compressed(
        path, draws=chains.draws, param_names=np.array(chains.param_names),
        n_warmup=chains.n_warmup, seed=chains.seed,
        accept_stats=chains.accept_stats, divergences=chains.divergences,
    )


def read_draws_npz(path) -> ChainSet:
    with np.load(path, allow_pickle=False) as z:
        if not z["draws"].size:
            raise ValidationError(f"{path}: no draws")
        return ChainSet(
            draws=z["draws"], param_names=[str(n) for n in z["param_names"]],
            n_warmup=int(z["n_warmup"]), n_retained=z["draws"].shape[1],
            seed=int(z["seed"]), accept_stats=z["accept_stats"],
            divergences=z["divergences"],
        )


def write_summary_csv(path, summary) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter", "mean", "sd", "q2.5", "median", "q97.5", "psrf"])
        for name, *vals in summary.rows():
            w.writerow([name] + [fmt(v) for v in vals])


def write_surface_csv(path, grid) -> None:
    """Long-format surface (v_c, f, mean, sd), one row per grid node."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v_c", "f", "mean", "sd"])
        for i, v in enumerate(grid.v_axis):
            for j, f in enumerate(grid.f_axis):
                w.writerow([fmt(v), fmt(f), fmt(grid.mean[i, j]), fmt(grid.sd[i, j])])


def write_surface_matrix(path, grid) -> None:
    """Gnuplot-style matrix: first row f axis, first column v axis."""
    with open(path, "w") as fh:
        fh.write(" ".join(["0"] + [fmt(f) for f in grid.f_axis]) + "\n")
        for i, v in enumerate(grid.v_axis):
            fh.write(" ".join([fmt(v)] + [fmt(x) for x in grid.mean[i]]) + "\n")


# ---------------------------------------------------------------------------
# run configuration

# the keys the ``segmentation`` and ``sampler`` sections of a run config may
# set, with the values used for the keys they leave out
SECTION_DEFAULTS = {
    "segmentation": {"penalty": None, "min_seg_len": 20, "threshold": 50.0,
                     "length_per_sample": 1.0},
    "sampler": {"chains": 4, "warmup": 1000, "samples": 1000,
                "max_tree_depth": 10, "target_accept": 0.8},
}


def _number(v, kind=(int, float)) -> bool:
    """Whether ``v`` is a finite int (or float); a bool is neither."""
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) < math.inf


# what each key of those sections must hold
SECTION_RULES = {
    "penalty": (lambda v: v is None or _number(v) and v >= 0, "null or a finite number >= 0"),
    "min_seg_len": (lambda v: _number(v, int) and v >= 2, "an integer >= 2"),
    "threshold": (_number, "a finite number"),
    "length_per_sample": (lambda v: _number(v) and v > 0, "a finite number > 0"),
    "chains": (lambda v: _number(v, int) and v >= 2, "an integer >= 2"),
    "warmup": (lambda v: _number(v, int) and v >= 0, "an integer >= 0"),
    "samples": (lambda v: _number(v, int) and v >= 1, "an integer >= 1"),
    "max_tree_depth": (lambda v: _number(v, int) and v >= 1, "an integer >= 1"),
    "target_accept": (lambda v: _number(v) and 0 < v < 1, "a number between 0 and 1"),
}


def _check_keys(mapping, allowed, what: str) -> None:
    if not isinstance(mapping, dict):
        raise ValidationError(f"{what} must be a mapping")
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ValidationError(f"unknown {what} keys {unknown}")


def check_section(name: str, values: dict) -> dict:
    """``values`` of a ``segmentation`` or ``sampler`` section, from a run config
    or the command line, once each key and value is checked."""
    _check_keys(values, SECTION_DEFAULTS[name], name)
    for key, val in values.items():
        test, what = SECTION_RULES[key]
        if not test(val):
            raise ValidationError(f"{name} {key} must be {what}, got {val!r}")
    return values


def check_seed(seed):
    """``seed``, once checked: an integer >= 0 (a bool is not one)."""
    if not (_number(seed, int) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def load_yaml(path):
    """The YAML document in ``path``; a syntax error raises ValidationError."""
    try:
        return yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: invalid YAML: {exc}") from exc


def parse_priors(raw) -> PriorConfig:
    """Prior scales from a mapping (None for the defaults); unknown keys and
    scales that are not finite positive numbers raise ValidationError."""
    raw = {} if raw is None else raw
    _check_keys(raw, {f.name for f in fields(PriorConfig)}, "prior")
    for key, val in raw.items():
        if not (_number(val) and val > 0):
            raise ValidationError(f"prior scale {key} must be a finite positive number")
    return PriorConfig(**raw)


@dataclass
class RunConfig:
    """Validated pipeline settings from a YAML key-value file."""

    seed: int
    output_dir: str
    controls: str
    traces_dir: str | None = None
    series_dir: str | None = None
    channels: list[str] = field(default_factory=lambda: list(CHANNELS))
    segmentation: dict = field(default_factory=dict)
    priors: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    grid: list | None = None
    fit_tool_life: bool = True

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw = load_yaml(path)
        _check_keys(raw, {f.name for f in fields(cls)}, "config")
        missing = [f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING and f.name not in raw]
        if missing:
            raise ValidationError(f"{path}: missing config keys {missing}")
        cfg = cls(**raw)
        cfg.validate(base=Path(path).parent)
        return cfg

    def override(self, values: dict) -> None:
        """Set ``values`` and check the result as a file is checked; relative
        paths given here resolve against the working directory."""
        _check_keys(values, {f.name for f in fields(self)}, "config")
        for key, val in values.items():
            setattr(self, key, val)
        self.validate()

    def validate(self, base: Path | None = None) -> None:
        """Resolve relative paths against ``base`` (the working directory if
        omitted), then check every value. Run again, it changes nothing."""
        if self.seed is None:
            raise ValidationError("seed is required (no wall-clock default)")
        check_seed(self.seed)
        base = base or Path(".")
        for attr in ("controls", "output_dir", "traces_dir", "series_dir"):
            val = getattr(self, attr)
            if val is None and attr in ("traces_dir", "series_dir"):
                continue
            if not isinstance(val, str):
                raise ValidationError(f"{attr} must be a path, got {val!r}")
            setattr(self, attr, str(base / val))
        if not Path(self.controls).exists():
            raise ValidationError(f"controls file not found: {self.controls}")
        for attr in ("traces_dir", "series_dir"):
            val = getattr(self, attr)
            if val is not None and not Path(val).is_dir():
                raise ValidationError(f"{attr} not found: {val}")
        if self.traces_dir is None and self.series_dir is None:
            raise ValidationError("one of traces_dir or series_dir is required")
        if not (isinstance(self.channels, list) and all(c in CHANNELS for c in self.channels)):
            raise ValidationError(f"channels must be a list of {list(CHANNELS)}, "
                                  f"got {self.channels!r}")
        if self.grid is not None and not (isinstance(self.grid, list) and len(self.grid) == 6
                                          and all(map(_number, self.grid))):
            raise ValidationError("grid must be [v_min, v_max, nv, f_min, f_max, nf]")
        for name in SECTION_DEFAULTS:
            check_section(name, getattr(self, name))
        parse_priors(self.priors)

    def settings(self, section: str) -> dict:
        """The ``segmentation`` or ``sampler`` section over its defaults."""
        return {**SECTION_DEFAULTS[section], **getattr(self, section)}

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
