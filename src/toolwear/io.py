"""File formats, run configuration, and dataset loading.

Every CSV file is written by one table writer in ``csv``'s default dialect
(CRLF line ends, RFC 4180), each number as the ``repr`` of its float
(shortest round-trip decimal): ``read(write(x)) == x`` exactly, and re-runs
are byte-identical.

Every table is read through one header check and one row walker. Traces,
series, and draws with their sidecars parse their bodies with ``np.loadtxt``;
only when that fails do they walk the rows with ``float()``, which accepts a
few more spellings (``1_000``, quoted cells, whitespace-only rows) or finds
the row that fails. Controls and Taylor tables, whose life cells may be blank,
walk their rows from the start. Inputs are UTF-8, a leading byte-order mark
skipped; blank rows are skipped. Each refusal names ``file:line``: a bad byte
in ``_open_text``, a bad header in ``_header``, an unparsable row in ``_rows``,
and a value that breaks a rule in ``_check_rows`` or the controls or Taylor row loop.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from .errors import HYPERPARAMETERS, ValidationError
from .sampler import ChainSet
from .segmentation import CHANNELS

if TYPE_CHECKING:  # the model imports scipy.linalg; only the functions that build one load it
    from .model import ExperimentRecord, PriorConfig


def fmt(x) -> str:
    """Full-precision decimal representation of a float."""
    return repr(float(x))


def _floats(a):
    """``a`` as nested lists of Python floats, which ``csv`` writes as :func:`fmt` does."""
    return np.asarray(a, dtype=float).tolist()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_rows(path, header, rows) -> None:
    """The table writer: the ``header`` cells, then each row of ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _names(header) -> list[str]:
    return [c.strip() for c in header]


@contextmanager
def _open_text(path):
    """``path`` read as UTF-8, a BOM skipped; a bad byte raises ValidationError naming its line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValidationError(f"{path}:{line}: not UTF-8 text") from exc
        raise


# ---------------------------------------------------------------------------
# design, controls and series

def write_design(path, initial, reserve) -> None:
    """Design table: index,v_c,f,priority, the initial block then the reserve."""
    _write_rows(path, ["index", "v_c", "f", "priority"],
                ([p.index, fmt(p.v_c), fmt(p.f), tag]
                 for block, tag in ((initial, "initial"), (reserve, "reserve")) for p in block))


def write_controls(path, records) -> None:
    """Controls table: id,v_c,f,tool_life, the life blank where a record has none."""
    _write_rows(path, ["id", "v_c", "f", "tool_life"],
                ([r.id, fmt(r.v_c), fmt(r.f), "" if r.tool_life is None else fmt(r.tool_life)]
                 for r in records))


def load_controls(path) -> list[ExperimentRecord]:
    """Controls table: CSV with header id,v_c,f[,tool_life] and at least one experiment."""
    from .model import ExperimentRecord
    header = _header(path, lambda h: _names(h[:3]) == ["id", "v_c", "f"],
                     "header id,v_c,f[,tool_life]")
    has_life = _names(header[3:4]) == ["tool_life"]
    records, seen = [], set()
    for lineno, (rid, v_c, f, life) in _rows(path, lambda row: (
            int(row[0]), float(row[1]), float(row[2]),
            float(row[3]) if has_life and len(row) > 3 and row[3].strip() else None)):
        if rid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate experiment id {rid}")
        if not (0 < v_c < math.inf and 0 < f < math.inf):
            raise ValidationError(f"{path}:{lineno}: settings must be finite and positive")
        if life is not None and not 0 < life < math.inf:
            raise ValidationError(f"{path}:{lineno}: tool_life must be finite and positive")
        seen.add(rid)
        records.append(ExperimentRecord(id=rid, v_c=v_c, f=f, tool_life=life))
    if not records:
        raise ValidationError(f"{path}: controls table is empty")
    return records


def _header(path, ok, expected: str) -> list[str]:
    """The header cells of ``path``, once ``ok(cells)``; else ``file:1: expected ...``."""
    with _open_text(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
    if not ok(header):
        raise ValidationError(f"{path}:1: expected {expected}")
    return header


def _rows(path, parse):
    """(file line, ``parse(cells)``) of each body row with a non-blank cell; a
    ValueError or IndexError of ``parse`` is refused naming its line."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if any(c.strip() for c in row):
                try:
                    value = parse(row)
                except (ValueError, IndexError) as exc:
                    raise ValidationError(f"{path}:{lineno}: malformed row {row!r}") from exc
                yield lineno, value


def _line_of(path, index: int) -> int:
    """File line of the ``index``-th data row."""
    return next(islice(_rows(path, len), index, None))[0]


def _read_numeric(path, ok, expected: str, usecols=None):
    """Numeric CSV body under a header ``ok`` accepts -> (header cells, 2-D float array):
    the columns ``usecols`` indexes, in that order, or else the first
    ``len(header)`` of every cell parsed. A row needs a cell under each column."""
    header = _header(path, ok, expected)
    ncols = len(header) if usecols is None else len(usecols)
    with _open_text(path) as fh:
        fh.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
            except ValueError:
                values = None
    if values is not None and len(values) and values.shape[1] >= ncols:
        return header, values[:, :ncols]
    rows = [cells for _, cells in _rows(path, lambda row: [  # a short row raises IndexError
        float(row[j]) for j in usecols or range(max(len(row), ncols))][:ncols])]
    return header, np.array(rows, dtype=float).reshape(-1, ncols)


def _check_rows(path, *checks) -> None:
    """Refuse the first data row failing one of ``checks``, (ok per row, message) pairs."""
    bad = [(rows[0], j) for j, (ok, _) in enumerate(checks) if (rows := np.flatnonzero(~ok)).size]
    if bad:
        i, j = min(bad)  # the first row that fails, with the first message it fails
        raise ValidationError(f"{path}:{_line_of(path, i)}: {checks[j][1]}")


def load_series(path, record: ExperimentRecord | None = None):
    """Per-experiment series: CSV with header L,Ft,Ff,Fp, >= 2 rows and strictly increasing L.

    Returns (L, forces); when ``record`` is given the series is attached to it.
    """
    _, values = _read_numeric(path, lambda h: _names(h) == ["L", *CHANNELS], "header L,Ft,Ff,Fp")
    _check_rows(path, (np.isfinite(values).all(axis=1), "L and forces must be finite"))
    length = np.ascontiguousarray(values[:, 0])
    _check_rows(path, (length > np.concatenate(([-np.inf], length[:-1])),
                       "L must be strictly increasing"))
    if len(length) < 2:
        raise ValidationError(f"{path}: need >= 2 measurements")
    forces = {ch: np.ascontiguousarray(values[:, j]) for j, ch in enumerate(CHANNELS, start=1)}
    if record is not None:
        record.set_series(length, forces)
    return length, forces


def write_series(path, length, forces) -> None:
    columns = [length] + [forces[ch] for ch in CHANNELS]
    _write_rows(path, ["L", *CHANNELS], zip(*map(_floats, columns)))


def write_trace(path, trace) -> None:
    """Raw trace table; its forces become Python floats 4096 rows at a time, not all at once."""
    columns = [trace.forces[ch] for ch in CHANNELS]
    _write_rows(path, ["sample", *CHANNELS],
                (row for i in range(0, trace.n_samples, 4096)
                 for row in zip(range(i, i + 4096), *(_floats(c[i:i + 4096]) for c in columns))))


def load_trace(path):
    """Raw trace CSV (columns sample,Ft,Ff,Fp) -> forces dict; ``sample`` is not read."""
    _, values = _read_numeric(path, lambda h: _names(h) == ["sample", *CHANNELS],
                              "header sample,Ft,Ff,Fp", usecols=(1, 2, 3))
    _check_rows(path, (np.isfinite(values).all(axis=1), "forces must be finite"))
    return {ch: np.ascontiguousarray(values[:, j]) for j, ch in enumerate(CHANNELS)}


def write_segments(path, seg) -> None:
    """Segmentation report: segment_start,segment_end,mean,variance per segment."""
    _write_rows(path, ["segment_start", "segment_end", "mean", "variance"],
                ([lo, hi, fmt(mean), fmt(var)] for (lo, hi), mean, var
                 in zip(seg.segments(), seg.segment_means, seg.segment_vars)))


def write_changepoints(path, segmentations) -> None:
    """``run``'s report: id,segment_start,segment_mean for each segment of
    each (experiment id, segmentation) pair."""
    _write_rows(path, ["id", "segment_start", "segment_mean"],
                ([rid, start, fmt(mean)] for rid, seg in segmentations
                 for start, mean in zip([0, *seg.changepoints], seg.segment_means)))


def load_taylor(path):
    """(v_c, tool life) rows, shape (n, 2), of a CSV with columns v_c and life (or
    tool_life, when there is no life column), each finite and positive. A row whose
    life cell is blank is skipped, as the life GP skips a record without a tool life."""
    names = _names(_header(path, lambda h: "v_c" in _names(h) and (
        "life" in _names(h) or "tool_life" in _names(h)), "columns v_c and life (or tool_life)"))
    v_col, life_col = names.index("v_c"), names.index("life" if "life" in names else "tool_life")

    def parse(row):  # no pair where the life cell is blank
        blank = life_col < len(row) and not row[life_col].strip()
        return [] if blank else [float(row[v_col]), float(row[life_col])]

    values = []
    for lineno, pair in _rows(path, parse):
        if not all(0 < x < math.inf for x in pair):
            raise ValidationError(f"{path}:{lineno}: v_c and life must be finite and positive")
        values += pair
    return np.array(values, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# draws

def write_draws_csv(path, chains: ChainSet) -> None:
    """Draws table: chain,iteration and one column per parameter, chain by
    chain. The per-chain statistics go in a sidecar (:func:`write_chain_stats`);
    an older sidecar of ``path`` is removed, since it describes other draws."""
    chains_path(path).unlink(missing_ok=True)
    _write_rows(path, ["chain", "iteration", *chains.param_names],
                ([c, it, *row] for c in range(chains.n_chains)
                 for it, row in enumerate(_floats(chains.draws[c]))))


def read_draws_csv(path) -> ChainSet:
    """Draws in the row order :func:`write_draws_csv` writes: chain by chain
    from chain 0, each chain's iterations from 0, every chain as long as the
    first. A missing, repeated or reordered row, or a kernel hyperparameter
    that is not strictly positive, raises ValidationError naming its line, and
    a repeated parameter column one naming the column."""
    header, values = _read_numeric(path, lambda h: _names(h[:2]) == ["chain", "iteration"],
                                   "draws header chain,iteration,...")
    if not values[:, 2:].size:
        raise ValidationError(f"{path}: no draws")
    index = values[:, :2]
    _check_rows(path, ((np.isfinite(index) & (index >= 0) & (index == np.floor(index))).all(axis=1),
                       "chain and iteration must be non-negative integers"),
                (np.isfinite(values[:, 2:]).all(axis=1), "parameter values must be finite"))
    n_iter = int(np.argmax(index[:, 0] != index[0, 0])) or len(index)  # the first chain's rows
    row = np.arange(len(index))
    wrong = np.flatnonzero((index[:, 0] != row // n_iter) | (index[:, 1] != row % n_iter))
    if wrong.size:
        raise ValidationError(f"{path}:{_line_of(path, wrong[0])}: expected chain "
                              f"{wrong[0] // n_iter} iteration {wrong[0] % n_iter}; rows run "
                              "chain by chain, each chain's iterations from 0")
    if len(index) % n_iter:
        raise ValidationError(f"{path}:{_line_of(path, len(index) - 1)}: chain "
                              f"{len(index) // n_iter} ends short of the first chain's "
                              f"{n_iter} iterations")
    names = _names(header[2:])
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise ValidationError(f"{path}: parameter column {repeated[0]!r} repeated")
    _check_rows(path, *((values[:, 2 + j] > 0, f"{n} must be strictly positive")
                        for j, n in enumerate(names) if n in HYPERPARAMETERS))
    draws = np.ascontiguousarray(values[:, 2:]).reshape(-1, n_iter, len(names))
    return ChainSet(draws=draws, param_names=names, n_warmup=0, n_retained=n_iter, seed=0)


_CHAIN_STATS = ["chain", "step_size", "accept_stat", "divergences"]  # the sidecar's header


def chains_path(path) -> Path:
    """The sidecar of the draws file ``path``: ``draws_Ft.csv`` -> ``draws_Ft.chains.csv``."""
    return Path(path).with_suffix(".chains.csv")


def write_chain_stats(path, chains: ChainSet) -> None:
    """Sidecar table: chain,step_size,accept_stat,divergences, one row per chain."""
    _write_rows(path, _CHAIN_STATS, zip(range(chains.n_chains), _floats(chains.step_sizes),
                                        _floats(chains.accept_stats), chains.divergences.tolist()))


def read_draws(path) -> ChainSet:
    """Draws from the CSV file ``path`` with the per-chain statistics of its
    sidecar (:func:`chains_path`), which read as not recorded (None) where
    there is none. A fault in the sidecar raises ValidationError naming its line."""
    chains, side = read_draws_csv(path), chains_path(path)
    if not side.exists():
        return chains
    chain, step, accept, div = _read_numeric(side, lambda h: _names(h) == _CHAIN_STATS,
                                             f"header {','.join(_CHAIN_STATS)}")[1].T
    m, n, row = chains.n_chains, chains.n_retained, np.arange(len(chain))
    order = f"expected one row per chain of the draws, chains 0 to {m - 1} in order"
    _check_rows(side, ((chain == row) & (row < m), order),
                (np.isfinite(step) & (step > 0), "step_size must be finite and above 0"),
                ((accept >= 0) & (accept <= 1), "accept_stat must be between 0 and 1"),
                ((div >= 0) & (div <= n) & (div == np.floor(div)),
                 f"divergences must be an integer from 0 to {n}"))
    if len(row) < m:  # too few rows: named at the last one, or the header if there is none
        raise ValidationError(f"{side}:{_line_of(side, len(row) - 1) if len(row) else 1}: {order}")
    chains.step_sizes, chains.accept_stats, chains.divergences = step, accept, div.astype(int)
    return chains


def write_summary_csv(path, summary) -> None:
    _write_rows(path, ["parameter", "mean", "sd", "q2.5", "median", "q97.5", "psrf"],
                ([name, *_floats(vals)] for name, *vals in summary.rows()))


def write_surface_csv(path, grid) -> None:
    """Long-format surface (v_c, f, mean, sd), one row per grid node."""
    v, f = np.meshgrid(grid.v_axis, grid.f_axis, indexing="ij")
    _write_rows(path, ["v_c", "f", "mean", "sd"],
                zip(*(_floats(np.ravel(a)) for a in (v, f, grid.mean, grid.sd))))


def write_surface_matrix(path, grid) -> None:
    """Gnuplot-style matrix: first row f axis, first column v axis."""
    with open(path, "w") as fh:
        fh.write(" ".join(["0"] + [fmt(f) for f in grid.f_axis]) + "\n")
        for i, v in enumerate(grid.v_axis):
            fh.write(" ".join([fmt(v)] + [fmt(x) for x in grid.mean[i]]) + "\n")


# ---------------------------------------------------------------------------
# run configuration

def _number(v, kind=(int, float)) -> bool:
    """Whether ``v`` is a finite int (or float); a bool is neither."""
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) < math.inf


@dataclass(frozen=True)
class Setting:
    """A key of a run config's ``segmentation`` or ``sampler`` section and the
    option ``--<key>`` (``-`` for ``_``) of ``segment`` or ``fit``: the value a
    section that leaves it out gets, the option's type, the rule (value ->
    whether allowed), the rule as errors word it, and the option's help."""

    default: object
    type: type
    rule: object
    wording: str
    help: str


SETTINGS = {
    "segmentation": {
        "penalty": Setting(None, float, lambda v: v is None or _number(v) and v >= 0,
                           "null or a finite number >= 0", "split penalty (default: data-driven)"),
        "min_seg_len": Setting(20, int, lambda v: _number(v, int) and v >= 2, "an integer >= 2",
                               "minimum segment length in samples"),
        "threshold": Setting(50.0, float, _number, "a finite number",
                             "contact threshold on mean force (N)"),
        "length_per_sample": Setting(1.0, float, lambda v: _number(v) and v > 0,
                                     "a finite number > 0", "cutting length per sample (m)"),
    },
    "sampler": {
        "chains": Setting(4, int, lambda v: _number(v, int) and v >= 2, "an integer >= 2",
                          "number of chains"),
        "warmup": Setting(1000, int, lambda v: _number(v, int) and v >= 0, "an integer >= 0",
                          "warmup iterations per chain"),
        # the split-chain PSRF needs 4 draws per chain
        "samples": Setting(1000, int, lambda v: _number(v, int) and v >= 4, "an integer >= 4",
                           "retained draws per chain"),
        "max_tree_depth": Setting(10, int, lambda v: _number(v, int) and v >= 1,
                                  "an integer >= 1", "maximum NUTS tree depth"),
        "target_accept": Setting(0.8, float, lambda v: _number(v) and 0 < v < 1,
                                 "a number between 0 and 1",
                                 "acceptance rate the step size is adapted to"),
    },
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
    _check_keys(values, SETTINGS[name], name)
    for key, val in values.items():
        setting = SETTINGS[name][key]
        if not setting.rule(val):
            raise ValidationError(f"{name} {key} must be {setting.wording}, got {val!r}")
    return values


def check_seed(seed):
    """``seed``, once checked: an integer >= 0 (a bool is not one)."""
    if not (_number(seed, int) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def load_yaml(path):
    """The YAML document in ``path``; a syntax error raises ValidationError."""
    try:
        with _open_text(path) as fh:
            return yaml.safe_load(fh.read())
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: invalid YAML: {exc}") from exc


def parse_priors(raw) -> PriorConfig:
    """Prior scales from a mapping (None for the defaults); unknown keys and
    scales that are not finite positive numbers raise ValidationError."""
    from .model import PriorConfig
    raw = {} if raw is None else raw
    _check_keys(raw, {f.name for f in fields(PriorConfig)}, "prior")
    for key, val in raw.items():
        if not (_number(val) and val > 0):
            raise ValidationError(f"prior scale {key} must be a finite positive number")
    return PriorConfig(**raw)


_DIRS = ("traces_dir", "series_dir")  # one of them is required
_PATHS = ("controls", "output_dir", *_DIRS)


@dataclass
class RunConfig:
    """Validated pipeline settings from a YAML key-value file.

    The path settings keep the values the file gives, so :meth:`echo` does
    not depend on where the file is; :meth:`path` resolves them.
    """

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
    # not a setting: the directory relative paths are taken against, the file's
    base = Path(".")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw = load_yaml(path)
        _check_keys(raw, {f.name for f in fields(cls)}, "config")
        missing = [f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING and f.name not in raw]
        if missing:
            raise ValidationError(f"{path}: missing config keys {missing}")
        cfg = cls(**raw)
        cfg.base = Path(path).parent
        cfg.validate()
        return cfg

    def override(self, values: dict) -> None:
        """Set ``values`` and check the result as a file is checked; a relative
        path given here is taken against the working directory, and kept
        absolute."""
        _check_keys(values, {f.name for f in fields(self)}, "config")
        for key, val in values.items():
            if key in _PATHS and isinstance(val, str):
                val = str(Path(val).absolute())
            setattr(self, key, val)
        self.validate()

    def path(self, name: str) -> Path | None:
        """The path setting ``name``, resolved; None where it is unset."""
        val = getattr(self, name)
        return None if val is None else self.base / val

    def validate(self) -> None:
        """Check every value."""
        if self.seed is None:
            raise ValidationError("seed is required (no wall-clock default)")
        check_seed(self.seed)
        for attr in _PATHS:
            val = getattr(self, attr)
            if not (isinstance(val, str) or val is None and attr in _DIRS):
                raise ValidationError(f"{attr} must be a path, got {val!r}")
        if not self.path("controls").exists():
            raise ValidationError(f"controls file not found: {self.path('controls')}")
        for attr in _DIRS:
            if self.path(attr) is not None and not self.path(attr).is_dir():
                raise ValidationError(f"{attr} not found: {self.path(attr)}")
        if self.traces_dir is None and self.series_dir is None:
            raise ValidationError("one of traces_dir or series_dir is required")
        if not (isinstance(self.channels, list) and all(c in CHANNELS for c in self.channels)):
            raise ValidationError(f"channels must be a list of {list(CHANNELS)}, "
                                  f"got {self.channels!r}")
        if len(set(self.channels)) < len(self.channels):
            raise ValidationError(f"channels must not repeat, got {self.channels!r}")
        if self.grid is not None and not (isinstance(self.grid, list) and len(self.grid) == 6
                                          and all(map(_number, self.grid))):
            raise ValidationError("grid must be [v_min, v_max, nv, f_min, f_max, nf]")
        if self.grid is not None and not all(_number(n, int) and n >= 2 for n in self.grid[2::3]):
            raise ValidationError(f"grid resolutions nv and nf must be integers >= 2, "
                                  f"got {self.grid[2::3]!r}")
        if not isinstance(self.fit_tool_life, bool):
            raise ValidationError(f"fit_tool_life must be true or false, "
                                  f"got {self.fit_tool_life!r}")
        for name in SETTINGS:
            check_section(name, getattr(self, name))
        parse_priors(self.priors)

    def settings(self, section: str) -> dict:
        """The ``segmentation`` or ``sampler`` section over its defaults."""
        return {**{key: s.default for key, s in SETTINGS[section].items()},
                **getattr(self, section)}

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
