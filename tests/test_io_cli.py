"""Tests for file formats, run configuration, and the command-line interface."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toolwear
from toolwear import io as tio
from toolwear import pipeline, sampler
from toolwear.cli import build_parser, main
from toolwear.errors import HYPERPARAMETERS, InvalidDataError, SamplingError, ValidationError
from toolwear.model import ForceChannelModel, ToolLifeModel
from toolwear.sampler import ChainSet
from toolwear.simulate import simulate_dataset


def write(path, text):
    path.write_text(text)
    return str(path)


def make_chainset(rng, m=2, n=25, k=3):
    return ChainSet(
        draws=rng.normal(size=(m, n, k)),
        param_names=[f"p{i}" for i in range(k)],
        n_warmup=10, n_retained=n, seed=0,
        accept_stats=np.full(m, 0.85), divergences=np.zeros(m, dtype=int),
        step_sizes=np.full(m, 0.25),
    )


def write_draws_pair(path, chains):
    """The draws CSV at ``path`` and its per-chain sidecar, as ``fit`` writes them."""
    tio.write_draws_csv(path, chains)
    tio.write_chain_stats(tio.chains_path(path), chains)
    return str(path)


class TestControlsIO:
    def test_rows_with_tool_life(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "id,v_c,f,tool_life\n7,20,45,255\n10,58,22.5,10\n")
        records = tio.load_controls(path)
        assert [r.id for r in records] == [7, 10]
        assert records[0].v_c == 20.0 and records[0].f == 45.0
        assert records[0].tool_life == 255.0
        assert records[1].tool_life == 10.0

    def test_header_only_is_refused(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: controls table is empty")):
            tio.load_controls(path)

    def test_life_column_optional(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n1,40,35\n")
        assert tio.load_controls(path)[0].tool_life is None

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n1,40,35\n1,50,30\n")
        with pytest.raises(ValidationError):
            tio.load_controls(path)

    def test_nonpositive_setting_rejected_with_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n1,40,35\n2,-5,30\n")
        with pytest.raises(ValidationError, match="3"):
            tio.load_controls(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n1,40,35\n2,forty,30\n")
        with pytest.raises(ValidationError, match="3"):
            tio.load_controls(path)


class TestSeriesIO:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        length = np.sort(rng.uniform(0.1, 100.0, size=40))
        forces = {ch: rng.normal(200.0, 30.0, size=40) for ch in ("Ft", "Ff", "Fp")}
        path = tmp_path / "s.csv"
        tio.write_series(path, length, forces)
        l2, f2 = tio.load_series(path)
        assert np.array_equal(l2, length)
        for ch in forces:
            assert np.array_equal(f2[ch], forces[ch])

    def test_two_row_minimum_accepted(self, tmp_path):
        path = write(tmp_path / "s.csv", "L,Ft,Ff,Fp\n1.0,5,3,2\n2.0,6,4,3\n")
        length, forces = tio.load_series(path)
        assert len(length) == 2

    def test_repeated_length_names_row(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "L,Ft,Ff,Fp\n1.0,5,3,2\n1.0,6,4,3\n")
        with pytest.raises(ValidationError, match="3"):
            tio.load_series(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_length_names_row(self, tmp_path, cell):
        path = write(tmp_path / "s.csv", f"L,Ft,Ff,Fp\n1.0,5,3,2\n{cell},6,4,3\n3.0,6,4,3\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}:3: L and forces must be"):
            tio.load_series(path)

    def test_trace_roundtrip(self, tmp_path):
        from toolwear.segmentation import RawTrace
        rng = np.random.default_rng(5)
        trace = RawTrace(
            forces={ch: rng.normal(size=30) for ch in ("Ft", "Ff", "Fp")},
            length_per_sample=0.5,
        )
        path = tmp_path / "t.csv"
        tio.write_trace(path, trace)
        forces = tio.load_trace(path)
        for ch in trace.forces:
            assert np.array_equal(forces[ch], trace.forces[ch])


class TestDrawsIO:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        chains = make_chainset(rng)
        path = tmp_path / "d.csv"
        tio.write_draws_csv(path, chains)
        back = tio.read_draws_csv(path)
        assert np.array_equal(back.draws, chains.draws)
        assert back.param_names == chains.param_names

    def test_csv_pair_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        chains = make_chainset(rng, m=3, n=17, k=5)
        chains.divergences, chains.accept_stats = np.array([0, 4, 17]), np.array([0.0, 0.6, 1.0])
        write_draws_pair(tmp_path / "d.csv", chains)
        assert tio.chains_path(tmp_path / "d.csv") == tmp_path / "d.chains.csv"
        back = tio.read_draws(tmp_path / "d.csv")
        assert np.array_equal(back.draws, chains.draws)
        assert back.param_names == chains.param_names
        for stat in ("step_sizes", "accept_stats", "divergences"):
            assert np.array_equal(getattr(back, stat), getattr(chains, stat)), stat
        assert back.divergences.dtype.kind == "i"

    def test_header_cells_may_carry_spaces(self, tmp_path):
        """The draws header is read as every other header is, each cell stripped."""
        path = write(tmp_path / "d.csv", "chain, iteration , a,b \n0,0,1.5,2.5\n0,1,3.5,4.5\n")
        back = tio.read_draws_csv(path)
        assert back.param_names == ["a", "b"]
        assert np.array_equal(back.draws, [[[1.5, 2.5], [3.5, 4.5]]])

    def test_fmt_roundtrips_floats(self):
        rng = np.random.default_rng(11)
        for x in rng.normal(scale=1e6, size=50):
            assert float(tio.fmt(x)) == x
        assert float(tio.fmt(math.pi)) == math.pi


def crlf_table(path) -> bool:
    """Whether every line of ``path`` ends with CRLF, the last one included."""
    data = path.read_bytes()
    return data.endswith(b"\r\n") and b"\n" not in data.replace(b"\r\n", b"")


class TestTables:
    """Every CSV file the package writes is one format, read back by its reader."""

    def test_every_csv_file_ends_its_lines_with_crlf(self, tmp_path):
        data = tmp_path / "data"
        assert main(["simulate", "--output-dir", str(data), "--raw", "--n-experiments", "4",
                     "--n-points", "60", "--seed", "2"]) == 0
        assert main(["design", "--v-min", "20", "--v-max", "60", "--f-min", "20",
                     "--f-max", "50", "--n-initial", "3", "--n-reserve", "2",
                     "-o", str(tmp_path / "design.csv")]) == 0
        assert main(["segment", "--trace", str(data / "trace_1.csv"),
                     "--series-out", str(tmp_path / "series.csv"),
                     "--report-out", str(tmp_path / "report.csv")]) == 0
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5", "output_dir: out", "controls: data/controls.csv", "traces_dir: data",
            "channels: [Ft]", "sampler: {chains: 2, warmup: 30, samples: 20}",
        ]))
        assert main(["run", "--config", cfg]) in (0, 2)
        written = sorted(tmp_path.rglob("*.csv"))
        names = {p.name for p in written}
        assert {"design.csv", "report.csv", "controls.csv", "trace_1.csv", "series_1.csv",
                "changepoints.csv", "draws_Ft.csv", "draws_Ft.chains.csv", "summary_life.csv",
                "surface_Ft.csv"} <= names
        assert [p for p in written if not crlf_table(p)] == []

    def test_controls_round_trip(self, tmp_path):
        records, _ = simulate_dataset(n_experiments=3, n_points=5, seed=1)
        records[1].tool_life = None  # written blank, read back as no life
        tio.write_controls(tmp_path / "c.csv", records)
        back = tio.load_controls(tmp_path / "c.csv")
        assert [(r.id, r.v_c, r.f, r.tool_life) for r in back] == \
            [(r.id, r.v_c, r.f, r.tool_life) for r in records]

    def test_csv_draws_record_no_sampler_statistics(self, tmp_path):
        """The draws CSV alone records no statistics: without its sidecar they read
        as not recorded, and ``read_draws_csv`` never reads the sidecar."""
        chains = make_chainset(np.random.default_rng(2))
        tio.write_draws_csv(tmp_path / "d.csv", chains)
        assert not tio.chains_path(tmp_path / "d.csv").exists()
        stats = ("step_sizes", "accept_stats", "divergences")
        back = tio.read_draws(tmp_path / "d.csv")
        assert [getattr(back, k) for k in stats] == [None] * 3
        write_draws_pair(tmp_path / "d.csv", chains)
        again = tio.read_draws_csv(tmp_path / "d.csv")
        assert [getattr(again, k) for k in stats] == [None] * 3
        assert np.array_equal(again.draws, back.draws)

    @pytest.mark.parametrize("kind", ["controls", "series", "trace", "draws", "taylor"])
    def test_byte_order_mark_reads_like_the_plain_file(self, tmp_path, kind):
        """A copy of a written file that starts with a UTF-8 byte-order mark, as
        spreadsheet "CSV UTF-8" exports do, reads back equal to the plain file."""
        records, _ = simulate_dataset(n_experiments=3, n_points=5, seed=1)
        rng = np.random.default_rng(3)
        plain = tmp_path / "plain" / "f.csv"
        plain.parent.mkdir()
        if kind == "controls":
            tio.write_controls(plain, records)
        elif kind == "taylor":  # v_c first, as the mark would hide it
            with open(plain, "w", newline="") as fh:
                csv.writer(fh).writerows([("v_c", "life"), *((r.v_c, r.tool_life)
                                                             for r in records)])
        elif kind == "series":
            tio.write_series(plain, records[0].length, records[0].forces)
        elif kind == "trace":
            from toolwear.segmentation import RawTrace
            tio.write_trace(plain, RawTrace(forces={ch: rng.normal(size=30)
                                                    for ch in ("Ft", "Ff", "Fp")}))
        else:
            write_draws_pair(plain, make_chainset(rng))
        marked = tmp_path / "marked"
        marked.mkdir()
        for path in plain.parent.iterdir():
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        read = {"controls": tio.load_controls, "series": tio.load_series,
                "trace": tio.load_trace, "draws": tio.read_draws, "taylor": tio.load_taylor}[kind]

        def flat(x):  # nested values as lists, compared in one assert
            x = vars(x) if hasattr(x, "__dict__") else x
            x = list(x.values()) if isinstance(x, dict) else x
            return [flat(v) for v in x] if isinstance(x, (tuple, list)) else np.asarray(x).tolist()

        assert flat(read(marked / "f.csv")) == flat(read(plain))


# finite floats, with the awkward ones always in play
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                     1.7976931348623157e308, -1.5e308, 1e-308]),
)
READERS = {  # kind -> (reader, header, cells of row i before its 3 values, parsed columns)
    "trace": (tio.load_trace, "sample,Ft,Ff,Fp", lambda i: [str(i)], (1, 2, 3)),
    "series": (tio.load_series, "L,Ft,Ff,Fp", lambda i: [repr(float(i + 1))], (0, 1, 2, 3)),
    "draws": (tio.read_draws_csv, "chain,iteration,a,b,c", lambda i: ["0", str(i)],
              (0, 1, 2, 3, 4)),
}
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def parsed(kind, result):
    """The reader's output as one (rows, columns) array."""
    if kind == "trace":
        return np.column_stack([result[ch] for ch in ("Ft", "Ff", "Fp")])
    if kind == "series":
        return np.column_stack([result[0], *(result[1][ch] for ch in ("Ft", "Ff", "Fp"))])
    index = np.indices(result.draws.shape[:2]).reshape(2, -1).T
    return np.column_stack([index, result.draws.reshape(-1, result.draws.shape[2])])


def reference(path, usecols):
    """The row-by-row parse: ``csv`` and ``float()``, blank rows skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(row[j]) for j in usecols] for row in reader
                         if any(c.strip() for c in row)])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNumericReader:
    """Traces, series and draws share one reader; it must agree with a
    row-by-row parse bit for bit, and name the file line of any bad row."""

    @PROPERTY
    @given(st.integers(1, 3), st.integers(2, 12), st.data())
    def test_writers_round_trip_bit_for_bit(self, tmp_path, m, n, data):
        from toolwear.segmentation import RawTrace
        cells = st.lists(FINITE, min_size=3 * n, max_size=3 * n)
        forces = dict(zip(("Ft", "Ff", "Fp"), np.array(data.draw(cells)).reshape(3, n)))
        tio.write_trace(tmp_path / "t.csv", RawTrace(forces=forces))
        back = tio.load_trace(tmp_path / "t.csv")
        assert all(same_bits(back[ch], forces[ch]) for ch in forces)
        assert all(v.flags.c_contiguous for v in back.values())  # BLAS paths see no strides

        length = np.sort(data.draw(st.lists(FINITE, min_size=n, max_size=n, unique=True)))
        tio.write_series(tmp_path / "s.csv", length, forces)
        l2, f2 = tio.load_series(tmp_path / "s.csv")
        assert same_bits(l2, length) and all(same_bits(f2[ch], forces[ch]) for ch in forces)
        assert all(v.flags.c_contiguous for v in (l2, *f2.values()))

        draws = np.array(data.draw(st.lists(FINITE, min_size=m * n * 3, max_size=m * n * 3)))
        chains = ChainSet(draws=draws.reshape(m, n, 3), param_names=["a", "b", "c"],
                          n_warmup=0, n_retained=n, seed=0, accept_stats=np.zeros(m),
                          divergences=np.zeros(m, dtype=int))
        tio.write_draws_csv(tmp_path / "d.csv", chains)
        back = tio.read_draws_csv(tmp_path / "d.csv")
        assert same_bits(back.draws, chains.draws) and back.param_names == ["a", "b", "c"]
        assert back.draws.flags.c_contiguous

    @PROPERTY
    @given(st.sampled_from(sorted(READERS)), st.integers(1, 8), st.data())
    def test_bad_cell_names_its_file_line(self, tmp_path, kind, n, data):
        reader, header, lead, cols = READERS[kind]
        rows = [",".join(lead(i) + ["1.5"] * 3) for i in range(n)]
        bad = data.draw(st.integers(0, n - 1))
        cells = rows[bad].split(",")
        cells[data.draw(st.sampled_from(cols))] = data.draw(
            st.sampled_from(["x", "1.0.0", "", "1e", "--1", "0x1p3", "1;5", "nan?"]))
        rows[bad] = ",".join(cells)
        lines, target = [header], None
        for i, row in enumerate(rows):
            lines += data.draw(st.lists(st.sampled_from(["", "  ", "\t", " , "]), max_size=2))
            lines.append(row)
            if i == bad:
                target = len(lines)
        path = write(tmp_path / f"{kind}.csv", "\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}:{target}: malformed"):
            reader(path)

    @PROPERTY
    @given(st.sampled_from(sorted(READERS)), st.integers(1, 8), st.data())
    def test_loose_spellings_match_row_by_row_parse(self, tmp_path, kind, n, data):
        reader, header, lead, cols = READERS[kind]
        cell = st.one_of(FINITE.map(repr), FINITE.map(lambda v: f" {v!r} "),
                         st.integers(-10 ** 7, 10 ** 7).map(lambda i: f"{i:_d}"))
        extra = st.lists(st.sampled_from(["", "x", "9", " "]), max_size=2)
        lines = [header]
        for i in range(n):
            lines += data.draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=2))
            length = 1000 * (i + 1)
            row = ([data.draw(st.sampled_from([repr(float(length)), f" {length:_d} "]))]
                   if kind == "series" else lead(i))
            row += [data.draw(cell) for _ in range(3)]
            if kind == "trace":
                row += data.draw(extra)
            lines.append(",".join(row))
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        path = tmp_path / f"{kind}.csv"
        path.write_bytes((eol.join(lines) + eol).encode())
        assert same_bits(parsed(kind, reader(path)), reference(path, cols))

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("cell", ["1.5#", "#1.5", "1.5 # note"])
    def test_comment_mark_is_a_bad_cell(self, tmp_path, kind, cell):
        reader, header, lead, _ = READERS[kind]
        rows = [lead(i) + ["2.5"] * 3 for i in range(3)]
        rows[1][-1] = cell
        path = write(tmp_path / "f.csv", "\n".join([header, *map(",".join, rows)]) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}:3: malformed row"):
            reader(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("column", [-3, -1])
    def test_non_finite_value_names_its_file_line(self, tmp_path, kind, cell, column):
        """A value that parses but is not finite is refused by every numeric
        reader, naming its file line, after blank rows as well."""
        reader, header, lead, _ = READERS[kind]
        rows = [lead(i) + ["2.5"] * 3 for i in range(3)]
        rows[1][column] = cell
        path = write(tmp_path / "f.csv", "\n".join([header, "", *map(",".join, rows)]) + "\n")
        what = f"^{re.escape(path)}:4: [A-Za-z ]+ must be finite$"
        with pytest.raises(ValidationError, match=what):
            reader(path)


@PROPERTY
@given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 4), st.data())
def test_draws_round_trip_what_each_format_records(tmp_path, m, n, k, data):
    """The draws CSV with its sidecar gives back the draws, names and every
    per-chain statistic; the draws CSV alone gives back the draws and names and
    records no statistics."""
    def floats(size, values=FINITE):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}(\[[1-9][0-9]?\])?", fullmatch=True)
    names = data.draw(st.lists(name, min_size=k, max_size=k, unique=True))
    chains = ChainSet(
        draws=floats(m * n * k).reshape(m, n, k), param_names=names,
        n_warmup=data.draw(st.integers(0, 10 ** 6)), n_retained=n,
        seed=data.draw(st.integers(0, 2 ** 32 - 1)),
        accept_stats=floats(m, st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0, 5e-324]))),
        divergences=np.array(data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))),
        step_sizes=floats(m, st.floats(0, exclude_min=True, allow_infinity=False)),
    )
    write_draws_pair(tmp_path / "d.csv", chains)
    back = tio.read_draws(tmp_path / "d.csv")
    assert same_bits(back.draws, chains.draws) and back.param_names == names
    assert back.n_retained == n
    for stat in ("accept_stats", "divergences", "step_sizes"):
        assert same_bits(getattr(back, stat), getattr(chains, stat)), stat

    tio.chains_path(tmp_path / "d.csv").unlink()
    back = tio.read_draws(tmp_path / "d.csv")
    assert same_bits(back.draws, chains.draws) and back.param_names == names
    assert back.accept_stats is None and back.divergences is None and back.step_sizes is None


class TestRunConfig:
    def good_config(self, tmp_path):
        (tmp_path / "data").mkdir()
        write(tmp_path / "data" / "controls.csv", "id,v_c,f\n1,40,35\n")
        write(tmp_path / "data" / "series_1.csv", "L,Ft,Ff,Fp\n1,5,3,2\n2,6,4,3\n")
        return write(tmp_path / "run.yaml", "\n".join([
            "seed: 3",
            "output_dir: out",
            "controls: data/controls.csv",
            "series_dir: data",
            "channels: [Ft]",
        ]) + "\n")

    def test_valid_config_loads(self, tmp_path):
        cfg = tio.RunConfig.from_file(self.good_config(tmp_path))
        assert cfg.seed == 3
        assert cfg.channels == ["Ft"]

    def test_missing_controls_fails_fast(self, tmp_path):
        path = write(tmp_path / "run.yaml", "\n".join([
            "seed: 3", "output_dir: out", "controls: nowhere.csv",
            "series_dir: .",
        ]))
        with pytest.raises(ValidationError):
            tio.RunConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.good_config(tmp_path)
        with open(path, "a") as fh:
            fh.write("mystery_knob: 5\n")
        with pytest.raises(ValidationError, match="mystery_knob"):
            tio.RunConfig.from_file(path)

    def test_seed_required(self, tmp_path):
        (tmp_path / "d").mkdir()
        write(tmp_path / "d" / "controls.csv", "id,v_c,f\n1,40,35\n")
        path = write(tmp_path / "run.yaml", "\n".join([
            "seed: null", "output_dir: out", "controls: d/controls.csv",
            "series_dir: d",
        ]))
        with pytest.raises(ValidationError, match="seed"):
            tio.RunConfig.from_file(path)

    def test_echo_keeps_paths_as_given(self, tmp_path, monkeypatch):
        """Paths from the file echo as written; ``path`` resolves them against its
        directory. A relative override is taken against the working directory."""
        cfg = tio.RunConfig.from_file(self.good_config(tmp_path))
        assert cfg.echo()["controls"] == "data/controls.csv"
        assert cfg.path("series_dir") == tmp_path / "data" and cfg.path("traces_dir") is None
        controls = str(tmp_path / "data" / "controls.csv")
        monkeypatch.chdir(tmp_path / "data")
        cfg.override({"controls": controls, "output_dir": "elsewhere"})
        assert cfg.echo()["controls"] == controls
        assert cfg.path("output_dir") == tmp_path / "data" / "elsewhere"

    def test_bad_prior_scale_rejected(self, tmp_path):
        path = self.good_config(tmp_path)
        with open(path, "a") as fh:
            fh.write("priors: {eta_sq_scale: -1}\n")
        with pytest.raises(ValidationError):
            tio.RunConfig.from_file(path)


class TestCli:
    def test_design_csv(self, tmp_path):
        out = tmp_path / "design.csv"
        code = main(["design", "--v-min", "20", "--v-max", "60",
                     "--f-min", "20", "--f-max", "50",
                     "--n-initial", "3", "--n-reserve", "2", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,v_c,f,priority"
        assert len(lines) == 6
        assert sum(ln.endswith("initial") for ln in lines[1:]) == 3
        assert sum(ln.endswith("reserve") for ln in lines[1:]) == 2

    def test_design_bytes_are_pinned(self, tmp_path):
        """The 21 + 5 design of the benchmark, byte for byte: a change to the
        Sobol points or to the table format shows here."""
        out = tmp_path / "design.csv"
        assert main(["design", "--v-min", "20", "--v-max", "60", "--f-min", "20", "--f-max",
                     "50", "--n-initial", "21", "--n-reserve", "5", "-o", str(out)]) == 0
        assert tio.sha256_file(out) == \
            "df25a047b5bf46fe2e39ccc28f3f353be571b54c451f958eba445e9c6e783bb0"

    def test_design_rejects_bad_bounds(self, capsys):
        code = main(["design", "--v-min", "60", "--v-max", "20",
                     "--f-min", "20", "--f-max", "50", "--n-initial", "3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_segment_roundtrip(self, tmp_path):
        x = np.concatenate([np.full(60, 200.0), np.zeros(60), np.full(60, 210.0)])
        lines = ["sample,Ft,Ff,Fp"]
        lines += [f"{i},{v},{v / 2},{v / 4}" for i, v in enumerate(x)]
        trace = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        series = tmp_path / "s.csv"
        report = tmp_path / "cp.csv"
        code = main(["segment", "--trace", trace, "--penalty", "1.0",
                     "--series-out", str(series), "--report-out", str(report)])
        assert code == 0
        length, forces = tio.load_series(series)
        assert len(length) == 120  # the 60-sample gap is dropped
        assert report.read_text().startswith("segment_start")

    def test_simulate_fit_diagnose_predict(self, tmp_path):
        data = tmp_path / "data"
        code = main(["simulate", "--output-dir", str(data),
                     "--n-experiments", "5", "--n-points", "30", "--seed", "2"])
        assert code == 0
        assert (data / "controls.csv").exists()
        assert (data / "series_1.csv").exists()
        assert json.loads((data / "truth.json").read_text())["seed"] == 2

        draws = tmp_path / "draws.csv"
        summary = tmp_path / "summary.csv"
        code = main(["fit", "--controls", str(data / "controls.csv"),
                     "--series-dir", str(data), "--channel", "Ft",
                     "--chains", "2", "--warmup", "250", "--samples", "150",
                     "--seed", "4", "--draws-out", str(draws),
                     "--summary-out", str(summary)])
        assert code in (0, 2)  # short chains may flag marginal PSRF
        assert draws.exists() and summary.exists()

        code = main(["diagnose", "--draws", str(draws),
                     "--threshold", "1.5", "--summary-out", str(tmp_path / "diagnosed.csv")])
        assert code == 0
        assert (tmp_path / "diagnosed.csv").read_bytes() == summary.read_bytes()
        code = main(["diagnose", "--draws", str(draws),
                     "--threshold", "1.0000001"])
        assert code == 2

        surf = tmp_path / "surface.csv"
        matrix = tmp_path / "surface.mat"
        code = main(["predict", "--draws", str(draws),
                     "--controls", str(data / "controls.csv"),
                     "--channel", "Ft", "-o", str(surf), "--matrix-out", str(matrix)])
        assert code == 0
        assert surf.read_text().startswith("v_c,f,mean,sd")
        assert len(surf.read_text().strip().splitlines()) == 401

        # the matrix: a row of 0 and the f axis, then per v_c value that value and the means
        text = matrix.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text
        rows = np.array([line.split() for line in text.decode().splitlines()], dtype=float)
        v, f, mean = np.loadtxt(surf, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
        assert rows.shape == (21, 21) and rows[0, 0] == 0
        assert np.array_equal(rows[0, 1:], f[:20]) and np.array_equal(rows[1:, 0], v[::20])
        assert np.array_equal(rows[1:, 1:].ravel(), mean)

    @staticmethod
    def draws_file(path, names, rng):
        """Draws CSV with the given columns, all values positive."""
        tio.write_draws_csv(path, ChainSet(
            draws=np.exp(0.1 * rng.normal(size=(2, 10, len(names)))), param_names=names,
            n_warmup=0, n_retained=10, seed=0, accept_stats=np.ones(2),
            divergences=np.zeros(2, dtype=int)))
        return str(path)

    def mismatch_inputs(self, tmp_path):
        """Controls of 6 and of 4 experiments, force draws for 6, life draws."""
        rng = np.random.default_rng(13)
        k = 6
        force = ([f"{p}[{i + 1}]" for p in ("alpha", "beta", "sigma") for i in range(k)]
                 + ["mu_alpha", "sigma_alpha", "mu_beta", "eta_sq", "rho1", "rho2",
                    "sigma_b_sq"])
        rows = [f"{i + 1}," + ",".join(map(tio.fmt, row)) for i, row in
                enumerate(rng.uniform([20, 20, 10], [60, 50, 255], size=(k, 3)))]
        return {
            "controls6": write(tmp_path / "c6.csv", "\n".join(["id,v_c,f,tool_life", *rows])),
            "controls4": write(tmp_path / "c4.csv", "\n".join(["id,v_c,f,tool_life", *rows[:4]])),
            "force": self.draws_file(tmp_path / "draws_Ft.csv", force, rng),
            "life": self.draws_file(tmp_path / "draws_life.csv", ToolLifeModel.param_names, rng),
        }

    def test_matrix_out_layout_on_a_non_square_grid(self, tmp_path):
        """``predict --matrix-out`` on a 3 x 5 grid, where swapped axes would show:
        a row of 0 and the f axis, then each v_c value with its row of means, in
        the long CSV's v-major order, each line ended by LF."""
        files = self.mismatch_inputs(tmp_path)
        x = np.array([(r.v_c, r.f) for r in tio.load_controls(files["controls6"])])
        (v_lo, f_lo), (v_hi, f_hi) = map(tio.fmt, x.min(axis=0)), map(tio.fmt, x.max(axis=0))
        surface, matrix = tmp_path / "surface.csv", tmp_path / "surface.mat"
        assert main(["predict", "--draws", files["force"], "--controls", files["controls6"],
                     "--channel", "Ft", "--grid", f"{v_lo}:{v_hi}:3,{f_lo}:{f_hi}:5",
                     "-o", str(surface), "--matrix-out", str(matrix)]) == 0
        text = matrix.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text
        rows = np.array([line.split() for line in text.decode().splitlines()], dtype=float)
        v, f, mean = np.loadtxt(surface, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
        assert rows.shape == (4, 6) and rows[0, 0] == 0
        assert np.array_equal(rows[0, 1:], np.linspace(float(f_lo), float(f_hi), 5))
        assert np.array_equal(rows[1:, 0], np.linspace(float(v_lo), float(v_hi), 3))
        assert np.array_equal(np.repeat(rows[1:, 0], 5), v) and np.array_equal(
            np.tile(rows[0, 1:], 3), f)
        assert np.array_equal(rows[1:, 1:].ravel(), mean)

    @pytest.mark.parametrize("draws, controls, channel, column", [
        ("life", "controls6", "Ft", "beta[1]"),
        ("force", "controls6", "life", "mu_life"),
        ("force", "controls4", "Ft", "beta[5]"),
    ])
    def test_predict_rejects_draws_that_do_not_fit(self, tmp_path, capsys,
                                                   draws, controls, channel, column):
        files = self.mismatch_inputs(tmp_path)
        code = main(["predict", "--draws", files[draws], "--controls", files[controls],
                     "--channel", channel, "-o", str(tmp_path / "surface.csv")])
        assert code == 1
        assert repr(column) in capsys.readouterr().err
        assert not (tmp_path / "surface.csv").exists()

    def test_run_surfaces_match_predict_on_its_draws(self, tmp_path):
        """``run`` and ``predict`` on the draws it wrote give byte-identical surfaces."""
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "4",
              "--n-points", "25", "--seed", "6"])
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5",
            "output_dir: out",
            "controls: data/controls.csv",
            "series_dir: data",
            "channels: [Ft]",
            "sampler: {chains: 2, warmup: 100, samples: 60}",
        ]))
        assert main(["run", "--config", cfg]) in (0, 2)
        out = tmp_path / "out"
        for channel in ("Ft", "life"):
            predicted = tmp_path / f"predicted_{channel}.csv"
            assert main(["predict", "--draws", str(out / f"draws_{channel}.csv"),
                         "--controls", str(data / "controls.csv"),
                         "--channel", channel, "-o", str(predicted)]) == 0
            assert predicted.read_bytes() == (out / f"surface_{channel}.csv").read_bytes()

    def test_subcommands_write_what_run_writes(self, tmp_path):
        """``segment``, ``fit`` and ``predict`` run ``run``'s stages: with its seed and
        sampler settings they write its series, draws, summaries and surfaces byte for
        byte, the draws' sidecars too, the life GP's on the rows that have a tool life."""
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--raw", "--n-experiments", "5",
              "--n-points", "100", "--seed", "2"])
        controls = data / "controls.csv"
        rows = controls.read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0] + ","  # experiment 2 has no tool life
        controls.write_text("\n".join(rows) + "\n")
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5", "output_dir: out", "controls: data/controls.csv", "traces_dir: data",
            "channels: [Ft]", "sampler: {chains: 2, warmup: 60, samples: 40}",
        ]))
        assert main(["run", "--config", cfg]) in (0, 2)
        out, mine = tmp_path / "out", tmp_path / "mine"
        mine.mkdir()
        for i in range(1, 6):
            assert main(["segment", "--trace", str(data / f"trace_{i}.csv"),
                         "--series-out", str(mine / f"series_{i}.csv"),
                         "--report-out", str(mine / f"changepoints_{i}.csv")]) == 0
            assert (mine / f"series_{i}.csv").read_bytes() == \
                (out / "series" / f"series_{i}.csv").read_bytes()
        for channel in ("Ft", "life"):
            draws = mine / f"draws_{channel}.csv"
            assert main(["fit", "--controls", str(controls), "--series-dir", str(mine),
                         "--channel", channel, "--chains", "2", "--warmup", "60",
                         "--samples", "40", "--seed", "5", "--draws-out", str(draws),
                         "--summary-out", str(mine / f"summary_{channel}.csv")]) in (0, 2)
            assert main(["predict", "--draws", str(draws), "--controls", str(controls),
                         "--channel", channel,
                         "-o", str(mine / f"surface_{channel}.csv")]) == 0
            for name in (f"draws_{channel}.csv", f"draws_{channel}.chains.csv",
                         f"summary_{channel}.csv", f"surface_{channel}.csv"):
                assert (mine / name).read_bytes() == (out / name).read_bytes(), name

    def test_run_manifest_does_not_depend_on_location(self, tmp_path):
        """One config and its inputs, copied to two directories, give byte-identical
        manifests: relative paths echo relative to the config's directory."""
        manifests = []
        for where in ("a", "b/c"):
            root = tmp_path / where
            main(["simulate", "--output-dir", str(root / "data"), "--n-experiments", "4",
                  "--n-points", "25", "--seed", "6"])
            cfg = write(root / "run.yaml", "\n".join([
                "seed: 5", "output_dir: out", "controls: data/controls.csv", "series_dir: data",
                "channels: [Ft]", "fit_tool_life: false",
                "sampler: {chains: 2, warmup: 40, samples: 20}",
            ]))
            assert main(["run", "--config", cfg]) in (0, 2)
            manifests.append((root / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["controls"] == "data/controls.csv"

    @pytest.mark.parametrize("text", [
        "v_c,life\n20,255\n58,10\n",
        "life,v_c\n255,20\n\n10,58\n",                   # any column order, blank rows
        "id,v_c,f,tool_life\n1,20,45,255\n2,58,22.5,10\n",  # a controls table
        "v_c,life,note\n20,255,new insert\r\n58,10\r\n",  # cells past those read
        "id,v_c,f,tool_life\n1,20,45,255\n2,40,30,\n3,58,22.5,10\n",  # a blank life skipped
    ])
    def test_taylor_reads_the_columns_its_header_names(self, tmp_path, capsys, text):
        assert main(["taylor", "--input", write(tmp_path / "life.csv", text)]) == 0
        out = capsys.readouterr().out
        n = float([ln for ln in out.splitlines() if ln.startswith("n =")][0][4:])
        assert n == pytest.approx(math.log(58 / 20) / math.log(255 / 10), rel=1e-12)

    @pytest.mark.parametrize("text, what", [
        ("v_c,life\n20,255\n\n58,ten\n", ":4: malformed row"),
        ("v_c,note,life\n20,a,255\n58,b\n", ":3: malformed row"),
        ("v_c,T\n20,255\n58,10\n", ":1: expected columns v_c and life (or tool_life)"),
        # a v_c or life that is not finite and positive; a blank life's row (line 3) is skipped
        *((text.format(x), what) for x in ("-5", "0", "inf", "nan") for text, what in (
            ("v_c,life\n30,{}\n0,\n40,10\n", ":2: v_c and life must be finite and positive"),
            ("v_c,life\n30,5\n0,\n{},10\n", ":4: v_c and life must be finite and positive"))),
    ])
    def test_taylor_bad_input_exits_1(self, tmp_path, capsys, text, what):
        path = write(tmp_path / "life.csv", text)
        assert main(["taylor", "--input", path]) == 1
        err = capsys.readouterr().err
        assert f"{path}{what}" in err and "internal error" not in err

    def test_taylor_refuses_equal_lives(self, tmp_path, capsys):
        path = write(tmp_path / "life.csv", "v_c,life\n20,5\n40,5\n")
        assert main(["taylor", "--input", path]) == 1
        err = capsys.readouterr().err
        assert "all tool lives equal; Taylor fit is degenerate" in err
        assert "internal error" not in err

    def test_taylor_needs_two_lives_after_blank_ones_are_skipped(self, tmp_path, capsys):
        one = write(tmp_path / "one.csv", "id,v_c,f,tool_life\n1,20,45,255\n2,40,30, \n")
        assert main(["taylor", "--input", one]) == 1
        assert "need at least 2 (v_c, T) pairs" in capsys.readouterr().err

    def test_diagnose_reports_divergences_only_where_recorded(self, tmp_path, capsys):
        """Draws with their sidecar report each chain's divergences; draws alone say
        they are not recorded."""
        chains = make_chainset(np.random.default_rng(4))
        chains.divergences = np.array([0, 3])
        tio.write_draws_csv(tmp_path / "alone.csv", chains)
        write_draws_pair(tmp_path / "pair.csv", chains)
        for name in ("alone.csv", "pair.csv"):
            assert main(["diagnose", "--draws", str(tmp_path / name), "--threshold", "100"]) == 0
        alone_out, pair_out = capsys.readouterr().out.split("converged")[:2]
        assert "divergences: not recorded in this draws file" in alone_out
        assert "divergences: [0, 3]" in pair_out

    def test_draws_written_alone_drop_an_older_sidecar(self, tmp_path, capsys):
        """Draws written alone over a pair remove its sidecar, whose statistics
        belong to the old draws: ``diagnose`` reports them as not recorded."""
        rng, path = np.random.default_rng(5), tmp_path / "d.csv"
        old = make_chainset(rng, n=50)
        old.divergences = np.array([20, 20])
        write_draws_pair(path, old)
        tio.write_draws_csv(path, make_chainset(rng, n=50))
        assert main(["diagnose", "--draws", str(path), "--threshold", "100"]) == 0
        assert "divergences: not recorded in this draws file" in capsys.readouterr().out
        assert not tio.chains_path(path).exists()

    def test_segment_leaves_a_run_report_alone(self, tmp_path, monkeypatch):
        """``segment``'s default report name is not ``run``'s: in a ``run``
        output directory it leaves ``changepoints.csv`` matching the manifest."""
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--raw", "--n-experiments", "3",
              "--n-points", "40", "--seed", "2"])
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5", "output_dir: out", "controls: data/controls.csv", "traces_dir: data",
            "channels: []", "fit_tool_life: false",
        ]))
        assert main(["run", "--config", cfg]) == 0
        out = tmp_path / "out"
        monkeypatch.setenv("TOOLWEAR_OUTPUT_DIR", str(out))
        assert main(["segment", "--trace", str(data / "trace_1.csv")]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert tio.sha256_file(out / "changepoints.csv") == \
            manifest["artifacts"]["changepoints.csv"]
        assert (out / "segments.csv").read_text().startswith("segment_start,segment_end")

    @pytest.mark.parametrize("channel", ["Ft", "life"])
    def test_fit_diagnose_and_run_judge_divergences_alike(self, tmp_path, capsys, monkeypatch,
                                                          channel):
        """Draws whose PSRF passes but whose retained transitions are 30% divergent
        are not converged for ``fit``, ``run`` and ``diagnose`` on the draws either
        wrote, for a force channel and for the life GP alike."""
        def divergent(names, seed):
            draws = 1.0 + 0.01 * np.random.default_rng(0).normal(size=(2, 200, len(names)))
            return ChainSet(draws=draws, param_names=list(names), n_warmup=0, n_retained=200,
                            seed=seed, accept_stats=np.full(2, 0.8),
                            divergences=np.array([50, 70]), step_sizes=np.full(2, 0.3))

        monkeypatch.setattr(pipeline, "run_chains",
                            lambda model, seed, **kw: divergent(model.param_names, seed))
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "4",
              "--n-points", "20", "--seed", "6"])
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5", "output_dir: out", "controls: data/controls.csv", "series_dir: data",
            "channels: [Ft]" if channel == "Ft" else "channels: []",
            f"fit_tool_life: {'true' if channel == 'life' else 'false'}",
        ]))
        draws, run_draws = tmp_path / "d.csv", tmp_path / "out" / f"draws_{channel}.csv"
        capsys.readouterr()
        assert main(["fit", "--controls", str(data / "controls.csv"), "--series-dir", str(data),
                     "--channel", channel, "--draws-out", str(draws),
                     "--summary-out", str(tmp_path / "s.csv")]) == 2
        assert main(["diagnose", "--draws", str(draws)]) == 2
        assert main(["run", "--config", cfg]) == 2
        assert main(["diagnose", "--draws", str(run_draws)]) == 2
        out = capsys.readouterr()
        warning = f"divergence rate 30.0% for {channel}"
        assert out.err.splitlines() == [f"warning: {warning}",
                                        f"warning: divergence rate 30.0% for {draws}",
                                        f"warning: {warning}",
                                        f"warning: divergence rate 30.0% for {run_draws}"]
        assert "converged: all PSRF" not in out.out
        assert out.out.count("divergences: [50, 70]") == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["warnings"] == [warning]
        assert manifest["stages"][-2:] == [f"fit:{channel}", f"predict:{channel}"]

    def test_fit_writes_the_chain_sidecar_beside_the_draws(self, tmp_path, capsys):
        """``fit --draws-out d.csv`` writes the per-chain statistics to d.chains.csv,
        from which ``read_draws`` gives back the statistics of the fit."""
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "3",
              "--n-points", "20", "--seed", "6"])
        fit = ["fit", "--controls", str(data / "controls.csv"), "--channel", "life",
               "--chains", "2", "--warmup", "20", "--samples", "10",
               "--summary-out", str(tmp_path / "s.csv")]
        capsys.readouterr()
        assert main([*fit, "--draws-out", str(tmp_path / "d.csv")]) in (0, 2)
        side = tmp_path / "d.chains.csv"
        out = capsys.readouterr().out
        assert f"wrote {side}" in out
        assert side.read_bytes().startswith(b"chain,step_size,accept_stat,divergences\r\n")
        back = tio.read_draws(tmp_path / "d.csv")
        assert f"divergences {back.divergences.tolist()}" in out
        assert back.step_sizes.shape == back.accept_stats.shape == (2,)
        assert main([*fit, "--format", "csv", "--draws-out", str(tmp_path / "e.csv")]) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("command, section, defaults", [
        (["segment", "--trace", "t.csv"], "segmentation",
         {"penalty": None, "min_seg_len": 20, "threshold": 50.0, "length_per_sample": 1.0}),
        (["fit", "--controls", "c.csv"], "sampler",
         {"chains": 4, "warmup": 1000, "samples": 1000, "max_tree_depth": 10,
          "target_accept": 0.8}),
    ])
    def test_section_options_keep_their_defaults(self, command, section, defaults):
        """``segment`` and ``fit`` have one option per key of the config section,
        defaulting to the value a config that leaves the key out gets."""
        args = build_parser().parse_args(command)
        assert {key: getattr(args, key) for key in tio.SETTINGS[section]} == defaults
        assert {key: s.default for key, s in tio.SETTINGS[section].items()} == defaults

    def test_taylor_prints_closed_form(self, tmp_path, capsys):
        path = write(tmp_path / "life.csv",
                     "v_c,life\n20,255\n58,10\n")
        assert main(["taylor", "--input", path]) == 0
        out = capsys.readouterr().out
        n = float([ln for ln in out.splitlines() if ln.startswith("n =")][0][4:])
        assert n == pytest.approx(math.log(58 / 20) / math.log(255 / 10), rel=1e-12)

    def test_segment_has_no_channel_option(self, tmp_path, capsys):
        """``segment`` finds contact on Ft, as ``run`` does; there is no other channel to name."""
        assert main(["segment", "--trace", str(tmp_path / "trace.csv"), "--channel", "Ft"]) == 1
        assert "unrecognized arguments: --channel Ft" in capsys.readouterr().err

    def test_simulate_one_experiment_writes_a_readable_life(self, tmp_path):
        """A single design point has no spread in v_c or f; its tool life stays finite."""
        assert main(["simulate", "--output-dir", str(tmp_path), "--n-experiments", "1"]) == 0
        [rec] = tio.load_controls(tmp_path / "controls.csv")
        assert 0 < rec.tool_life < math.inf

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["segment", "--trace", "/nonexistent/trace.csv"]) == 1

    def test_run_pipeline_exit_codes(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "4",
              "--n-points", "25", "--seed", "6"])
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5",
            "output_dir: out",
            f"controls: data/controls.csv",
            "series_dir: data",
            "channels: [Ft]",
            "fit_tool_life: false",
            "sampler: {chains: 2, warmup: 250, samples: 150}",
        ]))
        code = main(["run", "--config", cfg])
        assert code in (0, 2)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] is None
        assert "fit:Ft" in manifest["stages"]
        assert {"draws_Ft.csv", "draws_Ft.chains.csv"} <= set(manifest["artifacts"])

    def test_run_config_override(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "4",
              "--n-points", "25", "--seed", "6"])
        cfg = write(tmp_path / "run.yaml", "\n".join([
            "seed: 5",
            "output_dir: out",
            "controls: data/controls.csv",
            "series_dir: data",
            "channels: [Ft]",
            "fit_tool_life: false",
            "sampler: {chains: 2, warmup: 250, samples: 150}",
        ]))
        code = main(["run", "--config", cfg, "--set", "seed=9",
                     "--set", f"output_dir={tmp_path / 'out2'}"])
        assert code in (0, 2)
        manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["diagnose", "draws_Ft.csv"], ["run", "config.yaml"],
                                      ["fit", "--chains", "x"], ["no-such-command"]])
    def test_usage_error_is_validation_error(self, argv, capsys):
        assert main(argv) == 1
        assert "usage: toolwear" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--draws", "{dir}"],
        ["predict", "--draws", "{draws}", "--controls", "{dir}", "--channel", "life"],
        ["fit", "--controls", "{dir}", "--channel", "life"],
        ["taylor", "--input", "{dir}"],
        ["run", "--config", "{dir}"],
    ])
    def test_directory_given_for_a_file_exits_1(self, tmp_path, capsys, argv):
        folder = tmp_path / "folder"
        folder.mkdir()
        draws = TestCli().mismatch_inputs(tmp_path)["life"]
        assert main([a.format(dir=folder, draws=draws) for a in argv]) == 1
        err = capsys.readouterr().err
        assert f"error: {folder}: " in err and "internal error" not in err

    def test_os_error_without_a_path_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken_pipe(*args, **kw):
            raise OSError("worker pipe closed")

        monkeypatch.setattr(pipeline, "run_chains", broken_pipe)
        data = tmp_path / "data"
        TestRunConfig().good_config(tmp_path)
        assert main(["fit", "--controls", str(data / "controls.csv"), "--series-dir", str(data),
                     "--draws-out", str(tmp_path / "d.csv")]) == 3
        assert "internal error: OSError: worker pipe closed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what", [
        (["simulate", "--n-points=-3"], "a series needs n_points >= 2, got -3"),
        (["simulate", "--n-points", "1"], "a series needs n_points >= 2, got 1"),
        (["design", "--v-min", "20", "--v-max", "inf", "--f-min", "20", "--f-max", "50",
          "--n-initial", "3"], "need 0 < v_min < v_max < inf, got [20.0, inf]"),
        (["design", "--v-min", "20", "--v-max", "60", "--f-min", "20", "--f-max", "50",
          "--n-initial", "2", "--skip", "4294967296"], "indices below 2^32, got skip=4294967296"),
        (["design", "--v-min", "20", "--v-max", "60", "--f-min", "20", "--f-max", "50",
          "--n-initial", "3", "--skip", "4294967294"], "indices below 2^32, got skip=4294967294"),
    ])
    def test_simulate_and_design_sizes_exit_1(self, tmp_path, capsys, monkeypatch, argv, what):
        monkeypatch.setenv("TOOLWEAR_OUTPUT_DIR", str(tmp_path))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0.99"])
    def test_diagnose_threshold_below_1_or_not_finite_exits_1(self, tmp_path, capsys,
                                                               threshold):
        """PSRF is at least 1, so such a threshold would pass or flag every draw;
        it is refused before the draws file is read (here it does not exist)."""
        missing = tmp_path / "no_such_draws.csv"
        assert main(["diagnose", "--draws", str(missing), "--threshold", threshold]) == 1
        err = capsys.readouterr().err
        assert "--threshold must be a finite number >= 1.0" in err and str(missing) not in err

    def test_diagnose_threshold_of_1_is_accepted(self, tmp_path, capsys):
        tio.write_draws_csv(tmp_path / "d.csv", make_chainset(np.random.default_rng(2)))
        assert main(["diagnose", "--draws", str(tmp_path / "d.csv"), "--threshold", "1.0"]) in (0, 2)
        assert "error" not in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: toolwear" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_row, what", [
        ("0,1,2.5,x", "malformed row"),            # non-numeric cell
        ("0,1,2.5", "malformed row"),              # short row
        ("0,1.5,2.5,3.5", "chain and iteration must be"),  # non-integral iteration
        ("-1,1,2.5,3.5", "chain and iteration must be"),   # negative chain
        ("0,1,nan,3.5", "parameter values must be finite"),  # not a missing draw
        ("0,1,2.5,-inf", "parameter values must be finite"),
    ])
    def test_malformed_draws_exit_1_naming_line(self, tmp_path, capsys, bad_row, what):
        draws = write(tmp_path / "d.csv",
                      f"chain,iteration,a,b\n0,0,1.5,2.5\n\n{bad_row}\n1,0,1.0,2.0\n")
        assert main(["diagnose", "--draws", draws]) == 1
        err = capsys.readouterr().err
        assert f"{draws}:4: {what}" in err and "internal error" not in err

    @pytest.mark.parametrize("edit, line, what", [
        (lambda rows: rows + ["0,1,999.0"], 8, "expected chain 2 iteration 0"),  # a repeat
        (lambda rows: rows[3:] + rows[:3], 2, "expected chain 0 iteration 0"),  # chains swapped
        (lambda rows: [rows[0], rows[2], rows[1], *rows[3:]], 3, "expected chain 0 iteration 1"),
        (lambda rows: rows[:4] + rows[5:], 6, "expected chain 1 iteration 1"),  # a row missing
        (lambda rows: rows[:-1], 6, "chain 1 ends short of the first chain's 3 iterations"),
    ], ids=["repeated", "chains-swapped", "reordered", "missing", "short-last-chain"])
    def test_draws_out_of_order_exit_1_naming_line(self, tmp_path, capsys, edit, line, what):
        """Draws rows run as ``write_draws_csv`` writes them: chain by chain,
        each chain's iterations from 0, every chain as long."""
        rows = [f"{c},{i},{c + i / 10}" for c in range(2) for i in range(3)]
        draws = write(tmp_path / "d.csv", "\n".join(["chain,iteration,a", *edit(rows)]) + "\n")
        assert main(["diagnose", "--draws", draws]) == 1
        err = capsys.readouterr().err
        assert f"{draws}:{line}: {what}" in err and "internal error" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("column", HYPERPARAMETERS)
    @pytest.mark.parametrize("command", ["diagnose", "predict"])
    def test_non_positive_hyperparameter_exits_1_naming_line(self, tmp_path, capsys, command,
                                                              column, value):
        """A kernel hyperparameter at or below 0 is refused where the draws are read."""
        rows = [[str(c), str(i), "4.0", "1.0", "1.0", "1.0", "0.1"]
                for c in range(2) for i in range(3)]
        rows[2][ToolLifeModel.param_names.index(column) + 2] = value
        draws = write(tmp_path / "draws_life.csv", "\n".join(
            ["chain,iteration," + ",".join(ToolLifeModel.param_names), *map(",".join, rows)]))
        controls = write(tmp_path / "controls.csv",
                         "id,v_c,f,tool_life\n1,20,20,100\n2,40,30,50\n3,30,45,80\n")
        argv = {"diagnose": ["diagnose", "--draws", draws],
                "predict": ["predict", "--draws", draws, "--controls", controls,
                            "--channel", "life", "-o", str(tmp_path / "surface.csv")]}[command]
        assert main(argv) == 1
        assert f"{draws}:4: {column} must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("m, n, what", [
        (1, 5, "psrf needs at least 2 chains"),
        (2, 2, "psrf needs at least 4 iterations per chain"),
    ])
    def test_diagnose_names_draws_too_short_for_psrf(self, tmp_path, capsys, m, n, what):
        draws = tmp_path / "d.csv"
        tio.write_draws_csv(draws, make_chainset(np.random.default_rng(4), m=m, n=n))
        assert main(["diagnose", "--draws", str(draws)]) == 1
        assert f"error: {draws}: {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, fault", [
        ({(1, "eta_sq"): "0", (2, "mu_life"): "nan"}, ":4: parameter values must be finite"),
        ({(1, "rho1"): "-1", (2, "eta_sq"): "0"}, ":3: rho1 must be strictly positive"),
    ], ids=["non-positive-then-non-finite", "rho1-then-eta_sq"])
    def test_draws_with_two_faults_report_the_pinned_one(self, tmp_path, edits, fault):
        """The finite check runs over every row before the hyperparameter
        checks; these run row by row, each row's columns in header order."""
        names = ToolLifeModel.param_names
        rows = [[str(c), str(i), "4.0", "1.0", "1.0", "1.0", "0.1"]
                for c in range(2) for i in range(3)]
        for (row, column), value in edits.items():
            rows[row][names.index(column) + 2] = value
        draws = write(tmp_path / "d.csv", "\n".join(
            ["chain,iteration," + ",".join(names), *map(",".join, rows)]) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(draws)}{fault}$"):
            tio.read_draws(draws)

    def test_series_with_two_faults_reports_the_non_finite_row(self, tmp_path):
        """Every row is checked for finite values before L is checked for order."""
        path = write(tmp_path / "s.csv", "L,Ft,Ff,Fp\n1,5,3,2\n2,5,3,2\n1.5,5,3,2\n3,nan,3,2\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}:5: L and forces must"):
            tio.load_series(path)

    def test_sidecar_with_two_faults_reports_the_first_row(self, tmp_path):
        draws = write(tmp_path / "d.csv", "chain,iteration,a\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n")
        side = write(tio.chains_path(draws), "chain,step_size,accept_stat,divergences\n"
                     "0,0,0.8,0\n1,0.5,0.8,9\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(side)}:2: step_size must be finite and above 0$"):
            tio.read_draws(draws)

    @pytest.mark.parametrize("rows, line, what", [
        (["chain,step,accept_stat,divergences", "0,0.5,0.8,0", "1,0.5,0.8,0"], 1,
         "expected header chain,step_size,accept_stat,divergences"),
        (["chain,step_size,accept_stat,divergences", "1,0.5,0.8,0", "0,0.5,0.8,0"], 2,
         "expected one row per chain of the draws, chains 0 to 1 in order"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0"], 2,
         "expected one row per chain of the draws, chains 0 to 1 in order"),
        (["chain,step_size,accept_stat,divergences"], 1,
         "expected one row per chain of the draws, chains 0 to 1 in order"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "1,0.5,0.8,0",
          "2,0.5,0.8,0"], 4, "expected one row per chain of the draws, chains 0 to 1 in order"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "", "1,0.5,0.8,1.5"], 4,
         "divergences must be an integer from 0 to 10"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,11", "1,0.5,0.8,0"], 2,
         "divergences must be an integer from 0 to 10"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "1,0.5,0.8,-1"], 3,
         "divergences must be an integer from 0 to 10"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,1.5,0", "1,0.5,0.8,0"], 2,
         "accept_stat must be between 0 and 1"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "1,0.5,nan,0"], 3,
         "accept_stat must be between 0 and 1"),
        (["chain,step_size,accept_stat,divergences", "0,0,0.8,0", "1,0.5,0.8,0"], 2,
         "step_size must be finite and above 0"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "1,inf,-1,9"], 3,
         "step_size must be finite and above 0"),
        (["chain,step_size,accept_stat,divergences", "0,0.5,0.8,0", "1,0.5,0.8"], 3,
         "malformed row"),
    ], ids=["header", "order", "too-few", "none", "too-many", "fractional-divergences",
            "too-many-divergences", "negative-divergences", "accept-above-1", "accept-nan",
            "zero-step", "infinite-step-first", "short-row"])
    @pytest.mark.parametrize("command", ["diagnose", "predict"])
    def test_bad_chain_sidecar_exits_1_naming_line(self, tmp_path, capsys, rows, line, what,
                                                   command):
        """The sidecar beside a draws file is checked against them, each fault
        naming its file line: the header, one row per chain in chain order, and
        each statistic in its range."""
        files = TestCli().mismatch_inputs(tmp_path)
        draws = tmp_path / "d.csv"
        tio.write_draws_csv(draws, tio.read_draws_csv(files["life"]))  # 2 chains of 10
        side = write(tio.chains_path(draws), "\r\n".join(rows) + "\r\n")
        argv = {"diagnose": ["diagnose", "--draws", str(draws)],
                "predict": ["predict", "--draws", str(draws), "--controls", files["controls6"],
                            "--channel", "life", "-o", str(tmp_path / "surface.csv")]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{side}:{line}: {what}" in err and "internal error" not in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("argv, text, what", [
        (["fit", "--channel", "life", "--warmup", "5", "--samples", "5", "--controls"],
         "id,v_c,f,tool_life\n1,20,20,200\n2,40,35,nan\n3,60,50,12\n",
         "{path}:3: tool_life must be finite and positive"),
        (["fit", "--channel", "life", "--warmup", "5", "--samples", "5", "--controls"],
         "id,v_c,f,tool_life\n1,20,20,200\n2,inf,35,60\n3,60,50,12\n",
         "{path}:3: settings must be finite and positive"),
        (["taylor", "--input"], "id,v_c,f,tool_life\n1,20,20,200\n2,inf,35,60\n3,60,50,12\n",
         "{path}:3: v_c and life must be finite and positive"),
        (["taylor", "--input"], "v_c,life\n20,255\n40,nan\n58,10\n",
         "{path}:3: v_c and life must be finite and positive"),
    ])
    def test_non_finite_controls_and_taylor_values_exit_1(self, tmp_path, capsys, monkeypatch,
                                                          argv, text, what):
        monkeypatch.setenv("TOOLWEAR_OUTPUT_DIR", str(tmp_path))
        path = write(tmp_path / "controls.csv", text)
        assert main(argv + [path]) == 1
        err = capsys.readouterr().err
        assert what.format(path=path) in err and "internal error" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["controls.csv"]

    # The draws CSV reader refuses non-finite values itself
    # (test_malformed_draws_exit_1_naming_line); the None case hands predict draws that
    # hold an infinite slope already in memory, so surface()'s own check must exit 1.
    @pytest.mark.parametrize("grid, what", [
        (None, "draws hold non-finite values"),  # an infinite slope in draws in memory
        ("nan:50:5,25:45:5", "grid bounds must be finite"),
        ("20:inf:5,25:45:5", "grid bounds must be finite"),
    ])
    def test_predict_non_finite_input_exits_1(self, tmp_path, capsys, monkeypatch, grid, what):
        files = TestCli().mismatch_inputs(tmp_path)
        if grid is None:
            draws = tio.read_draws(files["force"])
            draws.draws[1, 3, draws.param_names.index("beta[2]")] = math.inf
            monkeypatch.setattr(tio, "read_draws", lambda path: draws)
        argv = ["predict", "--draws", files["force"], "--controls", files["controls6"],
                "-o", str(tmp_path / "surface.csv")]
        assert main(argv + (["--grid", grid] if grid else [])) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("override, what", [
        ("priors={foo: 1}", "unknown prior keys ['foo']"),
        ("priors={eta_sq_scale: -1}", "prior scale eta_sq_scale must be a finite positive"),
        ("seed=null", "seed is required"),
        ("seed=-1", "seed must be an integer >= 0, got -1"),
        ("seed=x", "seed must be an integer >= 0, got 'x'"),
        ("seed=1.5", "seed must be an integer >= 0, got 1.5"),
        ("seed=true", "seed must be an integer >= 0, got True"),
        ("controls=null", "controls must be a path, got None"),
        ("output_dir=7", "output_dir must be a path, got 7"),
        ("traces_dir=5", "traces_dir must be a path, got 5"),
        ("sampler=[1", "--set sampler: invalid YAML"),
        ("channels=5", "channels must be a list of ['Ft', 'Ff', 'Fp'], got 5"),
        ("channels=[Ft, 5]", "channels must be a list of"),
        ("grid=5", "grid must be [v_min, v_max, nv, f_min, f_max, nf]"),
        ("grid=[20, 60, 5, 20, 50]", "grid must be [v_min"),
        ("grid=[20, 60, 5, 20, .nan, 5]", "grid must be [v_min"),
        ("grid=[20, 60, 1, 20, 50, 5]", "grid resolutions nv and nf must be integers >= 2, "
                                        "got [1, 5]"),
        ("grid=[20, 60, 2.5, 20, 50, 5]", "grid resolutions nv and nf must be integers >= 2"),
        ("fit_tool_life=5", "fit_tool_life must be true or false, got 5"),
        ("fit_tool_life=[1]", "fit_tool_life must be true or false, got [1]"),
        ("fit_tool_life='no'", "fit_tool_life must be true or false, got 'no'"),
        ("channels=[Ft, Ft]", "channels must not repeat, got ['Ft', 'Ft']"),
        ("sampler={chains: x}", "sampler chains must be an integer >= 2, got 'x'"),
        ("sampler={chains: 1}", "sampler chains must be an integer >= 2, got 1"),
        ("sampler={chains: true}", "sampler chains must be an integer >= 2, got True"),
        ("sampler={samples: 0}", "sampler samples must be an integer >= 4"),
        ("sampler={warmup: -3}", "sampler warmup must be an integer >= 0"),
        ("sampler={max_tree_depth: 0}", "sampler max_tree_depth must be an integer >= 1"),
        ("sampler={target_accept: 1.5}", "sampler target_accept must be a number between"),
        ("segmentation={penalty: -1}", "segmentation penalty must be null or a finite"),
        ("segmentation={min_seg_len: 2.5}", "segmentation min_seg_len must be an integer >= 2"),
        ("segmentation={threshold: .inf}", "segmentation threshold must be a finite number"),
        ("segmentation={length_per_sample: 0}", "segmentation length_per_sample must be"),
        ("sampler={samples: 3}", "sampler samples must be an integer >= 4, got 3"),
        ("foo", "--set expects key=value, got 'foo'"),
        ("sampler=5", "sampler must be a mapping"),
        ("traces_dir=/nonexistent/traces", "traces_dir not found: /nonexistent/traces"),
        ("series_dir=null", "one of traces_dir or series_dir is required"),
    ])
    def test_run_overrides_are_validated(self, tmp_path, capsys, override, what):
        """``--set`` values are checked as the config file's are, before any stage runs."""
        cfg = TestRunConfig().good_config(tmp_path)
        argv = ["run", "--config", cfg, "--set", "sampler={chains: 2, warmup: 10, samples: 10}"]
        assert main(argv + ["--set", override]) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, what", [
        (["--chains", "1"], "sampler chains must be an integer >= 2, got 1"),
        (["--samples", "0"], "sampler samples must be an integer >= 4, got 0"),
        (["--warmup=-3"], "sampler warmup must be an integer >= 0, got -3"),
        (["--max-tree-depth=-1"], "sampler max_tree_depth must be an integer >= 1, got -1"),
        (["--target-accept", "1.5"], "sampler target_accept must be a number between 0 and 1"),
        (["--samples", "3"], "sampler samples must be an integer >= 4, got 3"),  # split PSRF
    ])
    def test_fit_sampler_options_are_checked(self, tmp_path, capsys, option, what):
        """``fit`` checks its sampler options as a run config's ``sampler`` section."""
        controls = write(tmp_path / "controls.csv",
                         "id,v_c,f,tool_life\n1,20,20,200\n2,40,35,60\n3,60,50,12\n")
        argv = ["fit", "--controls", controls, "--channel", "life", "--warmup", "5",
                "--samples", "5", "--draws-out", str(tmp_path / "d.csv")]
        assert main(argv + option) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_fit_force_channel_needs_series_dir(self, tmp_path, capsys):
        controls = write(tmp_path / "controls.csv",
                         "id,v_c,f,tool_life\n1,20,20,200\n2,40,35,60\n3,60,50,12\n")
        assert main(["fit", "--controls", controls, "--channel", "Ft",
                     "--draws-out", str(tmp_path / "d.csv"),
                     "--summary-out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert "--series-dir is required for force channels" in err
        assert "internal error" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["controls.csv"]

    @pytest.mark.parametrize("command", ["fit", "predict", "run"])
    def test_header_only_controls_exit_1_naming_the_file(self, tmp_path, capsys, command):
        """The controls reader refuses a table with no experiment for every command
        that reads one; ``run`` writes only its manifest, naming the failed stage."""
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n")
        if command == "fit":
            argv = ["fit", "--controls", controls, "--channel", "life",
                    "--draws-out", str(tmp_path / "d.csv"),
                    "--summary-out", str(tmp_path / "s.csv")]
        elif command == "predict":
            draws = TestCli().mismatch_inputs(tmp_path)["life"]
            argv = ["predict", "--draws", draws, "--controls", controls, "--channel", "life",
                    "-o", str(tmp_path / "surface.csv")]
        else:
            argv = ["run", "--config", write(tmp_path / "run.yaml", "\n".join([
                "seed: 3", "output_dir: out", "controls: controls.csv", "series_dir: .",
                "channels: [Ft]"]))]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{controls}: controls table is empty" in err and "internal error" not in err
        if command == "run":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["failed_stage"] == f"load: {controls}: controls table is empty"
            assert manifest["artifacts"] == {}
            assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]
            before.append(tmp_path / "out")
        assert sorted(tmp_path.iterdir()) == sorted(before)

    def test_fit_negative_seed_exits_1(self, tmp_path, capsys):
        controls = write(tmp_path / "controls.csv",
                         "id,v_c,f,tool_life\n1,20,20,200\n2,40,35,60\n3,60,50,12\n")
        assert main(["fit", "--controls", controls, "--channel", "life", "--warmup", "5",
                     "--samples", "5", "--seed=-1", "--draws-out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert "seed must be an integer >= 0, got -1" in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_run_negative_seed_option_exits_1(self, tmp_path, capsys):
        cfg = TestRunConfig().good_config(tmp_path)
        assert main(["run", "--config", cfg, "--set", "seed=-1"]) == 1
        err = capsys.readouterr().err
        assert "seed must be an integer >= 0, got -1" in err and "internal error" not in err
        assert not (tmp_path / "out").exists()

    def test_sampling_error_exits_3_from_fit_and_run(self, tmp_path, capsys, monkeypatch):
        """A sampler that cannot produce draws is an internal error (exit 3)
        whether ``fit`` meets it or a ``run`` stage does."""
        def diverged(*args, **kw):
            raise SamplingError("all transitions diverged; model is numerically unstable")

        monkeypatch.setattr(pipeline, "run_chains", diverged)
        cfg = TestRunConfig().good_config(tmp_path)
        data = tmp_path / "data"
        assert main(["fit", "--controls", str(data / "controls.csv"), "--series-dir", str(data),
                     "--draws-out", str(tmp_path / "d.csv")]) == 3
        assert main(["run", "--config", cfg]) == 3
        fit_err, run_err = capsys.readouterr().err.splitlines()
        assert fit_err == "error: all transitions diverged; model is numerically unstable"
        assert run_err == ("error: pipeline aborted at stage fit:Ft: all transitions "
                           "diverged; model is numerically unstable")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"].startswith("fit:Ft: all transitions diverged")

    @pytest.mark.parametrize("option, what", [
        (["--length-per-sample", "0"], "segmentation length_per_sample must be a finite number"),
        (["--length-per-sample=-1"], "segmentation length_per_sample must be a finite number"),
        (["--length-per-sample", "nan"], "segmentation length_per_sample must be a finite"),
        (["--min-seg-len", "1"], "segmentation min_seg_len must be an integer >= 2, got 1"),
        (["--penalty=-1"], "segmentation penalty must be null or a finite number >= 0"),
        (["--threshold", "nan"], "segmentation threshold must be a finite number, got nan"),
    ])
    def test_segment_options_are_checked(self, tmp_path, capsys, option, what):
        """``segment`` checks its options as a run config's ``segmentation`` section."""
        x = np.concatenate([np.full(60, 200.0), np.zeros(60), np.full(60, 210.0)])
        trace = write(tmp_path / "t.csv", "sample,Ft,Ff,Fp\n" + "".join(
            f"{i},{v},{v / 2},{v / 4}\n" for i, v in enumerate(x)))
        series = tmp_path / "s.csv"
        assert main(["segment", "--trace", trace, "--series-out", str(series)] + option) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not series.exists()

    @pytest.mark.parametrize("lives, got", [(["200", "60", "", ""], 2), (["", "", "", ""], 0)])
    def test_predict_life_needs_three_lives(self, tmp_path, capsys, lives, got):
        """``predict --channel life`` uses the rows that have a tool life, as ``fit`` does."""
        draws = TestCli().mismatch_inputs(tmp_path)["life"]
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n" + "".join(
            f"{i + 1},{20 + 10 * i},{20 + 8 * i},{life}\n" for i, life in enumerate(lives)))
        assert main(["predict", "--draws", draws, "--controls", controls, "--channel", "life",
                     "-o", str(tmp_path / "surface.csv")]) == 1
        err = capsys.readouterr().err
        assert f"tool-life GP needs >= 3 experiments with tool_life, got {got}" in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning included
    @pytest.mark.parametrize("speeds, feeds, what", [
        ([1e308, 40, 50, 60], [20, 28, 36, 44], "v_c mean or sd is not finite"),
        ([40, 40, 40, 40], [20, 28, 36, 44], "all training v_c values equal"),
        ([20, 30, 40, 50], [35, 35, 35, 35], "all training f values equal"),
    ], ids=["overflowing-speed", "equal-speeds", "equal-feeds"])
    def test_predict_life_refuses_degenerate_controls(self, tmp_path, capsys, speeds, feeds,
                                                      what):
        """A speed so large that standardizing it overflows, or controls with
        no spread in v_c or f, leave no surface to draw: exit 1, nothing written."""
        draws = TestCli().mismatch_inputs(tmp_path)["life"]
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n" + "".join(
            f"{i + 1},{v!r},{f!r},{200 - 40 * i}\n" for i, (v, f) in enumerate(zip(speeds, feeds))))
        assert main(["predict", "--draws", draws, "--controls", controls, "--channel", "life",
                     "-o", str(tmp_path / "surface.csv")]) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "surface.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "run"])
    @pytest.mark.parametrize("body", ["", "1,5,3,2\n"], ids=["header-only", "one-row"])
    def test_short_series_exits_1_naming_the_file(self, tmp_path, capsys, command, body):
        """The series reader refuses a table of fewer than 2 measurements itself,
        so ``fit`` and ``run`` from ``series_dir`` name the file."""
        cfg = TestRunConfig().good_config(tmp_path)
        series = write(tmp_path / "data" / "series_1.csv", "L,Ft,Ff,Fp\n" + body)
        argv = (["run", "--config", cfg] if command == "run" else
                ["fit", "--controls", str(tmp_path / "data" / "controls.csv"), "--series-dir",
                 str(tmp_path / "data"), "--draws-out", str(tmp_path / "d.csv")])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{series}: need >= 2 measurements" in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()
        if command == "run":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["failed_stage"] == f"load-series: {series}: need >= 2 measurements"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_fit_refuses_lengths_whose_sums_do_not_fit_a_float(self, tmp_path, capsys, scale):
        """Lengths so small that their spread underflows to 0, or so large that
        it overflows, are refused naming the experiment, not as a numpy warning
        or a ZeroDivisionError."""
        records, _ = simulate_dataset(6, 8, seed=2)
        tio.write_controls(tmp_path / "controls.csv", records)
        for rec in records:
            tio.write_series(tmp_path / f"series_{rec.id}.csv", rec.length * scale, rec.forces)
        assert main(["fit", "--controls", str(tmp_path / "controls.csv"), "--series-dir",
                     str(tmp_path), "--channel", "Ft", "--chains", "2", "--warmup", "30",
                     "--samples", "30", "--draws-out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert "error: experiment 1: L or Ft out of range" in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_predict_life_refuses_a_surface_that_overflows(self, tmp_path, capsys, monkeypatch):
        """Tool lives near the top of the float range fit, but their log-normal
        moments overflow: ``predict`` refuses the surface, with no numpy warning
        and no file written."""
        monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: 1)  # warnings reach here
        records, _ = simulate_dataset(6, 8, seed=2)
        for rec in records:
            rec.tool_life *= 1e300
        controls, draws = tmp_path / "controls.csv", tmp_path / "d.csv"
        tio.write_controls(controls, records)
        assert main(["fit", "--controls", str(controls), "--channel", "life", "--chains", "2",
                     "--warmup", "30", "--samples", "30", "--draws-out", str(draws),
                     "--summary-out", str(tmp_path / "s.csv")]) in (0, 2)
        surface = tmp_path / "surface.csv"
        assert main(["predict", "--draws", str(draws), "--controls", str(controls),
                     "--channel", "life", "-o", str(surface)]) == 1
        err = capsys.readouterr().err
        assert "error: surface mean or sd is not finite" in err and "internal error" not in err
        assert not surface.exists()

    def test_fit_life_refuses_equal_lives(self, tmp_path, capsys, monkeypatch):
        """``fit --channel life`` refuses equal lives while building the life
        GP, before any chain runs."""
        def never(*args, **kw):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(pipeline, "run_chains", never)
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n" + "".join(
            f"{i + 1},{20 + 10 * i},{20 + 8 * i},50\n" for i in range(4)))
        assert main(["fit", "--controls", controls, "--channel", "life",
                     "--draws-out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert "all tool lives equal" in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("speeds, feeds, what", [
        ([40, 40, 40, 40], [20, 28, 36, 44], "all training v_c values equal"),
        ([20, 30, 45, 60], [30, 30, 30, 30], "all training f values equal"),
    ], ids=["equal-speeds", "equal-feeds"])
    def test_fit_life_refuses_controls_with_no_spread(self, tmp_path, capsys, monkeypatch,
                                                      speeds, feeds, what):
        """``fit --channel life`` refuses controls whose surface ``predict`` would
        refuse, before any chain runs."""
        def never(*args, **kw):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(pipeline, "run_chains", never)
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n" + "".join(
            f"{i + 1},{v},{f},{life}\n"
            for i, (v, f, life) in enumerate(zip(speeds, feeds, [200, 150, 100, 40]))))
        assert main(["fit", "--controls", controls, "--channel", "life",
                     "--draws-out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("section, what", [
        ("sampler: {chians: 2, warmup: 20, samples: 20}", "unknown sampler keys ['chians']"),
        ("segmentation: {treshold: 50}\nsampler: {chains: 2, warmup: 20, samples: 20}",
         "unknown segmentation keys ['treshold']"),
    ])
    def test_run_config_unknown_section_key_exits_1(self, tmp_path, capsys, section, what):
        cfg = TestRunConfig().good_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write(f"\n{section}\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert what in err and "internal error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["controls", "output_dir"])
    def test_run_config_missing_key_exits_1(self, tmp_path, capsys, key):
        cfg = Path(TestRunConfig().good_config(tmp_path))
        cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                                 if not line.startswith(f"{key}:")))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"missing config keys ['{key}']" in err and "internal error" not in err

    def test_fit_priors_invalid_yaml_exits_1(self, tmp_path, capsys):
        controls = write(tmp_path / "controls.csv", "id,v_c,f,tool_life\n1,40,35,10\n")
        priors = write(tmp_path / "priors.yaml", "eta_sq_scale: [1\n")
        assert main(["fit", "--controls", controls, "--channel", "life",
                     "--priors", priors, "--draws-out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{priors}: invalid YAML" in err and "internal error" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_draws_without_iterations_exits_1(self, tmp_path, capsys):
        files = TestCli().mismatch_inputs(tmp_path)
        draws = write(tmp_path / "draws_life.csv",
                      ",".join(["chain", "iteration", *ToolLifeModel.param_names]) + "\n")
        assert main(["predict", "--draws", str(draws), "--controls", files["controls6"],
                     "--channel", "life", "-o", str(tmp_path / "surface.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{draws}: no draws" in err and "internal error" not in err

    @pytest.mark.parametrize("suffix", [".csv", ".npz"])
    @pytest.mark.parametrize("command", ["diagnose", "predict"])
    def test_repeated_parameter_column_exits_1(self, tmp_path, capsys, suffix, command):
        """Draws that name a parameter twice are refused, not read by one copy. A
        draws file is CSV whatever its name: no suffix picks another format."""
        files = TestCli().mismatch_inputs(tmp_path)
        chains = tio.read_draws_csv(files["life"])
        draws = tmp_path / f"repeated{suffix}"
        tio.write_draws_csv(draws, replace(
            chains, draws=np.concatenate([chains.draws, chains.draws[:, :, 2:3]], axis=2),
            param_names=[*chains.param_names, "rho1"]))
        argv = {"diagnose": ["diagnose", "--draws", str(draws)],
                "predict": ["predict", "--draws", str(draws), "--controls", files["controls6"],
                            "--channel", "life", "-o", str(tmp_path / "surface.csv")]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{draws}: parameter column 'rho1' repeated" in err and "internal error" not in err

    def test_csv_without_parameters_exits_1(self, tmp_path, capsys):
        draws = write(tmp_path / "d.csv", "chain,iteration\n0,0\n0,1\n1,0\n1,1\n")
        assert main(["diagnose", "--draws", draws]) == 1
        err = capsys.readouterr().err
        assert f"{draws}: no draws" in err and "internal error" not in err

    def test_trace_short_row_exits_1_naming_line(self, tmp_path, capsys):
        trace = write(tmp_path / "t.csv", "sample,Ft,Ff,Fp\n0,1,2,3\n1,4,5\n2,6,7,8\n")
        assert main(["segment", "--trace", trace]) == 1
        assert f"{trace}:3: malformed row" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "taylor", "diagnose", "run"])
    def test_input_that_is_not_utf8_exits_1_naming_line(self, tmp_path, capsys, command):
        """A byte that is not UTF-8 is bad input, named by its file and line."""
        if command == "segment":  # past the first 8 KB, inside the fast parse
            lines = ["sample,Ft,Ff,Fp", *(f"{i},{i}.5,2,3" for i in range(1000))]
            name, line, bad, flag = "t.csv", 700, b"\xff", "--trace"
        elif command == "taylor":
            lines = ["v_c,life", "20,255", "58,10", "40,30"]
            name, line, bad, flag = "life.csv", 3, b"\xff", "--input"
        elif command == "diagnose":
            lines = ["chain,iteration,a", "0,0,1.5", "0,1,2.5", "1,0,1.0", "1,1,2.0"]
            name, line, bad, flag = "d.csv", 4, b"\xff", "--draws"
        else:
            lines = ["seed: 3", "output_dir: out", "# cafe", "controls: controls.csv"]
            name, line, bad, flag = "run.yaml", 3, b"\xe9", "--config"
        data = [ln.encode() for ln in lines]
        data[line - 1] += bad
        path = tmp_path / name
        path.write_bytes(b"\r\n".join(data) + b"\r\n")
        assert main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line}: not UTF-8 text" in err and "internal error" not in err

    def test_header_only_trace_is_insufficient_data(self, tmp_path, capsys):
        trace = write(tmp_path / "t.csv", "sample,Ft,Ff,Fp\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an escaping warning would exit 3
            assert main(["segment", "--trace", trace]) == 1
        assert "trace needs at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("n, what", [
        (0, "trace needs at least 2 samples"),
        (30, "trace of 30 samples is too short for min_seg_len=20"),
    ])
    def test_segment_names_a_trace_it_cannot_segment(self, tmp_path, capsys, n, what):
        trace = write(tmp_path / "t.csv", "sample,Ft,Ff,Fp\n" + "".join(
            f"{i},200,100,50\n" for i in range(n)))
        series = tmp_path / "s.csv"
        assert main(["segment", "--trace", trace, "--series-out", str(series)]) == 1
        err = capsys.readouterr().err
        assert f"{trace}: {what}" in err and "internal error" not in err
        assert not series.exists()


class TestParallelChains:
    """``fit`` and ``run`` write the same files whatever the worker count,
    and a failure in a worker or a stage exits with its documented code."""

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--output-dir", str(data), "--n-experiments", "5",
              "--n-points", "30", "--seed", "2"])
        return data

    @staticmethod
    def fit(data, out, tag):
        draws, summary = out / f"draws_{tag}.csv", out / f"summary_{tag}.csv"
        code = main(["fit", "--controls", str(data / "controls.csv"),
                     "--series-dir", str(data), "--chains", "3", "--warmup", "60",
                     "--samples", "40", "--seed", "4", "--draws-out", str(draws),
                     "--summary-out", str(summary)])
        return code, draws, summary

    @staticmethod
    def run_config(tmp_path):
        return write(tmp_path / "run.yaml", "\n".join([
            "seed: 5",
            "output_dir: out",
            "controls: data/controls.csv",
            "series_dir: data",
            "channels: [Ft]",
            "sampler: {chains: 2, warmup: 60, samples: 40}",
        ]))

    def test_fit_files_do_not_depend_on_workers(self, tmp_path, monkeypatch, data):
        files = []
        for n in (1, 2):
            monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: n)
            code, draws, summary = self.fit(data, tmp_path, n)
            assert code in (0, 2)
            files.append((draws.read_bytes(), tio.chains_path(draws).read_bytes(),
                          summary.read_bytes()))
        assert files[0] == files[1]

    def test_run_manifest_does_not_depend_on_workers(self, tmp_path, monkeypatch, data):
        cfg = self.run_config(tmp_path)
        manifests = []
        for n in (1, 2):
            monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: n)
            assert main(["run", "--config", cfg]) in (0, 2)
            manifests.append((tmp_path / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert "draws_life.csv" in json.loads(manifests[0])["artifacts"]

    @staticmethod
    def raw_run_config(tmp_path):
        """A run on 5 short raw traces, with a short life fit and no force channel."""
        main(["simulate", "--output-dir", str(tmp_path / "raw"), "--raw", "--n-experiments",
              "5", "--n-points", "60", "--seed", "3"])
        return write(tmp_path / "raw.yaml", "\n".join([
            "seed: 5", "output_dir: raw_out", "controls: raw/controls.csv", "traces_dir: raw",
            "channels: []", "sampler: {chains: 2, warmup: 30, samples: 20}",
        ]))

    def test_run_from_traces_does_not_depend_on_workers(self, tmp_path, monkeypatch):
        cfg, out, files = self.raw_run_config(tmp_path), tmp_path / "raw_out", []
        for n in (1, 2):
            monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: n)
            assert main(["run", "--config", cfg]) in (0, 2)
            names = ["manifest.json", "changepoints.csv",
                     *(f"series/series_{i}.csv" for i in range(1, 6))]
            files.append({name: (out / name).read_bytes() for name in names})
            for path in (out / "series").iterdir():
                path.unlink()
        assert files[0] == files[1]

    @pytest.mark.parametrize("fault", ["malformed row", "missing trace"])
    def test_segment_error_in_a_worker_keeps_its_exit_code(self, tmp_path, monkeypatch, capsys,
                                                          fault):
        cfg, raw = self.raw_run_config(tmp_path), tmp_path / "raw"
        if fault == "malformed row":
            lines = (raw / "trace_2.csv").read_text().splitlines()
            lines[40] = "39,forty,1.0,2.0"
            (raw / "trace_2.csv").write_text("\n".join(lines) + "\n")
            what = f"{raw / 'trace_2.csv'}:41: malformed row"
        else:
            (raw / "trace_3.csv").unlink()
            what = str(raw / "trace_3.csv")
        monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: 2)
        assert main(["run", "--config", cfg]) == 1
        assert what in capsys.readouterr().err
        manifest = json.loads((tmp_path / "raw_out" / "manifest.json").read_text())
        assert manifest["failed_stage"].startswith("segment: ")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fault", ["no contact", "short trace"])
    def test_run_names_a_trace_it_cannot_segment(self, tmp_path, monkeypatch, capsys, fault,
                                                workers):
        cfg, raw = self.raw_run_config(tmp_path), tmp_path / "raw"
        if fault == "no contact":  # trace_2 never rises above the 50 N contact threshold
            path, what = raw / "trace_2.csv", "no segment mean exceeds contact threshold 50.0"
            lines = path.read_text().splitlines()
            body = [f"{i},1.0,0.5,0.25" for i in range(len(lines) - 1)]
        else:  # the first trace keeps only its first 30 samples
            path, what = raw / "trace_1.csv", "trace of 30 samples is too short for min_seg_len=20"
            lines = path.read_text().splitlines()
            body = lines[1:31]
        path.write_text("\n".join([lines[0], *body]) + "\n")
        monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: workers)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {what}" in err and "internal error" not in err
        manifest = json.loads((tmp_path / "raw_out" / "manifest.json").read_text())
        assert manifest["failed_stage"] == f"segment: {path}: {what}"

    @staticmethod
    def python(code, *args):
        """The last line ``code`` prints when run with ``args`` in a fresh
        interpreter that imports this package."""
        src = str(Path(toolwear.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                              capture_output=True, text=True).stdout.splitlines()[-1]

    def test_cli_import_loads_no_worker_pool(self):
        """``import toolwear.cli`` does not import ``multiprocessing``: only a stage
        that runs on more than one worker pays for it, not every command's start-up."""
        loaded = self.python("import sys, toolwear.cli; print(sorted(sys.modules))")
        assert "'toolwear.cli'" in loaded and "'multiprocessing'" not in loaded

    def test_cli_start_up_loads_no_lapack(self):
        """Importing the CLI and building its parser leaves ``scipy.linalg``
        (about half of a command's start-up) unloaded."""
        assert self.python("import sys, toolwear.cli as c; c.build_parser(); "
                           "print('scipy.linalg' in sys.modules)") == "False"

    def test_pipeline_import_loads_lapack(self):
        assert self.python("import sys, toolwear.pipeline; "
                           "print('scipy.linalg' in sys.modules)") == "True"

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["design", "--v-min", "20", "--v-max", "60", "--f-min", "20", "--f-max", "50",
          "--n-initial", "3", "-o", "{tmp}/design.csv"], 0),
        (["diagnose", "--draws", "{tmp}/draws.csv"], 0),
        (["fit", "--controls", "{tmp}/controls.csv", "--chains", "1"], 1),
        (["run", "--config", "{tmp}/run.yaml"], 1),
    ])
    def test_commands_without_linear_algebra_load_no_lapack(self, tmp_path, argv, code):
        """Options are checked, and ``design`` and ``diagnose`` run, without
        ``scipy.linalg``; ``run``'s config lacks ``controls``."""
        tio.write_draws_csv(tmp_path / "draws.csv", make_chainset(np.random.default_rng(4)))
        write(tmp_path / "run.yaml", "seed: 1\noutput_dir: out\n")
        out = self.python("import sys; from toolwear.cli import main; code = main(sys.argv[1:]); "
                          "print(code, 'scipy.linalg' in sys.modules)",
                          *(a.format(tmp=tmp_path) for a in argv))
        assert out == f"{code} False"

    @pytest.mark.parametrize("command", ["fit", "predict", "run"])
    def test_workers_fork_after_lapack_is_loaded(self, tmp_path, data, command):
        """Every ``fork_map`` a command makes finds ``scipy.linalg.lapack`` already
        imported, so no forked worker imports it again. The spy replaces
        ``sampler.fork_map`` before ``pipeline`` and ``predict`` are imported,
        and they must bind it too."""
        fit = ["fit", "--controls", str(data / "controls.csv"), "--series-dir", str(data),
               "--chains", "2", "--warmup", "30", "--samples", "20",
               "--draws-out", str(tmp_path / "draws.csv"),
               "--summary-out", str(tmp_path / "summary.csv")]
        if command == "predict":
            assert main(fit) in (0, 2)
        argv = {"fit": fit,
                "predict": ["predict", "--draws", str(tmp_path / "draws.csv"), "--controls",
                            str(data / "controls.csv"), "-o", str(tmp_path / "surface.csv")],
                "run": ["run", "--config", self.run_config(tmp_path)]}[command]
        out = self.python("""
import sys
from toolwear import cli, sampler
seen, fork_map = [], sampler.fork_map
def spy(fn, n):
    seen.append('scipy.linalg.lapack' in sys.modules)
    return fork_map(fn, n)
sampler.fork_map, sampler._worker_count = spy, lambda n_tasks: 2
code = cli.main(sys.argv[1:])
bound = all(sys.modules[m].fork_map is spy for m in ('toolwear.pipeline', 'toolwear.predict'))
print(code in (0, 2), bound, len(seen), all(seen))""", *argv)
        calls = {"fit": 1, "predict": 1, "run": 4}[command]  # run: fit and predict, Ft and life
        assert out == f"True True {calls} True"

    def test_error_in_a_worker_keeps_its_exit_code(self, tmp_path, monkeypatch, data, capsys):
        def invalid(self, u):
            raise InvalidDataError("non-finite measurements")

        monkeypatch.setattr(ForceChannelModel, "logp_grad", invalid)
        monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 2)
        code, draws, _ = self.fit(data, tmp_path, "bad")
        assert code == 1
        assert "error: non-finite measurements" in capsys.readouterr().err
        assert not draws.exists()

    def test_run_writes_manifest_on_any_error(self, tmp_path, monkeypatch, data, capsys):
        def dead_worker(*args, **kwargs):
            raise RuntimeError("a worker process died")

        monkeypatch.setattr(pipeline, "run_chains", dead_worker)
        assert main(["run", "--config", self.run_config(tmp_path)]) == 3
        assert "RuntimeError: a worker process died" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "fit:Ft: a worker process died"
        assert manifest["stages"] == ["load", "load-series", "fit:Ft"]
