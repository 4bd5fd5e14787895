"""Tests for file formats, run configuration, and the command-line interface."""

import json
import math

import numpy as np
import pytest

from toolwear import io as tio
from toolwear.cli import main
from toolwear.errors import ValidationError
from toolwear.predict import ToolLifeModel
from toolwear.sampler import ChainSet


def write(path, text):
    path.write_text(text)
    return str(path)


def make_chainset(rng, m=2, n=25, k=3):
    return ChainSet(
        draws=rng.normal(size=(m, n, k)),
        param_names=[f"p{i}" for i in range(k)],
        n_warmup=10, n_retained=n, seed=0,
        accept_stats=np.full(m, 0.85), divergences=np.zeros(m, dtype=int),
    )


class TestControlsIO:
    def test_rows_with_tool_life(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "id,v_c,f,tool_life\n7,20,45,255\n10,58,22.5,10\n")
        records = tio.load_controls(path)
        assert [r.id for r in records] == [7, 10]
        assert records[0].v_c == 20.0 and records[0].f == 45.0
        assert records[0].tool_life == 255.0
        assert records[1].tool_life == 10.0

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,v_c,f\n")
        assert tio.load_controls(path) == []

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

    def test_npz_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        chains = make_chainset(rng, m=3, n=17, k=5)
        path = tmp_path / "d.npz"
        tio.write_draws_npz(path, chains)
        back = tio.read_draws_npz(path)
        assert np.array_equal(back.draws, chains.draws)
        assert back.param_names == chains.param_names
        assert np.array_equal(back.divergences, chains.divergences)

    def test_fmt_roundtrips_floats(self):
        rng = np.random.default_rng(11)
        for x in rng.normal(scale=1e6, size=50):
            assert float(tio.fmt(x)) == x
        assert float(tio.fmt(math.pi)) == math.pi


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
        ]))

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
                     "--threshold", "1.5"])
        assert code == 0
        code = main(["diagnose", "--draws", str(draws),
                     "--threshold", "1.0000001"])
        assert code == 2

        surf = tmp_path / "surface.csv"
        code = main(["predict", "--draws", str(draws),
                     "--controls", str(data / "controls.csv"),
                     "--channel", "Ft", "-o", str(surf)])
        assert code == 0
        assert surf.read_text().startswith("v_c,f,mean,sd")
        assert len(surf.read_text().strip().splitlines()) == 401

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

    def test_taylor_prints_closed_form(self, tmp_path, capsys):
        path = write(tmp_path / "life.csv",
                     "v_c,life\n20,255\n58,10\n")
        assert main(["taylor", "--input", path]) == 0
        out = capsys.readouterr().out
        n = float([ln for ln in out.splitlines() if ln.startswith("n =")][0][4:])
        assert n == pytest.approx(math.log(58 / 20) / math.log(255 / 10), rel=1e-12)

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
        assert "draws_Ft.csv" in manifest["artifacts"]

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
        code = main(["run", "--config", cfg, "--seed", "9",
                     "--output-dir", str(tmp_path / "out2")])
        assert code in (0, 2)
        manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
