"""The exit-code contract, over mutations of the files the package reads.

Each example takes one file as the package writes it (controls, series,
trace, draws, the draws' sidecar, a controls table read as a Taylor table)
or a run config, mutates it once from a catalogue, and runs the command that
reads it through ``cli.main`` in-process. Whatever the mutation:

- the exit is 0, 1 or 2, never 3, and no internal error is printed;
- a refusal raised by the file's ``io`` reader names the file, and is the
  error the command prints;
- an exit-0 command prints and writes only finite numbers;
- no numpy ``RuntimeWarning`` escapes (each is raised as an error).
"""

import itertools
import re
import shutil

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toolwear import io as tio
from toolwear import sampler
from toolwear.cli import main
from toolwear.errors import ValidationError

SHORT_FIT = ["--chains", "2", "--warmup", "4", "--samples", "4", "--max-tree-depth", "2",
             "--seed", "1"]
NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def fit_argv(channel):
    return ["fit", "--controls", "data/controls.csv", "--series-dir", "data", "--channel", channel,
            *SHORT_FIT, "--draws-out", "out/draws.csv", "--summary-out", "out/summary.csv"]


DIAGNOSE = ["diagnose", "--draws", "draws.csv", "--summary-out", "out/summary.csv"]
# kind -> (file, relative to the working directory; the command that reads it; its reader)
KINDS = {
    "controls": ("data/controls.csv", fit_argv("life"), tio.load_controls),
    "taylor": ("data/controls.csv", ["taylor", "--input", "data/controls.csv"], tio.load_taylor),
    "series": ("data/series_2.csv", fit_argv("Ft"), tio.load_series),
    "trace": ("raw/trace_1.csv", ["segment", "--trace", "raw/trace_1.csv", "--series-out",
                                  "out/series.csv", "--report-out", "out/report.csv"],
              tio.load_trace),
    "draws": ("draws.csv", DIAGNOSE, tio.read_draws),
    "sidecar": ("draws.chains.csv", DIAGNOSE, lambda path: tio.read_draws("draws.csv")),
    "config": ("run.yaml", ["run", "--config", "run.yaml"], tio.load_yaml),
}
MUTATIONS = ["cell", "drop-row", "double-row", "permute-header", "bom", "not-utf8", "cut-last-line"]
EXAMPLE = itertools.count()  # each example's working directory


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A directory of the files each kind mutates, written by the package."""
    root = tmp_path_factory.mktemp("written")
    assert main(["simulate", "--output-dir", str(root / "data"), "--n-experiments", "4",
                 "--n-points", "6", "--seed", "3"]) == 0
    assert main(["simulate", "--output-dir", str(root / "raw"), "--raw", "--n-experiments", "1",
                 "--n-points", "30", "--seed", "3"]) == 0
    assert main(["fit", "--controls", str(root / "data" / "controls.csv"), "--channel", "life",
                 *SHORT_FIT, "--draws-out", str(root / "draws.csv"),
                 "--summary-out", str(root / "summary.csv")]) in (0, 2)
    (root / "run.yaml").write_text(yaml.safe_dump({
        "seed": 1, "output_dir": "out", "controls": "data/controls.csv", "series_dir": "data",
        "channels": [], "sampler": {"chains": 2, "warmup": 4, "samples": 4, "max_tree_depth": 2},
    }, sort_keys=False))
    (root / "out").mkdir()  # where the commands under test write
    return root


def mutate(data: bytes, mutation: str, sep: str, draw) -> bytes:
    """``data`` with one ``mutation`` applied; ``sep`` splits a line into cells."""
    if mutation == "bom":
        return b"\xef\xbb\xbf" + data
    if mutation == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    lines = data.decode().splitlines(keepends=True)
    if mutation == "cut-last-line":
        last = lines.pop()
        return ("".join(lines) + last[:draw(st.integers(0, len(last) - 1))]).encode()
    i = 0 if mutation == "permute-header" else draw(st.integers(0, len(lines) - 1))
    body = lines[i].rstrip("\r\n")
    end, cells = lines[i][len(body):], body.split(sep)
    if mutation == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "", "x"]))
    elif mutation == "permute-header":
        cells = draw(st.permutations(cells))
    lines[i:i + 1] = {"drop-row": [], "double-row": [lines[i]] * 2}.get(
        mutation, [sep.join(cells) + end])
    return "".join(lines).encode()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning must not reach the user
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(KINDS)), st.sampled_from(MUTATIONS), st.data())
def test_every_input_fault_keeps_the_exit_contract(written, tmp_path, monkeypatch, capsys,
                                                   kind, mutation, data):
    monkeypatch.setattr(sampler, "_worker_count", lambda n_tasks: 1)  # chains in-process
    name, argv, reader = KINDS[kind]
    work = tmp_path / f"example{next(EXAMPLE)}"
    shutil.copytree(written, work)
    monkeypatch.chdir(work)
    (work / name).write_bytes(mutate((work / name).read_bytes(), mutation,
                                     ": " if kind == "config" else ",", data.draw))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "internal error" not in err, err
    try:
        reader(name)
    except ValidationError as exc:
        assert str(exc).startswith(f"{name}:"), exc
        assert code == 1 and f"error: {exc}" in err, err
    if code == 0:
        new = [p for p in work.rglob("*.csv") if not (written / p.relative_to(work)).exists()]
        texts = [p.read_text() for p in new]
        if kind != "config":  # ``run`` prints a path, which the mutated config may name
            texts.append(out)
        assert not [t for t in texts if NOT_FINITE.search(t)], texts
