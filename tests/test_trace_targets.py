"""The benchmark's traced names, and the package calls its checks make,
still resolve in the package.

``bench/run.py --trace 1`` wraps each target of ``bench/layers.py::trace_targets``
with ``bench/spans.py::instrument``: a plain name must be a module attribute,
and a ``"Class.method"`` must be defined in the class's own ``__dict__``
(an inherited method would be patched on the wrong class). A refactor that
renames or moves one of them breaks the traced run; this test catches it.
The workloads' checks (``bench/workloads.py``) read and write files through
``toolwear.io`` and rebuild the fitted model; a refactor that breaks those
calls breaks the benchmark's correctness checks, which tier-1 does not run.
"""

import importlib.util
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module ``bench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_bench("layers").trace_targets()


def test_every_trace_target_resolves():
    targets = load_targets()
    assert targets
    for module, attr, span, _ in targets:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            assert leaf in owner.__dict__, f"{span}: {attr} not defined on the class itself"
            assert callable(owner.__dict__[leaf]), span
        else:
            assert callable(getattr(module, leaf, None)), f"{span}: {module.__name__}.{leaf}"


def test_traced_life_density_is_the_model_class():
    """``predict.ToolLifeModel.logp_grad`` is traced through ``predict``, which
    imports the class from ``model``: both names must be the one class, or the
    traced span would patch a copy the fits never call."""
    import toolwear.model
    import toolwear.predict

    assert toolwear.predict.ToolLifeModel is toolwear.model.ToolLifeModel


def test_nuts_transition_reports_n_steps():
    from toolwear.sampler import nuts_transition

    def std_normal(x):
        return -0.5 * float(x @ x), -x

    x = np.zeros(2)
    _, stats = nuts_transition(x, std_normal, 0.5, np.random.default_rng(0), np.ones(2), 10,
                               *std_normal(x))
    assert stats["n_steps"] >= 1


def test_workload_checks_run_on_the_package(tmp_path):
    """``fit-force-k21``'s gradient check rebuilds the fitted model from the
    files its ``prepare`` writes, and ``postfit-surface`` writes its draws
    through ``toolwear.io``: both must still work, and the draws must read
    back bit for bit."""
    from toolwear import io as tio

    wl = load_bench("workloads")
    fit = wl.FitForce(tmp_path / "fit", 1)
    fit.prepare()
    model = fit._model()
    # near the least-squares fit, as posterior draws are: far out, the log
    # density is so large that a finite difference loses the digits checked
    a_hat = model.f_bar - model.b_hat * model.l_bar
    centre = np.r_[a_hat, model.b_hat, np.log(model.rss / (model.n - 2)), a_hat.mean(),
                   np.log(a_hat.var()), model.b_hat.mean(), np.zeros(4)]
    rng = np.random.default_rng(0)
    constrained = [model.constrain(centre + rng.uniform(-0.3, 0.3, model.dim)) for _ in range(2)]
    assert wl.logp_grad_errors(model, constrained) == []

    draws, names = wl.synthetic_life_draws(rng.uniform(10.0, 255.0, 21), rng, n_draws=20)
    wl.write_draws(tmp_path / "draws_life.csv", draws, names)
    back = tio.read_draws(tmp_path / "draws_life.csv")
    assert back.param_names == names
    assert back.draws.shape == draws.shape and back.draws.tobytes() == draws.tobytes()
