"""The benchmark's traced names still resolve in the package.

``bench/run.py --trace 1`` wraps each target of ``bench/layers.py::trace_targets``
with ``bench/spans.py::instrument``: a plain name must be a module attribute,
and a ``"Class.method"`` must be defined in the class's own ``__dict__``
(an inherited method would be patched on the wrong class). A refactor that
renames or moves one of them breaks the traced run; this test catches it.
"""

import importlib.util
from pathlib import Path

import numpy as np

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.trace_targets()


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
