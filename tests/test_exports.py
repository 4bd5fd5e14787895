"""The package's public names, and the names its examples import, all resolve."""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path

import pytest

import toolwear

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert toolwear.__all__
    missing = [name for name in toolwear.__all__ if not hasattr(toolwear, name)]
    assert not missing
    assert len(set(toolwear.__all__)) == len(toolwear.__all__)


STAR_IMPORT = """
import sys
from importlib import import_module
import toolwear
listed = set(toolwear.__all__) <= set(dir(toolwear))
names = {}
exec("from toolwear import *", names)
wrong = []
for name in toolwear.__all__:
    module = import_module(f"toolwear.{toolwear._SOURCE[name]}")
    obj = getattr(module, name)
    if names[name] is not obj or getattr(obj, "__module__", module.__name__) != module.__name__:
        wrong.append(name)
try:
    toolwear.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(listed, wrong, toolwear.surface is toolwear.predict.surface, unknown)
"""


def test_star_import_binds_each_name_to_its_defining_module():
    """In a fresh interpreter, where every name loads on first use: ``from
    toolwear import *`` binds each ``__all__`` name to the object of the
    submodule that defines it, ``dir`` lists them all, and an unknown name
    raises AttributeError."""
    src = str(Path(toolwear.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", STAR_IMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "True [] True module 'toolwear' has no attribute 'no_such_name'"


# The source of README's Python blocks and of each demo script, by name
EXAMPLES = {"README": "".join(re.findall(r"```python\n(.*?)```",
                                         (ROOT / "README.md").read_text(encoding="utf-8"), re.S)),
            **{path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "demos").glob("*.py"))}}


def unresolved_imports(source):
    """``(imported, unresolved)`` names that ``source`` imports from ``toolwear``
    and its submodules, found with ``ast``, so nothing of ``source`` runs."""
    imported, unresolved = [], []
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").split(".")[0] == "toolwear":
            module = import_module(stmt.module)
            for alias in stmt.names:
                name = f"{stmt.module}.{alias.name}"
                imported.append(name)
                if not (hasattr(module, alias.name)
                        or hasattr(module, "__path__") and find_spec(name)):
                    unresolved.append(name)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name.split(".")[0] == "toolwear":
                    imported.append(alias.name)
                    if not find_spec(alias.name):
                        unresolved.append(alias.name)
    return imported, unresolved


@pytest.mark.parametrize("name", EXAMPLES)
def test_examples_import_only_names_that_resolve(name):
    """Tier-1 runs neither the demos nor README's example; a public name they
    import that is deleted or renamed fails here."""
    imported, unresolved = unresolved_imports(EXAMPLES[name])
    assert imported and not unresolved


def test_unresolved_import_is_reported():
    source = ("from toolwear import io, surface, gp_conditional\n"
              "from toolwear.kernel import cross_cov\nimport toolwear.no_such_module\n")
    assert unresolved_imports(source) == (
        ["toolwear.io", "toolwear.surface", "toolwear.gp_conditional", "toolwear.kernel.cross_cov",
         "toolwear.no_such_module"],
        ["toolwear.gp_conditional", "toolwear.kernel.cross_cov", "toolwear.no_such_module"])
