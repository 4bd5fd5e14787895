"""The package's public names all resolve."""

import os
import subprocess
import sys
from pathlib import Path

import toolwear


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
