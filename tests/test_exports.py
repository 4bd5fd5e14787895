"""The package's public names all resolve."""

import toolwear


def test_every_exported_name_resolves():
    assert toolwear.__all__
    missing = [name for name in toolwear.__all__ if not hasattr(toolwear, name)]
    assert not missing
    assert len(set(toolwear.__all__)) == len(toolwear.__all__)
