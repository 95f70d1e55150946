"""The package's public surface."""

import gridres


def test_every_exported_name_resolves():
    assert [name for name in gridres.__all__ if not hasattr(gridres, name)] == []
    assert len(set(gridres.__all__)) == len(gridres.__all__)
