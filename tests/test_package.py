"""The public namespace."""

import faskit


def test_every_exported_name_resolves():
    missing = [name for name in faskit.__all__ if not hasattr(faskit, name)]
    assert not missing
    assert len(set(faskit.__all__)) == len(faskit.__all__)
