"""The package's public names."""

import semfl


def test_public_names_resolve():
    assert [name for name in semfl.__all__ if not hasattr(semfl, name)] == []
