"""The package's public names: every export resolves, once, in order."""

import spheredeconv


def test_all_names_resolve():
    missing = [name for name in spheredeconv.__all__ if not hasattr(spheredeconv, name)]
    assert missing == []


def test_all_is_unique_and_sorted():
    names = spheredeconv.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)
