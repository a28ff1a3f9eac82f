"""The package's public name list."""

import rankloc


def test_all_names_resolve_sorted_and_unique():
    names = rankloc.__all__
    for name in names:
        assert getattr(rankloc, name, None) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
