"""Tests for deterministic seed derivation."""

from robustvar._seeds import MASK64, derive_seed


def test_derive_path_separation():
    # different paths to the same depth never collide, and swapping
    # components changes the stream
    assert derive_seed(0, 0, 1) != derive_seed(0, 1, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(0, 0, 0)


def test_derive_deterministic_and_in_range():
    for args in [(0,), (1, 2), (2**63, 5, 7, 11)]:
        a, b = derive_seed(*args), derive_seed(*args)
        assert a == b
        assert 0 <= a <= MASK64
