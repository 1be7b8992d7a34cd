"""Deterministic 64-bit seed derivation for the (cell, replication, retry) streams.

All randomness in the package flows through ``numpy.random.default_rng``
seeded with integers produced here or given by the caller, so results are
independent of thread or worker count as long as the same (seed, path) pairs
are used."""

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15  # floor(2^64 / golden ratio), odd


def _splitmix64(x: int) -> int:
    x = (x + GOLDEN64) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def derive_seed(seed: int, *path: int) -> int:
    """Child seed for the stream addressed by ``path``.

    Each path component (cell index, replication index, retry attempt, ...)
    is folded through splitmix64, so sibling streams and streams at different
    nesting depths never coincide.
    """
    s = seed & MASK64
    for part in path:
        s = _splitmix64(s ^ (((part + 1) * GOLDEN64) & MASK64))
    return s
