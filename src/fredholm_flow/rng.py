"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
``(seed, role)`` with the step index in the counter, so a stream is a pure
function of those integers: evaluation order, worker count and whether other
streams were consumed never change it.  Runs that share a seed share their
noise by construction, which is what couples the stability comparisons.
"""
from __future__ import annotations

# numpy loads numpy.random on first use; importing it here keeps that cost in
# the package import rather than in the first draw of a run, and inside the
# CLI's imports, which load it without OpenSSL: numpy.random imports secrets,
# whose hmac would map libcrypto, and no keyed Philox stream needs it (see cli)
from numpy.random import Generator, Philox

ROLE_NOISE = 1
ROLE_MINIBATCH = 2
ROLE_INIT = 3
ROLE_OBSERVATIONS = 4
ROLE_FOLDS = 5
ROLE_MISSPEC = 6

_MASK64 = (1 << 64) - 1


def stream(seed: int, role: int, step: int = 0) -> Generator:
    """Generator for one (seed, role, step) cell of the key space."""
    bitgen = Philox(key=[seed & _MASK64, role & _MASK64], counter=[step & _MASK64, 0, 0, 0])
    return Generator(bitgen)


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministically fold indices into a 64-bit child seed."""
    out = seed & _MASK64
    for ix in indices:
        # splitmix64-style mixing; constants are the usual ones
        out = (out + 0x9E3779B97F4A7C15 + (ix & _MASK64)) & _MASK64
        out ^= out >> 30
        out = (out * 0xBF58476D1CE4E5B9) & _MASK64
        out ^= out >> 27
        out = (out * 0x94D049BB133111EB) & _MASK64
        out ^= out >> 31
    return out
