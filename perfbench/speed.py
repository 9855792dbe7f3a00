"""Machine-speed probe: a fixed slice of work that does not use eprkit.

On a shared host the same code runs up to twice as slow while neighbours
are busy, in bursts of a few hundred milliseconds that fill most of some
minutes and little of others. An operation of a second averages over
those bursts, so its time moves with the neighbours' load by 15-30% from
one half minute to the next, and no statistic over a run's operation
times alone removes that; a run can even hold no unloaded moment at all.
The probe slows down with the same load: run.py runs it between
operations and scales each operation's time by the probes just before
and just after it.

The probe does the three kinds of work eprkit does: dense
eigendecompositions of 64 x 64 complex Hermitian matrices (the N = 8 sum
projectors), vectorized integer hashing and searches over a 2^16 array
(the sampler), and small Kronecker products whose cost is mostly numpy
call overhead (the projector builds). Its inputs are fixed, so it is the
same work in every run and commit.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20251200497)
_m = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_HERM = (_m + _m.conj().T) / 2
_KEYS = np.arange(1, 1 << 16, dtype=np.uint64)
_CDF = np.cumsum(_rng.uniform(size=64))
_CDF /= _CDF[-1]
_MUL = np.uint64(0xBF58476D1CE4E5B9)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_EYE = np.eye(8, dtype=complex)


def _work() -> float:
    """About a third each of dense eigensolves, array streaming and small-array call overhead."""
    total = 0.0
    for _ in range(2):
        total += float(np.linalg.eigh(_HERM)[0][0])
    x = _KEYS * _MUL
    x ^= x >> np.uint64(27)
    u = (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    total += float(np.bincount(np.searchsorted(_CDF, u, side="right"), minlength=65)[0])
    for _ in range(50):
        total += float(np.kron(_SMALL, _EYE)[0, 0].real)
    return total


def probe() -> float:
    """Seconds of one run of the fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
