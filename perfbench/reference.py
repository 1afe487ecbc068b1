"""A fixed reference computation that tells how fast the machine is right now.

The host the benchmark runs on shares its cores with other guests, and its
speed moves by up to 2x in phases of seconds to minutes.  Every run times this
computation right after each operation, in the same process and thread, and
the normalized metrics divide each operation's time by the reference time
measured next to it.  Both see the same machine phase, so the phase cancels
and a change to facemark moves only the numerator.

The computation mixes the kinds of work facemark does, in roughly equal
shares of time: Python dispatch over dicts and small calls, many numpy ops
on small arrays, dense matrix products, a gather plus `np.add.at` scatter,
and a pass over arrays too large for the caches, which feels the memory
bandwidth other guests take.  Its inputs come from a fixed seed, never from the workload seed,
and it never calls facemark, so no change to the program can change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Normalized times are `op time * NOMINAL_S / reference time`: the time the
# operation would take if the reference took NOMINAL_S, about what one
# reference pass takes on a 2-core 2.0 GHz Xeon guest in a fast phase.
NOMINAL_S = 0.030

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(512, 256))
_B = _rng.normal(size=(256, 256))
_SMALL = [_rng.normal(size=(64, 16)) for _ in range(8)]
_IDX = _rng.integers(0, 16384, size=30_000)
_VALS = _rng.normal(size=(30_000, 8))
_TABLE = _rng.normal(size=(16384, 8))
_KEYS = [f"layer{i}.w" for i in range(32)]
_BIG = _rng.normal(size=2_000_000)
_BIG_OUT = np.empty_like(_BIG)


def _dispatch():
    d = {}
    for i in range(24_000):
        k = _KEYS[i % 32]
        d[k] = d.get(k, 0.0) + float(i)
    return {k: v for k, v in d.items() if k.startswith("layer1")}


def _small_ops():
    acc = np.zeros((64, 16))
    for i in range(600):
        a = _SMALL[i % 8]
        acc = acc + a * 0.5 - np.tanh(a)
    return acc


def _gemm():
    c = _A
    for _ in range(2):
        c = np.tanh(c @ _B)
    return c


def _scatter():
    out = np.zeros((16384, 8))
    np.add.at(out, _IDX, _VALS)
    return out + _TABLE[_IDX[:16384]]


def _stream():
    np.multiply(_BIG, 1.0001, out=_BIG_OUT)
    np.add(_BIG_OUT, _BIG, out=_BIG_OUT)


def run_once():
    _dispatch()
    _small_ops()
    _gemm()
    _scatter()
    _stream()


def time_reference(reps):
    """Seconds per pass of the reference, over `reps` back-to-back passes."""
    start = perf_counter()
    for _ in range(reps):
        run_once()
    return (perf_counter() - start) / reps
