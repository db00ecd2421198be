"""Deterministic random-stream derivation for reproducible Monte Carlo work.

All randomness in this package flows through numpy ``Generator`` objects
built from explicit integer seeds.  Replicated or parallel work never shares
a stream: each unit of work derives its own child stream from the root seed
and an integer key path, so results depend only on ``(seed, key)`` and never
on scheduling, chunking, or worker count.

The derivation rule is ``PCG64(SeedSequence(seed, spawn_key=key))``; the
same pair always yields the same stream regardless of how many other
streams were created before it.  :func:`substreams` gives the streams of a
run of keys ``(r,)`` in those same states at a fraction of the cost, by
restating numpy's seeding arithmetic; it checks itself against
:func:`substream` on every call.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

__all__ = ["make_rng", "substream", "substreams", "derive_seed", "map_replications"]


def _checked_seed(seed: int) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _seed_sequence(seed: int, key=()) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        _checked_seed(seed), spawn_key=tuple(operator.index(k) for k in key)
    )


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """A Generator seeded by the integer ``seed``; a Generator passes through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Child stream identified by an integer key path under ``seed``."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64 seeding,
# restated so that the spawn keys of many substreams are hashed in one pass.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_KEY_BATCH = 4096  # keys hashed together; bounds the per-batch state lists


class _Hash:
    """SeedSequence's multiply-xorshift hash on uint32 arrays.  Its multiplier
    advances on every call whatever the values, so all keys share one
    sequence of multipliers."""

    def __init__(self, const: int, mult: int):
        self.const = const
        self.mult = mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x, y):
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ (result >> np.uint32(16))


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence reads an integer."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _run_pool(seed: int):
    """Pool and hash multiplier of ``SeedSequence(seed, spawn_key=k)`` after
    the run entropy, which is padded to the pool size when a key follows;
    the same for every key ``k``."""
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(np.array([w], dtype=np.uint32)) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(np.array([word], dtype=np.uint32)))
    return pool, hashmix.const


def _pcg64_states(run_pool, keys: range) -> list[dict]:
    """``PCG64.state`` of ``substream(seed, r)`` for each ``r`` in ``keys``."""
    pool, const = run_pool
    pool = [np.repeat(word, len(keys)) for word in pool]
    hashmix = _Hash(const, _MULT_A)
    for j in range(len(_words(keys[-1]))):
        # word j of a key exists from 2**(32 j) on; keys ascend
        shift = 32 * j
        has_word = slice(max(0, (1 << shift) - keys.start) if j else 0, None)
        key_words = np.array([(r >> shift) & _MASK32 for r in keys[has_word]], dtype=np.uint32)
        for dst in range(_POOL_SIZE):
            pool[dst][has_word] = _mix(pool[dst][has_word], hashmix(key_words))
    # generate_state(4, np.uint64): eight words cycling over the pool, paired
    # little-endian into (initstate high, low, initseq high, low)
    generate = _Hash(_INIT_B, _MULT_B)
    words = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    halves = [(words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg64_set_seed: state = 0; inc = 2 initseq + 1; step; state += initstate; step
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = (inc + ((s_hi << 64) | s_lo)) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": (state * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def substreams(seed: int, start: int, stop: int):
    """Iterator over the streams ``substream(seed, r)`` for ``r`` in ``start..stop-1``.

    Each Generator yielded is in exactly the state ``substream(seed, r)``
    starts in, but one Generator is re-seeded for every key: draw from it
    before taking the next.  The run entropy is hashed once, the keys of a
    batch together.  The first key is re-derived through :func:`substream`,
    and a mismatch (a numpy that seeds differently) raises ``RuntimeError``.
    """
    # not a generator itself, so a bad seed is rejected at the call
    run_pool = _run_pool(_checked_seed(seed))
    keys = range(operator.index(start), operator.index(stop))
    return _reseeded(seed, run_pool, keys)


def _reseeded(seed, run_pool, keys):
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for batch_start in range(keys.start, keys.stop, _KEY_BATCH):
        batch = range(batch_start, min(batch_start + _KEY_BATCH, keys.stop))
        states = _pcg64_states(run_pool, batch)
        if batch_start == keys.start:
            bit_generator.state = states[0]
            reference = substream(seed, batch_start).bit_generator
            if not np.array_equal(bit_generator.random_raw(4), reference.random_raw(4)):
                raise RuntimeError(
                    f"substreams({seed}, {batch_start}, ...) draws differ from "
                    f"substream({seed}, {batch_start}): numpy {np.__version__} seeds "
                    "SeedSequence or PCG64 differently from what arnorm.rng restates"
                )
        for state in states:
            bit_generator.state = state
            yield generator


def derive_seed(seed: int, *key: int) -> int:
    """A 63-bit integer seed derived from ``(seed, key)``, for nested use."""
    return int(_seed_sequence(seed, key).generate_state(1, dtype=np.uint64)[0] >> 1)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def map_replications(chunk, args, n_reps: int, workers: int = 1) -> dict:
    """Join ``chunk(*args, start, stop)`` over replications ``0..n_reps-1``.

    ``chunk`` returns a dict of per-replication arrays.  Each replication
    must draw from its own keyed substream and be computed on its own; the
    range is then cut into ``workers`` pieces without changing the output,
    and the pieces run on at most as many processes as there are CPUs.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or n_reps < 2 * workers:
        chunks = [chunk(*args, 0, n_reps)]
    else:
        bounds = np.linspace(0, n_reps, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=min(workers, _available_cpus())) as pool:
            chunks = list(pool.map(partial(chunk, *args), bounds[:-1], bounds[1:]))
    return {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
