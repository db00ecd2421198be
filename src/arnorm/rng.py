"""Deterministic random-stream derivation for reproducible Monte Carlo work.

All randomness in this package flows through numpy ``Generator`` objects
built from explicit integer seeds, by the rule ``PCG64(SeedSequence(seed,
spawn_key=key))``.  Replications come in blocks of 64, and each block draws
from its own child stream (:func:`replication_blocks`), so results depend
only on the seed and the replication index, never on scheduling, on the
worker count, or on chunks cut at 64-replication edges.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

__all__ = ["make_rng", "substream", "derive_seed", "map_replications", "replication_blocks"]

# Replications per keyed stream; chunks of work start on multiples of it.
REPLICATION_BLOCK = 64


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


def replication_blocks(seed: int, start: int, stop: int):
    """Iterator over ``(stream, lo, hi)`` for replications ``start..stop-1``.

    Replication ``r`` draws from ``substream(seed, r // REPLICATION_BLOCK)``
    after replications ``lo..r-1`` of its block ``lo..hi-1``.  ``start``
    must be a multiple of ``REPLICATION_BLOCK`` and ``seed`` non-negative,
    else ``ValueError``.
    """
    # not a generator itself, so a bad seed or start is rejected at the call
    _checked_seed(seed)
    if start % REPLICATION_BLOCK:
        raise ValueError(f"start {start} is not a multiple of {REPLICATION_BLOCK}")
    return ((substream(seed, b // REPLICATION_BLOCK), b, min(b + REPLICATION_BLOCK, stop))
            for b in range(start, stop, REPLICATION_BLOCK))


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

    ``chunk`` returns a dict of per-replication arrays, and must draw from
    the streams of :func:`replication_blocks`.  The range is cut into at
    most ``workers`` pieces at multiples of ``REPLICATION_BLOCK``, which
    does not change the output, and the pieces run on at most as many
    processes as there are CPUs.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_blocks = -(-n_reps // REPLICATION_BLOCK)
    pieces = min(workers, n_blocks)
    if pieces == 1:
        chunks = [chunk(*args, 0, n_reps)]
    else:
        bounds = np.minimum(np.arange(pieces + 1) * n_blocks // pieces * REPLICATION_BLOCK, n_reps)
        with ProcessPoolExecutor(max_workers=min(pieces, _available_cpus())) as pool:
            chunks = list(pool.map(partial(chunk, *args), bounds[:-1], bounds[1:]))
    return {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
