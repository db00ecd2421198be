"""Deterministic random-stream derivation for reproducible Monte Carlo work.

All randomness in this package flows through numpy ``Generator`` objects
built from explicit integer seeds, by the rule ``PCG64(SeedSequence(seed,
spawn_key=key))``.  Replications come in blocks of 64, and each block draws
from its own child stream, ``substream(seed, r // 64)`` for replication
``r``.  :func:`map_replications` is the one code that opens these streams
and cuts the work, so results depend only on the seed and the replication
index, never on scheduling, on the worker count, or on block sizes.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

__all__ = ["substream", "derive_seed", "map_replications"]

# Replications per keyed stream; pieces of work start on multiples of it.
REPLICATION_BLOCK = 64


def _checked_seed(seed: int) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_count(name: str, value: int) -> None:
    if operator.index(value) < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _seed_sequence(seed: int, key=()) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        _checked_seed(seed), spawn_key=tuple(operator.index(k) for k in key)
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Child stream identified by an integer key path under ``seed``."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 63-bit integer seed derived from ``(seed, key)``, for nested use."""
    return int(_seed_sequence(seed, key).generate_state(1, dtype=np.uint64)[0] >> 1)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _walk(block, args, seed: int, rows: int, start: int, stop: int) -> list:
    """The parts ``block(*args, stream, count)`` for replications ``start..stop-1``.

    Block ``k`` of 64 replications opens ``substream(seed, k)`` once and
    hands it on in runs of at most ``rows``, so no run spans two streams.
    ``start`` must be a multiple of ``REPLICATION_BLOCK`` and ``seed``
    non-negative, else ``ValueError``.
    """
    _checked_seed(seed)
    if start % REPLICATION_BLOCK:
        raise ValueError(f"start {start} is not a multiple of {REPLICATION_BLOCK}")
    step = max(1, min(rows, REPLICATION_BLOCK))
    parts = []
    for lo in range(start, stop, REPLICATION_BLOCK):
        stream = substream(seed, lo // REPLICATION_BLOCK)
        hi = min(lo + REPLICATION_BLOCK, stop)
        parts.extend(block(*args, stream, min(step, hi - r)) for r in range(lo, hi, step))
    return parts


def map_replications(block, args, seed: int, n_reps: int, rows: int, workers: int = 1) -> dict:
    """Join ``block(*args, stream, count)`` over replications ``0..n_reps-1``.

    Replication ``r`` draws from ``stream = substream(seed, r // 64)`` after
    the earlier replications of its block.  Each call takes the next
    ``count`` replications of ``stream``, at most ``rows`` and at least one,
    and returns a dict of arrays with one entry per replication; the dicts
    are joined in replication order.  Pieces of whole blocks run on up to
    ``workers`` processes, capped at the CPU count, which does not change
    the output.
    """
    _check_count("n_reps", n_reps)
    _check_count("workers", workers)
    walk = partial(_walk, block, args, seed, rows)
    n_blocks = -(-n_reps // REPLICATION_BLOCK)
    pieces = min(workers, n_blocks)
    if pieces == 1:
        parts = walk(0, n_reps)
    else:
        bounds = np.minimum(np.arange(pieces + 1) * n_blocks // pieces * REPLICATION_BLOCK, n_reps)
        with ProcessPoolExecutor(max_workers=min(pieces, _available_cpus())) as pool:
            parts = [part for piece in pool.map(walk, bounds[:-1], bounds[1:]) for part in piece]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
