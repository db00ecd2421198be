"""Deterministic random-stream derivation for reproducible Monte Carlo work.

All randomness in this package flows through numpy ``Generator`` objects
built from explicit integer seeds.  Replicated or parallel work never shares
a stream: each unit of work derives its own child stream from the root seed
and an integer key path, so results depend only on ``(seed, key)`` and never
on scheduling, chunking, or worker count.

The derivation rule is ``PCG64(SeedSequence(seed, spawn_key=key))``; the
same pair always yields the same stream regardless of how many other
streams were created before it.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

__all__ = ["make_rng", "substream", "derive_seed", "map_replications"]


def _seed_sequence(seed: int, key=()) -> np.random.SeedSequence:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=tuple(operator.index(k) for k in key))


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Coerce ``seed`` to a Generator; Generators pass through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = _seed_sequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


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
