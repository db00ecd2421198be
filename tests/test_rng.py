import numpy as np
import pytest

import arnorm.rng as rng_module
from arnorm.rng import (
    REPLICATION_BLOCK,
    derive_seed,
    map_replications,
    substream,
)


class TestSubstream:
    def test_same_key_same_stream(self):
        a = substream(7, 1, 2).standard_normal(8)
        b = substream(7, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(7, 1, 2).standard_normal(8)
        b = substream(7, 1, 3).standard_normal(8)
        c = substream(7, 2, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_structure_matters(self):
        # (1, 2) and (12,) must not collide: the key is a tuple, not a digest
        a = substream(7, 1, 2).standard_normal(4)
        b = substream(7, 12).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_root_stream_reproduces(self):
        # with no key, the stream of a seed alone, as simulate_ar opens it
        a = substream(5).standard_normal(4)
        b = substream(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonsense(self):
        with pytest.raises(TypeError):
            substream(3.5)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 0) == derive_seed(3, 0)
        assert derive_seed(3, 0) != derive_seed(3, 1)

    def test_fits_in_numpy_seed_range(self):
        for key in range(20):
            val = derive_seed(123456789, key)
            assert 0 <= val < 2**63
            np.random.default_rng(val)  # accepted as a seed


def _stream_and_count(stream, count):
    return stream, count


class TestSubstreams:
    """``rng._walk`` gives block ``k`` of 64 replications ``substream(seed, k)``."""

    SEEDS = [0, 1, 12345, 20240801, 2**62 + 12345, 2**64 + 7, 2**130 + 99, 2**200 + 3]
    # blocks from 0 and off 0; keys of one, two and three 32-bit words
    RANGES = [(0, 300), (37, 70), (4094, 4098), (2**32 - 2, 2**32 + 2),
              (2**40 + 3, 2**40 + 4), (2**63 + 1, 2**63 + 2), (2**64 - 1, 2**64 + 1)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", RANGES)
    def test_matches_substream(self, seed, start, stop):
        # replications of blocks start..stop-1, the last block one short
        first, last = start * REPLICATION_BLOCK, stop * REPLICATION_BLOCK - 1
        parts = rng_module._walk(_stream_and_count, (), seed, REPLICATION_BLOCK, first, last)
        assert len(parts) == stop - start
        for key, (stream, count) in zip(range(start, stop), parts):
            assert count == min(REPLICATION_BLOCK, last - key * REPLICATION_BLOCK)
            np.testing.assert_array_equal(
                stream.standard_normal(5), substream(seed, key).standard_normal(5)
            )

    def test_empty_range(self):
        assert rng_module._walk(_stream_and_count, (), 5, 64, 640, 640) == []
        assert rng_module._walk(_stream_and_count, (), 5, 64, 640, 192) == []

    def test_negative_seed_rejected_before_iteration(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            rng_module._walk(_stream_and_count, (), -1, 64, 0, 0)

    def test_off_edge_start_rejected(self):
        with pytest.raises(ValueError, match="start 37 is not a multiple of 64"):
            rng_module._walk(_stream_and_count, (), 5, 64, 37, 200)


@pytest.mark.parametrize("derive", [substream, derive_seed])
def test_negative_seed_named_in_error(derive):
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        derive(-1)


def _draws(stream, count):
    return {"x": stream.random(count)}


def _record(calls, stream, count):
    calls.append((stream, count))
    return _draws(stream, count)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestMapReplications:
    @pytest.mark.parametrize("workers, cpus, processes", [(64, 2, 2), (3, 8, 3)])
    def test_pool_capped_at_available_cpus(self, monkeypatch, workers, cpus, processes):
        # 200 replications are four blocks, so 64 workers get four pieces and
        # 3 get three; only the process count is capped, and no process is
        # started here
        monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(rng_module, "_available_cpus", lambda: cpus)
        _InlinePool.sizes = []
        split = map_replications(_draws, (), 5, 200, 64, workers=workers)
        assert _InlinePool.sizes == [processes]
        np.testing.assert_array_equal(split["x"], map_replications(_draws, (), 5, 200, 64)["x"])

    def test_pieces_cut_at_block_edges(self, monkeypatch):
        # 201 replications are four 64-replication blocks, the last partial;
        # three pieces take whole blocks, so no block is split between them
        monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _InlinePool)
        walk, pieces = rng_module._walk, []

        def recording_walk(*args):
            pieces.append(args[-2:])
            return walk(*args)

        monkeypatch.setattr(rng_module, "_walk", recording_walk)
        map_replications(_draws, (), 5, 201, 64, workers=3)
        assert pieces == [(0, 64), (64, 128), (128, 201)]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_reps", [1, 63, 64, 65, 201])
    @pytest.mark.parametrize("rows", [1, 7, 64, 300])
    def test_block_contract(self, monkeypatch, rows, n_reps, workers):
        # each call takes at most min(rows, 64) replications of one block,
        # with that block's stream; the streams are substream(seed, k) in
        # order, and the joined output is in replication order
        monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _InlinePool)
        calls = []
        x = map_replications(_record, (calls,), 9, n_reps, rows, workers)["x"]
        streams, done = [], 0
        for stream, count in calls:
            assert 1 <= count <= min(rows, REPLICATION_BLOCK)
            assert done // REPLICATION_BLOCK == (done + count - 1) // REPLICATION_BLOCK
            if done % REPLICATION_BLOCK == 0:
                assert all(stream is not s for s in streams)
                streams.append(stream)
            assert stream is streams[-1]
            done += count
        assert done == n_reps == x.size
        expected = [substream(9, k).random(min(REPLICATION_BLOCK, n_reps - k * REPLICATION_BLOCK))
                    for k in range(len(streams))]
        np.testing.assert_array_equal(x, np.concatenate(expected))

    def test_rows_below_one_give_one_replication_per_call(self):
        # a table on a grid finer than 2**15 points asks for 0 rows
        calls = []
        map_replications(_record, (calls,), 9, 3, 0)
        assert [count for _, count in calls] == [1, 1, 1]
