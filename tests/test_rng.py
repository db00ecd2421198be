import numpy as np
import pytest

import arnorm.rng as rng_module
from arnorm.rng import derive_seed, make_rng, map_replications, substream, substreams


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


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 0) == derive_seed(3, 0)
        assert derive_seed(3, 0) != derive_seed(3, 1)

    def test_fits_in_numpy_seed_range(self):
        for key in range(20):
            val = derive_seed(123456789, key)
            assert 0 <= val < 2**63
            np.random.default_rng(val)  # accepted as a seed


class TestMakeRng:
    def test_accepts_int_and_generator(self):
        a = make_rng(5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        gen = make_rng(5)
        assert make_rng(gen) is gen

    def test_rejects_nonsense(self):
        with pytest.raises(TypeError):
            make_rng(3.5)


class TestSubstreams:
    """``substreams`` restates numpy's seeding; it must match ``substream`` bit for bit."""

    SEEDS = [0, 1, 12345, 20240801, 2**62 + 12345, 2**64 + 7, 2**130 + 99, 2**200 + 3]
    # from 0 and off 0; both sides of a 64-row path block and of a 4096-key
    # batch; keys of one, two and three 32-bit words
    RANGES = [(0, 300), (37, 70), (4094, 4098), (2**32 - 2, 2**32 + 2),
              (2**40 + 3, 2**40 + 4), (2**63 + 1, 2**63 + 2), (2**64 - 1, 2**64 + 1)]

    @staticmethod
    def _assert_match(seed, start, stop):
        draws = [stream.standard_normal(5) for stream in substreams(seed, start, stop)]
        assert len(draws) == stop - start
        for key, got in zip(range(start, stop), draws):
            np.testing.assert_array_equal(got, substream(seed, key).standard_normal(5))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", RANGES)
    def test_matches_substream(self, seed, start, stop):
        self._assert_match(seed, start, stop)

    def test_key_batches_do_not_change_streams(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_KEY_BATCH", 7)
        self._assert_match(20240801, 3, 40)

    def test_empty_range(self):
        assert list(substreams(5, 10, 10)) == []
        assert list(substreams(5, 10, 3)) == []

    def test_negative_seed_rejected_before_iteration(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            substreams(-1, 0, 0)

    def test_seeding_mismatch_raises(self, monkeypatch):
        # a numpy that hashed seeds differently must fail loudly, not drift
        monkeypatch.setattr(rng_module, "_MULT_B", rng_module._MULT_B ^ 1)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            next(substreams(20240801, 5, 9))


@pytest.mark.parametrize("derive", [make_rng, substream, derive_seed])
def test_negative_seed_named_in_error(derive):
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        derive(-1)


def _squares(offset, start, stop):
    return {"x": offset + np.arange(start, stop) ** 2}


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
        # the range is still cut into `workers` pieces; only the process
        # count is capped, and no process is started here
        monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(rng_module, "_available_cpus", lambda: cpus)
        _InlinePool.sizes = []
        split = map_replications(_squares, (5,), 200, workers=workers)
        assert _InlinePool.sizes == [processes]
        np.testing.assert_array_equal(split["x"], _squares(5, 0, 200)["x"])
