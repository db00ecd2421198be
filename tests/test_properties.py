"""Property tests (hypothesis) for contracts the example-based tests pin at a few points.

* a table written by ``save_table`` loads back bit for bit;
* a number file (table or series) reads as one ``float()`` per line would
  read it: the same bits, or the same message naming the same bad line;
* a Monte Carlo p-value lies in (0, 1] and does not increase with the
  observed value;
* both statistics are invariant under ``a + 2**k * x``: bit for bit in the
  power-of-two scale, to rounding in the shift;
* the fit refuses a noiseless series at every scale and shift: a ramp or
  an alternating series at order 2, ``a + 2**k * x`` with the message it
  gives at ``k = 0``, and values that differ only in their last bits at
  orders 0 and 1;
* tables and pipeline statistics do not change with the number of workers,
  and a table's samples recur in a longer run with the same seed.

Examples are derandomized, so every run checks the same cases, and capped so
the module stays within a few seconds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arnorm import (
    ArModel,
    Gaussian,
    SeriesSample,
    StatKind,
    fit_ar,
    load_table,
    save_table,
    simulate_ar,
    simulate_limit_tables,
)
from arnorm.errors import DegenerateDataError
from arnorm.gof_tests import (
    kolmogorov_from_transforms,
    omega2_from_transforms,
    probability_transforms,
)
from arnorm.limit_law import LimitLawTable, _read_numbers, mc_p_value
from arnorm.power_lab import pipeline_statistics
from oracles import read_numbers_by_float

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# each example starts a process pool, so these run fewer examples
WORKER_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw, max_reps=200):
    # null tables only: the file format holds no other law
    samples = np.sort(np.array(draw(st.lists(finite, min_size=1, max_size=max_reps))))
    return LimitLawTable(
        kind=draw(st.sampled_from(StatKind)),
        shift=None,
        samples=samples,
        grid_size=draw(st.integers(2, 1 << 20)),
        n_reps=samples.size,
        seed=draw(st.integers(0, 2**63 - 1)),
    )


def _bits(array):
    return np.asarray(array, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property-tables")


@PROPERTY_SETTINGS
@given(table=tables(), comments=st.lists(st.text("abc =:0.9-", max_size=20), max_size=3))
def test_table_save_load_roundtrip_is_bit_exact(table_dir, table, comments):
    path = table_dir / "table.txt"
    save_table(table, path, comments=comments)
    back = load_table(path)
    assert (back.kind, back.grid_size, back.n_reps, back.seed) == (
        table.kind, table.grid_size, table.n_reps, table.seed)
    np.testing.assert_array_equal(_bits(back.samples), _bits(table.samples))
    assert back.shift is None


_COMMENTS = st.text("abc =:0.9-#", max_size=12).map(lambda text: "#" + text)
_BLANKS = st.sampled_from(["", " ", "\t"])
_PADDING = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def number_files(draw):
    """Text of a number file: leading comments, then ``repr`` floats with
    comments, blank lines, padding and at most one bad line among them."""
    lines = draw(st.lists(_COMMENTS, max_size=3))
    body = [repr(x) for x in draw(st.lists(finite, max_size=40))]
    extras = draw(st.lists(st.one_of(_COMMENTS, _BLANKS), max_size=3))
    if draw(st.booleans()):
        extras.append(draw(st.sampled_from(["1.0 2.0", "nan", "abc"])))
    for extra in extras:
        body.insert(draw(st.integers(0, len(body))), extra)
    lines += [draw(_PADDING) + line + draw(_PADDING) for line in body]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _read_outcome(read, path):
    try:
        return _bits(read(path)).tolist()
    except ValueError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(text=number_files())
def test_number_file_reads_as_float_per_line(table_dir, text):
    path = table_dir / "numbers.txt"
    path.write_bytes(text.encode())
    assert _read_outcome(_read_numbers, path) == _read_outcome(read_numbers_by_float, path)


@PROPERTY_SETTINGS
@given(table=tables(), values=st.lists(finite, min_size=2, max_size=6))
def test_p_value_in_unit_interval_and_nonincreasing(table, values):
    p_values = [mc_p_value(table, v) for v in sorted(values)]
    assert all(0.0 < p <= 1.0 for p in p_values)
    assert all(a >= b for a, b in zip(p_values, p_values[1:]))


_MODELS = [(), (0.5,), (0.4, 0.25), (0.3, -0.2, 0.1)]


def _statistics(values, p):
    z = probability_transforms(fit_ar(SeriesSample.from_values(values, p)))
    return kolmogorov_from_transforms(z), omega2_from_transforms(z)


@PROPERTY_SETTINGS
@given(
    coeffs=st.sampled_from(_MODELS),
    n=st.integers(20, 400),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(min_value=-1e3, max_value=1e3),
    k=st.integers(-300, 300),
)
def test_statistics_invariant_under_shift_and_power_of_two_scale(coeffs, n, seed, c, k):
    model = ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
    x = simulate_ar(model, n, seed=seed).values
    p = len(coeffs)
    shifted = c + x
    # a + 2**k * x with a = c * 2**k is 2**k * (c + x), rounded the same way
    transformed = c * 2.0**k + 2.0**k * x
    np.testing.assert_array_equal(transformed, 2.0**k * shifted)
    base, moved, scaled = _statistics(x, p), _statistics(shifted, p), _statistics(transformed, p)
    assert scaled == moved
    assert moved == pytest.approx(base, rel=1e-9, abs=0.0)


def _refusal(values, p):
    """The message with which the fit refuses ``values``, or None."""
    try:
        fit_ar(SeriesSample.from_values(values, p))
    except DegenerateDataError as exc:
        return str(exc)
    return None


@PROPERTY_SETTINGS
@given(
    alternating=st.booleans(),
    n=st.integers(3, 400),
    slope=st.floats(min_value=1e-3, max_value=1e3),
    c=st.floats(min_value=-1e3, max_value=1e3),
    k=st.integers(-300, 300),
)
def test_noise_floor_free_of_power_of_two_scale(alternating, n, slope, c, k):
    # exact at order 2: v_t = 2 v_{t-1} - v_{t-2}, or v_t = v_{t-2}
    t = np.arange(n + 2.0)
    x = slope * ((-1.0) ** t if alternating else t)
    assert _refusal(2.0**k * x, 2) is not None
    # the shift rounds the series, but its noise stays rounding noise
    # against the series' largest magnitude; the scale is exact
    transformed = c * 2.0**k + 2.0**k * x
    np.testing.assert_array_equal(transformed, 2.0**k * (c + x))
    assert _refusal(transformed, 2) == _refusal(c + x, 2)
    assert _refusal(c + x, 2) is not None


@PROPERTY_SETTINGS
@given(
    steps=st.lists(st.integers(0, 3), min_size=3, max_size=400),
    c=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([-1.0, 1.0]),
    p=st.integers(0, 1),
    k=st.integers(-300, 300),
)
def test_last_bit_series_refused_at_every_scale(steps, c, sign, p, k):
    # a few units in the last place of c: the spread is rounding noise too
    x = sign * (c + np.spacing(c) * np.array(steps, dtype=float))
    assert _refusal(2.0**k * x, p) is not None


@WORKER_SETTINGS
@given(
    n_reps=st.integers(2, 300),
    grid_size=st.integers(2, 80),
    seed=st.integers(0, 2**63 - 1),
)
def test_tables_free_of_workers_and_run_length(n_reps, grid_size, seed):
    kinds = tuple(StatKind)
    serial = simulate_limit_tables(kinds, None, grid_size, n_reps, seed, workers=1)
    split = simulate_limit_tables(kinds, None, grid_size, n_reps, seed, workers=2)
    shorter = simulate_limit_tables(kinds, None, grid_size, n_reps // 2, seed)
    for kind in kinds:
        np.testing.assert_array_equal(_bits(split[kind].samples), _bits(serial[kind].samples))
        assert np.all(np.isin(shorter[kind].samples, serial[kind].samples))


@WORKER_SETTINGS
@given(n_reps=st.integers(1, 12), seed=st.integers(0, 2**63 - 1))
def test_pipeline_free_of_workers(n_reps, seed):
    model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
    kinds = tuple(StatKind)
    serial = pipeline_statistics(model, 60, kinds, n_reps, seed, workers=1)
    split = pipeline_statistics(model, 60, kinds, n_reps, seed, workers=2)
    for kind in kinds:
        np.testing.assert_array_equal(_bits(split[kind]), _bits(serial[kind]))
