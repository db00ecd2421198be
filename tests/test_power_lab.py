import csv
import io
import tracemalloc

import numpy as np
import pytest

import arnorm.ar_process
import arnorm.limit_law
import arnorm.power_lab
from arnorm import ArModel, Gaussian, StatKind
from arnorm.ar_process import MAX_BURN_IN, LaplaceLaw, Mixture, StudentTLaw
from arnorm.estimation import MAX_ORDER
from arnorm.power_lab import (
    ExperimentSpec,
    PowerReport,
    pipeline_statistics,
    run_power_study,
    write_power_csv,
)
from arnorm.rng import derive_seed

from conftest import AR_COEFFS
from oracles import pipeline_statistics_by_replication

SUP = StatKind.KOLMOGOROV
BOTH = (SUP, StatKind.OMEGA2)


def _size_spec(**overrides):
    base = dict(
        model=ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0)),
        n=400,
        n_reps=400,
        alpha=0.05,
        seed=100,
        grid_size=128,
        limit_reps=20_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _power_spec(scale=2.0, n=400, **overrides):
    mixture = Mixture(sigma0=1.0, h=Gaussian(scale), n=n)
    base = dict(
        model=ArModel(coeffs=(0.5,), mean=0.0, innovation=mixture),
        n=n,
        n_reps=400,
        alpha=0.05,
        seed=200,
        grid_size=128,
        limit_reps=20_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _study_statistics(spec):
    """The sup statistics of a study's replications, recomputed."""
    seed = derive_seed(spec.seed, 2)
    return pipeline_statistics(spec.model, spec.n, (SUP,), spec.n_reps, seed)[SUP]


@pytest.fixture(scope="module")
def size_reports():
    # one two-statistic study of _size_spec(); its sup report equals that of
    # the sup-only study of the same spec
    return run_power_study(_size_spec(), BOTH)


@pytest.fixture(scope="module")
def half_level_stats(ar1_model):
    # one long pipeline run shared by the half-level checks below
    return pipeline_statistics(ar1_model, 2000, BOTH, 4000, seed=900)


class TestPipelineStatistics:
    def test_deterministic(self, ar1_model):
        a = pipeline_statistics(ar1_model, 200, BOTH, 40, seed=1)
        b = pipeline_statistics(ar1_model, 200, BOTH, 40, seed=1)
        for kind in BOTH:
            np.testing.assert_array_equal(a[kind], b[kind])

    def test_replications_use_independent_substreams(self, ar1_model):
        # each block of 64 replications draws in order from its own
        # substream, so a shorter run is a prefix of a longer one, also when
        # it stops inside a block
        long = pipeline_statistics(ar1_model, 200, BOTH, 300, seed=2)
        for n_reps in (20, 201):
            short = pipeline_statistics(ar1_model, 200, BOTH, n_reps, seed=2)
            for kind in BOTH:
                np.testing.assert_array_equal(short[kind], long[kind][:n_reps])

    def test_worker_count_invariance(self, ar1_model):
        # 201 replications: pieces of whole 64-replication blocks, the last
        # ending on a partial block
        serial = pipeline_statistics(ar1_model, 150, BOTH, 201, seed=3, workers=1)
        for workers in (2, 3):
            parallel = pipeline_statistics(ar1_model, 150, BOTH, 201, seed=3, workers=workers)
            for kind in BOTH:
                np.testing.assert_array_equal(serial[kind], parallel[kind])

    def test_warm_up_derived_once_per_model(self, monkeypatch):
        # the derivation costs a root radius and an impulse response; it runs
        # when the model is built, never once per replication
        calls = []
        radius = arnorm.ar_process.char_root_radius
        monkeypatch.setattr(arnorm.ar_process, "char_root_radius",
                            lambda coeffs: calls.append(1) or radius(coeffs))
        model = ArModel(coeffs=(0.5, -0.3), mean=0.0, innovation=Gaussian(1.0))
        assert len(calls) == 1
        pipeline_statistics(model, 50, BOTH, 200, seed=34)
        assert len(calls) == 1

    @pytest.mark.parametrize("exponent", [510, -540])
    def test_statistics_free_of_series_scale(self, exponent):
        # each row is scaled by a power of two before the fit, so a series at
        # 2**510 scale (whose squares overflow) or at 2**-540 (whose squares
        # underflow) gives the bits of the same series at unit scale
        scale = 2.0**exponent
        models = [
            ArModel(coeffs=(0.5,), mean=0.7 * s, innovation=Mixture(s, Gaussian(2.0 * s), 50))
            for s in (1.0, scale)
        ]
        unit, scaled = (pipeline_statistics(m, 50, BOTH, 150, seed=35) for m in models)
        for kind in BOTH:
            np.testing.assert_array_equal(scaled[kind], unit[kind])

    def test_statistics_are_positive(self, ar1_model):
        stats = pipeline_statistics(ar1_model, 200, BOTH, 30, seed=4)
        for kind in BOTH:
            assert np.all(stats[kind] > 0.0)


def _innovation(name, n):
    return {
        "gaussian": Gaussian(1.0),
        "laplace": LaplaceLaw(2.0),
        "mixture": Mixture(sigma0=1.0, h=Gaussian(3.0), n=n),
    }[name]


class TestBlockedPipeline:
    """The pipeline fits and tests its replications in blocks of
    ``_BLOCK_VALUES`` series values; every statistic must equal, bit for
    bit, that of its replication run alone."""

    @pytest.mark.parametrize("innovation", ["gaussian", "laplace", "mixture"])
    @pytest.mark.parametrize("p", sorted(AR_COEFFS))
    @pytest.mark.parametrize(
        "n, n_reps",
        # 64-row blocks, capped by the streams, and a partial last one; one
        # short block of 32 rows and a partial one; a row longer than a block
        [(30, 600), (500, 40), (16_400, 2)],
    )
    def test_matches_replication_loop(self, innovation, p, n, n_reps):
        model = ArModel(coeffs=AR_COEFFS[p], mean=0.7, innovation=_innovation(innovation, n))
        expected = pipeline_statistics_by_replication(model, n, BOTH, n_reps, seed=31)
        got = pipeline_statistics(model, n, BOTH, n_reps, seed=31)
        for kind in BOTH:
            np.testing.assert_array_equal(got[kind], expected[kind])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("p", sorted(AR_COEFFS))
    def test_matches_replication_loop_across_workers(self, p, workers):
        # 130 reps of n = 500 split into 64 + 66 rows at a stream block's
        # edge: each worker ends on a partial pipeline block of its own
        model = ArModel(coeffs=AR_COEFFS[p], mean=0.0, innovation=_innovation("mixture", 500))
        expected = pipeline_statistics_by_replication(model, 500, BOTH, 130, seed=32)
        got = pipeline_statistics(model, 500, BOTH, 130, seed=32, workers=workers)
        for kind in BOTH:
            np.testing.assert_array_equal(got[kind], expected[kind])

    def test_peak_memory_does_not_grow_with_replications(self, ar1_model):
        # A block holds a fixed number of values whatever n_reps is, and the
        # streams are opened one block of 64 replications at a time.  Only
        # the outputs grow: two kinds, the blocks' parts and the joined copy.
        pipeline_statistics(ar1_model, 2000, BOTH, 10, seed=33)  # lazy imports
        peaks = {}
        for n_reps in (200, 2000):
            tracemalloc.start()
            try:
                pipeline_statistics(ar1_model, 2000, BOTH, n_reps, seed=33)
                _, peaks[n_reps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        outputs = 2 * 2 * 8 * (2000 - 200)
        # a block sized by n_reps would add 1800 series of 2001 values, 29 MB
        assert peaks[2000] <= peaks[200] + outputs + 256 * 1024


class TestSizeStudy:
    def test_rejection_rate_near_level(self, size_reports):
        for kind in BOTH:
            report = size_reports[kind]
            assert abs(report.empirical_rejection_rate - 0.05) < 0.04
            assert report.asymptotic_power == 0.05
            assert report.asymptotic_stderr == 0.0

    def test_requires_gaussian_innovation(self):
        # the null is the normal law: a fixed non-normal iid law has no limit
        # table to compare with, and is refused when the spec is built
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=LaplaceLaw(1.0))
        with pytest.raises(ValueError, match="got LaplaceLaw"):
            _size_spec(model=model)

    @pytest.mark.parametrize("kind", BOTH, ids=lambda k: k.value)
    def test_rejection_rate_at_half_level(self, kind, null_tables, half_level_stats):
        # alpha = 0.5 puts the critical value at the median of the limit law,
        # where the density is high and any displacement between the finite-n
        # law and the table is amplified into a rate bias.  A sup table taken
        # over the grid points alone, without the continuity correction, sits
        # low and puts the sup statistic's rate near 0.56 at n = 500, 2000 and
        # 8000 alike: a table defect, not a finite-n effect.
        from arnorm import quantile

        critical = quantile(null_tables[kind], 0.5)
        rate = float(np.mean(half_level_stats[kind] > critical))
        assert abs(rate - 0.5) <= 0.04, f"{kind.value}: rate {rate:.4f}"

    def test_iid_case(self):
        spec = _size_spec(
            model=ArModel(coeffs=(), mean=2.0, innovation=Gaussian(1.5)), n=300
        )
        report = run_power_study(spec, (SUP,))[SUP]
        assert abs(report.empirical_rejection_rate - 0.05) < 0.04

    def test_stderr_matches_binomial_formula(self, size_reports):
        report = size_reports[SUP]
        rate = report.empirical_rejection_rate
        expected = np.sqrt(rate * (1.0 - rate) / _size_spec().n_reps)
        assert report.mc_stderr == pytest.approx(expected, rel=1e-12)

    def test_rate_from_pipeline_statistics(self):
        # a study's replications are pipeline_statistics under the seed
        # derive_seed(seed, 2)
        spec = _size_spec(n_reps=120)
        report = run_power_study(spec, (SUP,))[SUP]
        stats = _study_statistics(spec)
        assert stats.shape == (120,)
        rate = np.mean(stats > report.critical_value)
        assert rate == report.empirical_rejection_rate

    def test_stderr_consistent_with_batch_spread(self):
        # split the study's statistics into 10 batches; the spread of batch
        # rejection rates should be on the scale the binomial stderr predicts
        spec = _size_spec(n_reps=1000)
        report = run_power_study(spec, (SUP,))[SUP]
        rejected = _study_statistics(spec) > report.critical_value
        batch_rates = rejected.reshape(10, 100).mean(axis=1)
        batch_se = np.std(batch_rates, ddof=1) / np.sqrt(10)
        assert 0.2 * report.mc_stderr < batch_se < 5.0 * report.mc_stderr


class TestPowerStudy:
    def test_basic_report(self):
        reports = run_power_study(_power_spec(), BOTH)
        for kind in BOTH:
            report = reports[kind]
            assert 0.0 <= report.empirical_rejection_rate <= 1.0
            assert 0.0 <= report.asymptotic_power <= 1.0
            assert report.asymptotic_stderr > 0.0
            assert report.critical_value > 0.0

    def test_power_beats_level_for_strong_alternative(self):
        report = run_power_study(_power_spec(scale=3.0), (SUP,))[SUP]
        assert report.empirical_rejection_rate > 0.05 + 5.0 * report.mc_stderr

    def test_requires_mixture_innovation(self):
        # a fixed alternative is not the root-n contamination the shifted
        # limit table describes, and is refused when the spec is built
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=StudentTLaw(5, 1.0))
        with pytest.raises(ValueError, match="got StudentTLaw"):
            _power_spec(model=model)

    def test_mixture_coupling_enforced(self):
        # mixture built for one n must not silently drive an experiment at
        # another n: the contamination weight would be wrong.  Refused when
        # the spec is built, before any table is simulated.
        mixture = Mixture(sigma0=1.0, h=Gaussian(2.0), n=500)
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=mixture)
        with pytest.raises(ValueError, match="coupled"):
            ExperimentSpec(model=model, n=400, n_reps=400, alpha=0.05, seed=0)

    @pytest.mark.parametrize("make_spec, calls", [(_size_spec, 1), (_power_spec, 2)],
                             ids=["gaussian", "mixture"])
    def test_innovation_picks_the_tables(self, monkeypatch, make_spec, calls):
        # a Gaussian innovation is the null: the study simulates only the
        # null table, and its asymptotic rate is alpha exactly; a mixture
        # adds the shifted table
        seeds = []
        simulate = arnorm.power_lab.simulate_limit_tables
        monkeypatch.setattr(
            arnorm.power_lab, "simulate_limit_tables",
            lambda *args: seeds.append(args[4]) or simulate(*args),
        )
        spec = make_spec(n_reps=100, limit_reps=1000)
        reports = run_power_study(spec, BOTH)
        assert seeds == [derive_seed(spec.seed, 0), derive_seed(spec.seed, 1)][:calls]
        if calls == 1:
            for kind in BOTH:
                assert reports[kind].asymptotic_power == spec.alpha
                assert reports[kind].asymptotic_stderr == 0.0

    def test_null_mixture_power_near_level(self):
        report = run_power_study(_power_spec(scale=1.0, n_reps=500), (SUP,))[SUP]
        assert abs(report.empirical_rejection_rate - 0.05) < 0.04
        assert abs(report.asymptotic_power - 0.05) < 0.01

    def test_worker_count_invariance(self):
        spec = _power_spec(n_reps=120, limit_reps=5000)
        serial = run_power_study(spec, BOTH, workers=1)
        parallel = run_power_study(spec, BOTH, workers=2)
        for kind in BOTH:
            assert serial[kind].empirical_rejection_rate == parallel[kind].empirical_rejection_rate
            assert serial[kind].asymptotic_power == parallel[kind].asymptotic_power
            assert serial[kind].critical_value == parallel[kind].critical_value

    def test_finite_n_convergence_report(self, capsys):
        # soft evidence, reported rather than asserted: the gap between the
        # finite-n rejection rate and its limit should tend to shrink in n
        gaps = {}
        for n in (300, 1200):
            medians = []
            for seed in (0, 1, 2):
                spec = _power_spec(
                    scale=2.0, n=n, n_reps=150, seed=seed,
                    grid_size=128, limit_reps=10_000,
                )
                report = run_power_study(spec, (SUP,))[SUP]
                medians.append(
                    abs(report.empirical_rejection_rate - report.asymptotic_power)
                )
            gaps[n] = float(np.median(medians))
        print(f"[soft] finite-n power gap by n: {gaps}")
        for gap in gaps.values():
            assert 0.0 <= gap <= 1.0  # shape only; the trend is informational


class TestValidation:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            _size_spec(alpha=0.0)

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            _size_spec(n_reps=50)

    def test_over_budget_warm_up_refused(self):
        # the model itself is refused, so no spec of it, and no table, exists
        message = f"root radius 0.9999999 exceeds {MAX_BURN_IN} steps"
        with pytest.raises(ValueError, match=message):
            ArModel(coeffs=(0.9999999,), mean=0.0, innovation=Gaussian(1.0))
        with pytest.raises(TypeError, match="burn_in"):
            _size_spec(burn_in=10)

    def test_model_must_be_an_ar_model(self):
        # its order was read first, and a string had none
        with pytest.raises(TypeError, match="^model must be an ArModel, got str$"):
            _size_spec(model="ar1")

    def test_grid_size_and_seed(self):
        with pytest.raises(ValueError, match="grid_size must be at least 2, got 1"):
            _size_spec(grid_size=1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            _size_spec(seed=-1)

    def test_series_length(self):
        with pytest.raises(ValueError):
            _size_spec(n=1)
        # at order 0 one observation leaves one residual, exactly zero
        iid = ArModel(coeffs=(), mean=0.0, innovation=Gaussian(1.0))
        with pytest.raises(ValueError, match="n >= max"):
            _size_spec(model=iid, n=1)
        assert _size_spec(model=iid, n=2).n == 2

    @pytest.mark.parametrize("field, value", [("n", 400.0), ("n_reps", 400.0),
                                              ("grid_size", 128.0), ("limit_reps", 20_000.0)])
    def test_counts_must_be_integers(self, monkeypatch, field, value):
        # refused before a study simulates its null table
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated a table for a spec with a float count")

        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables", must_not_run)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            run_power_study(_size_spec(**{field: value}), (SUP,))

    def test_order_above_limit_rejected(self):
        model = ArModel(coeffs=[0.01] * (MAX_ORDER + 1), mean=0.0, innovation=Gaussian(1.0))
        message = f"^p must not exceed {MAX_ORDER}, got {MAX_ORDER + 1}$"
        with pytest.raises(ValueError, match=message):
            _size_spec(model=model)
        model = ArModel(coeffs=[0.01] * MAX_ORDER, mean=0.0, innovation=Gaussian(1.0))
        assert _size_spec(model=model).model.order == MAX_ORDER

    @pytest.mark.parametrize("kinds, message", [
        ([], "statistics must not be empty"),
        ("omega2", "statistics must be a collection of names, not the string 'omega2'"),
    ], ids=["empty", "name"])
    def test_selection_refused_before_any_stream(self, monkeypatch, ar1_model, kinds, message):
        def no_streams(*args, **kwargs):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(arnorm.limit_law, "map_replications", no_streams)
        monkeypatch.setattr(arnorm.power_lab, "map_replications", no_streams)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pipeline_statistics(ar1_model, 200, kinds, 100, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_power_study(_size_spec(), kinds)

    def test_kind_coerced_from_string(self):
        reports = run_power_study(_size_spec(n_reps=100, limit_reps=1000), ("omega2",))
        assert list(reports) == [StatKind.OMEGA2]


class TestCsvOutput:
    def _example_cells(self):
        report = PowerReport(
            empirical_rejection_rate=0.314,
            mc_stderr=0.01,
            asymptotic_power=0.35,
            asymptotic_stderr=0.002,
            critical_value=0.8826,
        )
        spec = _power_spec(n=2000, n_reps=1000, seed=7)
        return [("gauss-scale:2.0", spec, {StatKind.KOLMOGOROV: report})]

    def test_csv_shape_and_values(self):
        buf = io.StringIO()
        write_power_csv(self._example_cells(), file=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "n,alternative,statistic,alpha,empirical_power,stderr,asymptotic_power,"
            "asymptotic_stderr,critical_value,n_reps,seed"
        )
        reader = csv.DictReader(lines)
        records = list(reader)
        assert len(records) == 1
        rec = records[0]
        assert rec["n"] == "2000"
        assert rec["alternative"] == "gauss-scale:2.0"
        assert rec["statistic"] == "kolmogorov"
        assert rec["alpha"] == "0.05"
        # floats are written with repr, so they parse back exactly
        assert float(rec["empirical_power"]) == 0.314
        assert float(rec["critical_value"]) == 0.8826
        assert int(rec["n_reps"]) == 1000
        assert int(rec["seed"]) == 7

    def test_alternative_with_a_comma_is_quoted(self):
        # a bare comma split student:df,v into two fields of a 12-field row
        report = PowerReport(0.09, 0.0286, 0.085, 0.0197, 0.9575)
        spec = _power_spec(n=100, n_reps=100, seed=3)
        buf = io.StringIO()
        write_power_csv([("student:5,4.0", spec, dict.fromkeys(BOTH, report))], file=buf)
        lines = buf.getvalue().splitlines()
        assert [len(row) for row in csv.reader(lines)] == [11, 11, 11]
        records = list(csv.DictReader(lines))
        assert [rec["alternative"] for rec in records] == ["student:5,4.0"] * 2
        assert [rec["statistic"] for rec in records] == ["kolmogorov", "omega2"]
        assert lines[1] == (
            '100,"student:5,4.0",kolmogorov,0.05,0.09,0.0286,0.085,0.0197,0.9575,100,3'
        )
