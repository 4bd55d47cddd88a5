"""Monte Carlo yield tier: sampling determinism, invariance, oracle.

The contract under test: the same ``(spreads, samples, seed)`` triple
produces bitwise-identical parameter multipliers and identical yield
numbers no matter how the lanes are sharded or spread across
workers — and every batched lane remains a faithful stand-in for the
scalar solver (1e-9 phase bar).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.parallel import CACHE_ENV_VAR
from repro.josim import montecarlo
from repro.josim.cells import build_hcdro_cell
from repro.josim.montecarlo import (
    LANES_NAMESPACE,
    ParameterSpec,
    SpreadSpec,
    YieldConfig,
    apply_multipliers,
    hcdro_parameter_specs,
    main,
    run_lanes,
    run_yield_analysis,
    sample_multipliers,
    verify_against_scalar,
)
from repro.josim.solver import BatchedTransientSolver


#: Small-but-nontrivial study used by the invariance tests: 18 lanes.
SMALL = YieldConfig(samples=6, seed=97, read_scales=(0.95, 1.0, 1.05))


def _report_key(report):
    """Everything in a report that must be invariant to scheduling."""
    return (report.yield_percent, report.scale_yield,
            report.margin_mean_percent, report.margin_p5_percent,
            report.margin_p50_percent, report.margin_p95_percent,
            report.sensitivity)


class TestParameterSpecs:
    def test_hcdro_parameters_enumerated(self):
        labels = {spec.label for spec in hcdro_parameter_specs()}
        assert labels == {"J1.ic", "J2.ic", "J3.ic",
                          "L1.l", "L2.l", "L3.l", "LOUT.l",
                          "IB1.bias", "IB2.bias"}

    def test_zero_sigma_class_is_omitted(self):
        specs = hcdro_parameter_specs(SpreadSpec(sigma_l=0.0))
        assert all(spec.kind != "l" for spec in specs)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma_ic"):
            SpreadSpec(sigma_ic=-0.1)


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        specs = hcdro_parameter_specs()
        first = sample_multipliers(specs, 100, seed=5)
        second = sample_multipliers(specs, 100, seed=5)
        assert first.shape == (100, len(specs))
        np.testing.assert_array_equal(first, second)

    def test_different_seed_differs(self):
        specs = hcdro_parameter_specs()
        assert not np.array_equal(sample_multipliers(specs, 10, seed=1),
                                  sample_multipliers(specs, 10, seed=2))

    def test_multipliers_clipped_positive(self):
        specs = hcdro_parameter_specs(SpreadSpec(sigma_ic=50.0,
                                                 sigma_l=50.0,
                                                 sigma_bias=50.0))
        multipliers = sample_multipliers(specs, 200, seed=3)
        assert float(multipliers.min()) >= 0.05

    def test_apply_multipliers_updates_derived_constants(self):
        handles = build_hcdro_cell()
        specs = hcdro_parameter_specs()
        row = np.ones(len(specs))
        row[[spec.label for spec in specs].index("L2.l")] = 1.5
        baseline_inv_l = handles.circuit.element("L2").inv_l
        apply_multipliers(handles, specs, row)
        assert handles.circuit.element("L2").inv_l == pytest.approx(
            baseline_inv_l / 1.5)

    def test_apply_multipliers_row_length_checked(self):
        handles = build_hcdro_cell()
        with pytest.raises(ConfigError, match="entries"):
            apply_multipliers(handles, hcdro_parameter_specs(), np.ones(2))


class TestSchedulingInvariance:
    def test_shard_size_does_not_change_results(self):
        reference = run_yield_analysis(SMALL, workers=1)
        resharded = run_yield_analysis(
            dataclasses.replace(SMALL, shard_lanes=4), workers=1)
        assert _report_key(resharded) == _report_key(reference)

    def test_worker_count_does_not_change_results(self):
        reference = run_yield_analysis(
            dataclasses.replace(SMALL, shard_lanes=5), workers=1)
        fanned = run_yield_analysis(
            dataclasses.replace(SMALL, shard_lanes=5), workers=2)
        assert _report_key(fanned) == _report_key(reference)

    def test_same_seed_same_report(self):
        assert (_report_key(run_yield_analysis(SMALL, workers=1))
                == _report_key(run_yield_analysis(SMALL, workers=1)))


def _forbid_simulation(monkeypatch):
    def run_reduced(self, *args, **kwargs):
        raise AssertionError("a cache hit must not simulate")
    monkeypatch.setattr(BatchedTransientSolver, "run_reduced", run_reduced)


#: One changed value per outcome-relevant YieldConfig field.
VARIANTS = {
    "samples": 7,
    "seed": 98,
    "spreads": SpreadSpec(sigma_ic=0.03),
    "read_scales": (0.9, 1.0, 1.1),
    "writes": 2,
    "reads": 3,
    "write_amplitude_ua": 610.0,
    "read_amplitude_ua": 455.0,
    "j2_bias_ua": 76.0,
    "pulse_width_ps": 3.5,
    "pulse_spacing_ps": 26.0,
    "settle_ps": 31.0,
    "timestep_ps": 0.04,
    "record_every": 10,
}


class TestLaneCache:
    """``run_lanes`` memoises integer outcomes under montecarlo-lanes-v1."""

    @pytest.fixture
    def simulations(self, monkeypatch):
        """Stand-in simulator: records each study it is asked to run."""
        calls = []

        def simulate(config, multipliers, specs, workers):
            calls.append(config)
            return [(3, 0, 3)] * config.lanes

        monkeypatch.setattr(montecarlo, "_simulate_lanes", simulate)
        return calls

    @staticmethod
    def _lanes(config, tmp_path, specs=None, multipliers=None, workers=1):
        specs = specs if specs is not None else hcdro_parameter_specs(
            config.spreads)
        if multipliers is None:
            multipliers = sample_multipliers(specs, config.samples,
                                             config.seed)
        return run_lanes(config, multipliers, specs, workers=workers,
                         cache=tmp_path)

    def test_warm_rerun_builds_no_lanes(self, tmp_path, monkeypatch):
        cold = run_yield_analysis(SMALL, workers=1, cache=tmp_path)
        assert cold.lanes_per_sec > 0.0
        _forbid_simulation(monkeypatch)
        warm = run_yield_analysis(SMALL, workers=1, cache=tmp_path)
        assert warm.elapsed_s == 0.0 and warm.lanes_per_sec == 0.0
        assert warm == dataclasses.replace(cold, elapsed_s=0.0,
                                           lanes_per_sec=0.0)
        assert len(list((tmp_path / LANES_NAMESPACE).iterdir())) == 1

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch,
                                     simulations):
        monkeypatch.chdir(tmp_path)
        config = dataclasses.replace(SMALL, samples=2)
        specs = hcdro_parameter_specs(config.spreads)
        multipliers = sample_multipliers(specs, config.samples, config.seed)
        for _ in range(2):
            run_lanes(config, multipliers, specs, workers=1)
        assert len(simulations) == 2
        assert list(tmp_path.iterdir()) == []

    def test_variants_cover_every_outcome_field(self):
        fields = {f.name for f in dataclasses.fields(YieldConfig)}
        assert set(VARIANTS) == fields - {"shard_lanes"}

    @pytest.mark.parametrize("field_name", sorted(VARIANTS))
    def test_config_field_change_misses(self, tmp_path, simulations,
                                        field_name):
        self._lanes(SMALL, tmp_path)
        changed = dataclasses.replace(SMALL,
                                      **{field_name: VARIANTS[field_name]})
        self._lanes(changed, tmp_path)
        assert simulations == [SMALL, changed]

    def test_multiplier_change_misses(self, tmp_path, simulations):
        specs = hcdro_parameter_specs(SMALL.spreads)
        multipliers = sample_multipliers(specs, SMALL.samples, SMALL.seed)
        self._lanes(SMALL, tmp_path, multipliers=multipliers)
        nudged = multipliers.copy()
        nudged[0, 0] = np.nextafter(nudged[0, 0], 2.0)
        self._lanes(SMALL, tmp_path, multipliers=nudged)
        assert len(simulations) == 2

    def test_parameter_spec_change_misses(self, tmp_path, simulations):
        specs = hcdro_parameter_specs(SMALL.spreads)
        multipliers = sample_multipliers(specs, SMALL.samples, SMALL.seed)
        self._lanes(SMALL, tmp_path, specs=specs, multipliers=multipliers)
        respread = tuple(ParameterSpec(spec.element, spec.kind,
                                       2.0 * spec.sigma) for spec in specs)
        self._lanes(SMALL, tmp_path, specs=respread, multipliers=multipliers)
        assert len(simulations) == 2

    @pytest.mark.parametrize("shard_lanes, workers",
                             [(4, 1), (SMALL.shard_lanes, 2)],
                             ids=["shard_lanes", "workers"])
    def test_scheduling_change_hits(self, tmp_path, simulations,
                                    shard_lanes, workers):
        first = self._lanes(SMALL, tmp_path)
        resharded = dataclasses.replace(SMALL, shard_lanes=shard_lanes)
        again = self._lanes(resharded, tmp_path, workers=workers)
        assert again == first
        assert simulations == [SMALL]

    def test_runner_rerun_matches_except_throughput(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")

        def run_text():
            assert runner.main(["montecarlo"]) == 0
            lines = capsys.readouterr().out.splitlines()
            throughput = [ln for ln in lines if ln.startswith("throughput:")]
            assert len(throughput) == 1
            rest = [ln for ln in lines if not ln.startswith("throughput:")]
            return rest, throughput[0]

        cold, cold_throughput = run_text()
        _forbid_simulation(monkeypatch)
        warm, warm_throughput = run_text()
        assert warm == cold
        assert "lanes/sec" in cold_throughput
        assert warm_throughput == "throughput: cached (0 lanes simulated)"


class TestScalarOracle:
    def test_batched_lanes_match_scalar_oracle(self):
        """Acceptance bar: >= 32 sampled lanes, max |dphi| <= 1e-9."""
        config = YieldConfig(samples=11, seed=13,
                             read_scales=(0.95, 1.0, 1.05))
        deviation = verify_against_scalar(config, lanes=32)
        assert deviation <= 1e-9, f"max |dphi| = {deviation:.3e}"


class TestRollups:
    def test_report_shapes_and_ranges(self):
        report = run_yield_analysis(SMALL, workers=1)
        assert 0.0 <= report.yield_percent <= 100.0
        assert set(report.scale_yield) == {0.95, 1.0, 1.05}
        assert report.margin_p5_percent <= report.margin_p50_percent
        assert report.margin_p50_percent <= report.margin_p95_percent
        labels = {spec.label for spec in hcdro_parameter_specs()}
        assert set(report.sensitivity) == labels

    def test_zero_spread_yields_100_percent(self):
        config = YieldConfig(
            samples=2, seed=1,
            spreads=SpreadSpec(sigma_ic=0.0, sigma_l=0.0, sigma_bias=0.0),
            read_scales=(1.0,))
        report = run_yield_analysis(config, workers=1)
        assert report.yield_percent == 100.0
        assert report.sensitivity == {}

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="samples"):
            YieldConfig(samples=0)
        with pytest.raises(ConfigError, match="read_scales"):
            YieldConfig(read_scales=())
        with pytest.raises(ConfigError, match="record_every"):
            YieldConfig(record_every=0)


class TestCLI:
    def test_json_output(self, capsys):
        code = main(["--samples", "3", "--seed", "2", "--scales", "1.0",
                     "--workers", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 3
        assert payload["lanes"] == 3
        assert 0.0 <= payload["yield_percent"] <= 100.0

    def test_human_output_with_verify(self, capsys):
        code = main(["--samples", "3", "--seed", "2", "--scales", "1.0",
                     "--workers", "1", "--verify", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "parametric yield" in out
        assert "scalar-oracle max |dphi|" in out

    def test_bad_scales_exits_nonzero(self, capsys):
        assert main(["--scales", "abc"]) == 2
        assert "bad --scales" in capsys.readouterr().err


class TestLintCleanliness:
    def test_sampled_testbench_decks_pass_lint(self):
        """Every deck the MC driver builds must satisfy the deck rules."""
        from repro.josim.montecarlo import _build_lane
        from repro.lint import check_deck

        config = YieldConfig(samples=4, seed=21)
        specs = hcdro_parameter_specs()
        multipliers = sample_multipliers(specs, config.samples, config.seed)
        for sample in range(config.samples):
            handles, _, _ = _build_lane(config, specs, multipliers[sample],
                                        read_scale=1.0)
            issues = check_deck(handles.circuit, name=f"mc-sample-{sample}")
            assert issues == [], [str(issue) for issue in issues]
