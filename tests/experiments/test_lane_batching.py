"""Lane-batched sweeps elaborate their netlist exactly once.

The skew and fault studies replay every trial as a stimulus lane over
one cached build; the compiled-netlist cache's hit/miss counters are
the build spy.  Every lane must also report what a solo run of the
same trial reports.
"""

from __future__ import annotations

from repro.experiments import fault_study, skew
from repro.pulse import Engine
from repro.pulse.cache import DEFAULT_CACHE
from repro.rf.faults import (
    _HIPERRF_PERIOD_PS,
    _hiperrf_outcome,
    _schedule_hiperrf_trial,
)
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF

SMALL = RFGeometry(4, 8)  # 2 fault kinds x 4 registers x 4 columns


class TestSingleBuildPerSweep:
    def test_skew_sweep_builds_once(self):
        DEFAULT_CACHE.clear()
        rows = skew.run([-4.0, 0.0, 4.0])
        assert len(rows) == 3
        assert DEFAULT_CACHE.stats()["misses"] == 1

    def test_restore_ok_reuses_the_cached_build(self):
        DEFAULT_CACHE.clear()
        assert skew.restore_ok(0.0)
        assert skew.restore_ok(2.0)
        stats = DEFAULT_CACHE.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_fault_sweep_builds_once(self):
        DEFAULT_CACHE.clear()
        outcomes = fault_study.run_sweep(geometry=SMALL)
        assert len(outcomes) == 2 * 4 * 4
        assert DEFAULT_CACHE.stats()["misses"] == 1


def _solo_reference_trial(trial):
    """One fault trial live on a fresh reference (uncompiled) engine."""
    rf = PulseHiPerRF(Engine(strict_timing=True), SMALL, _HIPERRF_PERIOD_PS)
    settle = _schedule_hiperrf_trial(rf, trial)
    return _hiperrf_outcome(rf, trial, settle)


class TestSweepsMatchSoloRuns:
    def test_fault_sweep_matches_solo(self):
        outcomes = fault_study.run_sweep(geometry=SMALL)
        solo = [_solo_reference_trial(trial)
                for trial in fault_study.sweep_trials(SMALL)]
        assert outcomes == solo
        summary = fault_study.sweep_summary(outcomes)
        assert summary["drop_loopback_pulse"]["trials"] == 16
        assert summary["extra_data_pulse"]["trials"] == 16
        # A dropped loopback pulse corrupts whenever the struck column
        # held fluxons; an extra data pulse only bumps the count.
        assert summary["drop_loopback_pulse"]["state_corrupted"] > 0
        assert summary["extra_data_pulse"]["state_corrupted"] == 0

    def test_skew_sweep_matches_solo(self):
        skews = [-16.0, -4.0, 0.0, 8.0, 16.0]
        rows = skew.run(skews)
        assert rows == [{"skew_ps": s, "restored": float(skew.restore_ok(s))}
                        for s in skews]
        # the sweep spans both sides of the window edge
        assert {row["restored"] for row in rows} == {0.0, 1.0}
