"""Tests for the shared experiment fan-out and on-disk result cache."""

from __future__ import annotations

import json

import pytest

from repro.experiments.parallel import (
    ResultCache,
    WORKERS_ENV_VAR,
    cached_call,
    cached_map,
    parallel_map,
    resolve_workers,
    stable_key,
)


def _square(x):
    return x * x


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_var_used(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers() == 5

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        assert resolve_workers() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestParallelMap:
    def test_order_preserved(self):
        assert parallel_map(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_serial_path(self):
        assert parallel_map(_square, [4], workers=1) == [16]
        assert parallel_map(_square, [], workers=8) == []

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError, match="bad 1"):
            parallel_map(boom, [1, 2], workers=1)


class TestStableKey:
    def test_deterministic_and_order_insensitive(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})
        assert stable_key([1, 2]) != stable_key([2, 1])

    def test_frozen_dataclasses_supported(self):
        from repro.cpu.config import CoreConfig

        assert stable_key(CoreConfig()) == stable_key(CoreConfig())

    def test_unserialisable_rejected(self):
        with pytest.raises(TypeError):
            stable_key(object())


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ns", {"k": 1}) is None
        cache.put("ns", {"k": 1}, {"v": 2.5})
        assert cache.get("ns", {"k": 1}) == {"v": 2.5}
        assert cache.hits == 1 and cache.misses == 1

    def test_namespaces_are_disjoint(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", "key", 1)
        cache.put("b", "key", 2)
        assert cache.get("a", "key") == 1
        assert cache.get("b", "key") == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ns", "key", 1)
        path = cache._path("ns", "key")
        path.write_text("{not json")
        assert cache.get("ns", "key") is None
        cache.put("ns", "key", 2)  # overwriting heals the entry
        assert cache.get("ns", "key") == 2

    @pytest.mark.parametrize("entry", [[], "x", 5, {"key": "key"}],
                             ids=["list", "string", "number", "no-value"])
    def test_wrong_shape_entry_is_a_miss(self, tmp_path, entry):
        cache = ResultCache(tmp_path)
        cache.put("ns", "key", 1)
        cache._path("ns", "key").write_text(json.dumps(entry))
        assert cache.get("ns", "key") is None
        assert cache.hits == 0 and cache.misses == 1
        cache.put("ns", "key", 2)  # overwriting heals the entry
        assert cache.get("ns", "key") == 2

    def test_failed_put_leaves_no_tmp_file(self, tmp_path):
        """A value ``json`` cannot encode raises and leaves nothing behind:
        the size budget counts only ``*.json``, so a stray tmp file
        would never be evicted."""
        import numpy as np

        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("ns", "k", {"b": np.int64(3)})
        assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []
        assert cache.get("ns", "k") is None

    def test_entries_record_their_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ns", {"scale": 0.5}, [1, 2])
        entry = json.loads(cache._path("ns", {"scale": 0.5}).read_text())
        assert entry["key"] == {"scale": 0.5}

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache.from_env()
        assert cache is not None and cache.root == tmp_path


class TestCachedCall:
    def test_second_call_skips_compute(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        assert cached_call("ns", {"q": 1}, compute, cache=cache)["answer"] == 42
        assert cached_call("ns", {"q": 1}, compute, cache=cache)["answer"] == 42
        assert len(calls) == 1

    def test_no_cache_always_computes(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        calls = []

        def compute():
            calls.append(1)
            return 1

        cached_call("ns", {}, compute)
        cached_call("ns", {}, compute)
        assert len(calls) == 2


class TestCachedMap:
    def test_only_misses_computed(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cached_map("ns", _square, [1, 2, 3], workers=1, cache=cache)
        assert first == [1, 4, 9]
        # Second sweep overlaps the first: only the new point computes.
        second = cached_map("ns", _square, [2, 3, 4], workers=1, cache=cache)
        assert second == [4, 9, 16]
        files = list((tmp_path / "ns").glob("*.json"))
        assert len(files) == 4

    def test_duplicates_computed_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def tracked(x):
            calls.append(x)
            return x + 1

        assert cached_map("ns", tracked, [5, 5, 5],
                          workers=1, cache=cache) == [6, 6, 6]
        assert calls == [5]

    def test_custom_keys(self, tmp_path):
        cache = ResultCache(tmp_path)

        class Opaque:
            def __init__(self, value):
                self.value = value

        points = [Opaque(2), Opaque(3)]
        result = cached_map("ns", lambda p: p.value * 10, points,
                            keys=[{"v": 2}, {"v": 3}], workers=1, cache=cache)
        assert result == [20, 30]
        assert cache.get("ns", {"v": 2}) == 20

    def test_key_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="keys"):
            cached_map("ns", _square, [1, 2], keys=[1],
                       workers=1, cache=ResultCache(tmp_path))

    def test_without_cache_degrades_to_parallel_map(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cached_map("ns", _square, [2, 3], workers=1) == [4, 9]


class TestExperimentIntegration:
    def test_scaling_cached_rerun_identical(self, tmp_path):
        from repro.experiments import scaling

        cache = ResultCache(tmp_path)
        cold = scaling.run(workers=1, cache=cache)
        warm = scaling.run(workers=1, cache=cache)
        assert cold == warm
        assert cache.hits >= len(scaling.SWEEP)

    def test_josim_sweep_reexports(self):
        from repro.josim import sweep

        assert sweep.resolve_workers(2) == 2
        assert sweep.sweep_map(_square, [2], workers=1) == [4]
        assert sweep.WORKERS_ENV_VAR == WORKERS_ENV_VAR
