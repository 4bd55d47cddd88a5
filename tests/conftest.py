"""Shared fixtures for the HiPerRF reproduction test suite."""

from __future__ import annotations

import pytest

from repro.experiments.parallel import CACHE_ENV_VAR
from repro.pulse import Engine
from repro.rf.geometry import RFGeometry


@pytest.fixture(autouse=True)
def _no_ambient_result_cache(monkeypatch) -> None:
    """Ignore an exported ``REPRO_CACHE_DIR``.

    Otherwise a developer's cache would serve results that the tests
    mean to compute (the Monte Carlo shard/worker invariance tests would
    compare cache hits).  Tests that want a cache pass ``tmp_path``.
    """
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)


@pytest.fixture
def engine() -> Engine:
    """A fresh strict-timing pulse engine."""
    return Engine(strict_timing=True)


@pytest.fixture
def geo8() -> RFGeometry:
    """A small register file geometry used by pulse-level tests."""
    return RFGeometry(8, 8)


@pytest.fixture(params=[RFGeometry(4, 4), RFGeometry(16, 16), RFGeometry(32, 32)],
                ids=["4x4", "16x16", "32x32"])
def paper_geometry(request) -> RFGeometry:
    """The three geometries the paper's tables evaluate."""
    return request.param
