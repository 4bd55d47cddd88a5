"""Self-tests of the benchmark harness (no service, no experiment run).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import loadgen  # noqa: E402
import tracer  # noqa: E402
from loadgen import Outcome, Request  # noqa: E402


def _schedule(seed):
    return [(r.index, r.phase, r.due_s, r.experiment,
             json.dumps(r.params, sort_keys=True), r.origin, r.source)
            for r in loadgen.build_requests(seed, 20.0)]


def test_same_seed_same_schedule():
    assert _schedule(7) == _schedule(7)
    assert _schedule(7) != _schedule(8)


def test_schedule_follows_rates_and_mix():
    requests = loadgen.build_requests(3, 20.0)
    for phase, rate, share in loadgen.PHASES:
        mine = [r for r in requests if r.phase == phase]
        assert len(mine) == round(rate * share * 20.0)
    kinds = {r.experiment for r in requests}
    assert kinds == {name for name, _ in loadgen.MIX}
    origins = {r.origin for r in requests}
    assert origins == {"fresh", "repeat", "share"}
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues)


def test_shared_margins_land_inside_the_window():
    requests = {r.index: r for r in loadgen.build_requests(5, 20.0)}
    shared = [r for r in requests.values() if r.origin == "share"]
    assert shared
    for request in shared:
        source = requests[request.source]
        assert abs(request.due_s - source.due_s
                   - loadgen.SHARE_OFFSET_S) < 1e-9
        assert set(request.params["scales"]) & set(source.params["scales"])
        assert request.phase == source.phase


def test_repeats_copy_what_was_sent():
    requests = {r.index: r for r in loadgen.build_requests(9, 20.0)}
    repeats = [r for r in requests.values() if r.origin == "repeat"]
    assert len(repeats) >= 0.8 * loadgen.REPEAT_SHARE * len(requests)
    for request in repeats:
        source = requests[request.source]
        assert source.index < request.index
        assert (request.experiment, request.params) == \
            (source.experiment, source.params)


def _outcome(index, due, sent=None, finished=None, ok=True, phase="heavy"):
    request = Request(index, phase, 0.0, "figure15", {})
    return Outcome(request, due_wall=due, sent_wall=sent,
                   finished_wall=finished, ok=ok)


def test_latency_counts_from_due_time_not_send_time():
    late = _outcome(0, due=100.0, sent=100.75, finished=101.0)
    assert late.latency_s == 1.0


def test_tail_keeps_ten_samples_beyond():
    for n in range(20, 300, 7):
        values = [float(i) for i in range(n)]
        tail, pct, samples = loadgen.tail_percentile(values)
        assert samples == n
        assert sum(1 for v in values if v > tail) == 10
        assert abs(pct - 100.0 * (n - 10) / n) < 1e-9
    tail, _, _ = loadgen.tail_percentile([3.0, 1.0, 2.0])
    assert tail == 2.0   # too few samples: the median


def test_failed_and_unfinished_jobs_are_misses():
    outcomes = [
        _outcome(0, due=0.0, finished=0.5),
        _outcome(1, due=0.0, finished=0.7),
        _outcome(2, due=0.0, ok=False),                 # failed
        _outcome(3, due=0.0, finished=None, ok=False),  # never finished
    ]
    stats = loadgen.phase_stats(outcomes, "heavy")
    assert stats["submitted"] == 4
    assert stats["failed"] == 2
    assert stats["done"] == 2
    assert stats["slo_frac"] == 0.5


def test_self_time_excludes_children():
    t = tracer.Tracer()
    outer = t.begin("outer")
    inner = t.begin("inner")
    t.end(inner)
    t.end(outer)
    summary = t.summary()
    child = summary["inner"]["total_s"]
    assert abs(summary["outer"]["self_s"]
               - (summary["outer"]["total_s"] - child)) < 1e-12
    assert [s[1] for s in t.spans] == [outer[0], 0]


def test_wrap_function_patches_every_importer():
    home = types.ModuleType("perfbench_fake_home")
    user = types.ModuleType("perfbench_fake_user")

    def work(x):
        return x + 1

    home.work = work
    user.work = work   # as after ``from perfbench_fake_home import work``
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        t = tracer.Tracer()
        replaced = tracer.wrap_function(t, home.__name__, "work", "fake.work",
                                        counter=lambda a, k, r: r)
        assert replaced == 2
        assert user.work(1) == 2 and home.work(2) == 3
        assert t.summary()["fake.work"]["calls"] == 2
        assert t.summary()["fake.work"]["count"] == 5
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_generator_time_is_charged_to_the_generator():
    class Source:
        def items(self, n):
            yield from range(n)

    module = types.ModuleType("perfbench_fake_gen")
    module.Source = Source
    sys.modules[module.__name__] = module
    try:
        t = tracer.Tracer()
        tracer.wrap_method(t, module.__name__, "Source.items", "fake.items",
                           generator=True)
        outer = t.begin("consumer")
        assert sum(Source().items(100)) == 4950
        t.end(outer)
        summary = t.summary()
        assert summary["fake.items"]["calls"] == 1
        assert abs(summary["consumer"]["self_s"]
                   - (summary["consumer"]["total_s"]
                      - summary["fake.items"]["total_s"])) < 1e-9
    finally:
        del sys.modules[module.__name__]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    workloads = json.loads((HERE / "workloads.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        [w["name"] for w in workloads["workloads"]]
    spans = {name for _, _, _, name, _ in layers.WRAPS}
    spans |= {f"service.dispatch.{kind}" for kind in layers.DISPATCH_KINDS}
    spans |= {f"experiments.{name}" for name in layers.EXPERIMENT_NAMES}
    for entry in workloads["interactions"]:
        assert set(entry["spans"]) <= spans, entry["layer"]
        assert set(entry["exercised_by"]) <= {w["name"] for w in
                                              spec["workloads"]}
