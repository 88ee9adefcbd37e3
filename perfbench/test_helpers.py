"""Tests of the benchmark's helpers: ``python3 -m pytest perfbench -q``."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Site, Span, covered_ns, installed, self_times  # noqa: E402
from stats import nearest_rank, samples_beyond, tail_percentile  # noqa: E402


class TestPercentileRule:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert nearest_rank(values, 50) == 3.0
        assert nearest_rank(values, 75) == 4.0
        assert nearest_rank(values, 100) == 5.0
        assert nearest_rank(values, 0) == 1.0

    def test_nearest_rank_rejects_empty(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)

    def test_samples_beyond(self):
        assert samples_beyond(40, 75) == 10
        assert samples_beyond(39, 75) == 9
        assert samples_beyond(100, 90) == 10

    def test_tail_percentile_is_highest_with_ten_beyond(self):
        assert tail_percentile(1000) == 99
        assert tail_percentile(100) == 90
        assert tail_percentile(99) == 75
        assert tail_percentile(40) == 75
        assert tail_percentile(39) == 50
        assert tail_percentile(19) is None


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
        assert covered_ns(0, 100, []) == 0
        assert covered_ns(0, 100, [(200, 300)]) == 0

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("root", 0, 100, -1, 0),
            Span("a", 10, 40, 0, 0),
            Span("a.child", 15, 35, 1, 0),
            Span("b", 50, 60, 0, 0),
        ]
        assert self_times(spans) == [60, 10, 20, 10]

    def test_self_times_add_up_to_root(self):
        spans = [Span("root", 0, 1000, -1, 0)]
        for i in range(10):
            spans.append(Span(f"c{i}", 100 * i, 100 * i + 50, 0, 0))
            spans.append(Span(f"g{i}", 100 * i + 10, 100 * i + 20, len(spans) - 1, 0))
        assert sum(self_times(spans)) == 1000


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def work(x, scale=2):
        if x < 0:
            raise ValueError("negative")
        return x * scale

    class Thing:
        def method(self):
            return mod.work(1)

    mod.work = work
    mod.Thing = Thing
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


class TestInstalled:
    def test_records_nested_spans_and_counts(self, fake_module):
        seen = []

        def count(rec, args, result, raised):
            seen.append((dict(args), result, raised))
            rec.add("calls")

        sites = [Site("perfbench_fake", "work", counter=count), Site("perfbench_fake", "method", cls="Thing")]
        rec = Recorder()
        rec.page = "p0"
        with installed(rec, sites):
            assert fake_module.Thing().method() == 2
        assert [s.name for s in rec.spans] == ["perfbench_fake.Thing.method", "perfbench_fake.work"]
        assert rec.spans[1].parent == 0 and rec.spans[0].parent == -1
        assert all(s.page == "p0" and s.end >= s.start for s in rec.spans)
        assert seen == [({"x": 1, "scale": 2}, 2, False)]
        assert rec.counts == {("p0", "calls"): 1.0}

    def test_restores_originals(self, fake_module):
        work, method = fake_module.work, fake_module.Thing.__dict__["method"]
        sites = [Site("perfbench_fake", "work"), Site("perfbench_fake", "method", cls="Thing")]
        with installed(Recorder(), sites):
            assert fake_module.work is not work
            assert fake_module.Thing.__dict__["method"] is not method
        assert fake_module.work is work
        assert fake_module.Thing.__dict__["method"] is method

    def test_restores_after_an_exception(self, fake_module):
        work = fake_module.work
        rec = Recorder()
        with pytest.raises(ValueError):
            with installed(rec, [Site("perfbench_fake", "work")]):
                fake_module.work(-1)
        assert fake_module.work is work
        assert len(rec.spans) == 1 and rec.spans[0].end >= rec.spans[0].start

    def test_restores_every_pagelayout_site(self):
        sites = [site for site, _ in layers.SITES]
        before = [site.current() for site in sites]
        with installed(Recorder(), sites):
            assert all(site.current() is not b for site, b in zip(sites, before))
        after = [site.current() for site in sites]
        assert all(a is b for a, b in zip(before, after))


def test_sample_count_matches_sample_polyline():
    from pagelayout._raster import sample_polyline

    rng = np.random.default_rng(3)
    for _ in range(200):
        pts = rng.uniform(0, 60, size=(int(rng.integers(2, 8)), 2))
        pts[1] = pts[0] + [rng.integers(1, 20), 0.0]  # integer lengths hit the endpoint rule
        pts = pts[: int(rng.integers(2, len(pts) + 1))]
        assert layers._n_samples(pts) == len(sample_polyline(pts, 1.0))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prf = {"precision": 1.0, "recall": 1.0, "f": 1.0}
    record = {"samples": [(0, 2.0, 1.0)], "peak_rss_mb": 1.0, "quality": {k: prf for k in ("baseline", "line", "block")}}
    end_to_end = run.end_to_end([1.0], record)
    assert [(n, u) for n, (_, u) in end_to_end.items()] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = {**layers.Summary([], {}, []).metrics(), "trace.overhead_pct": (0.0, "%"), **run.quality_metrics(record)}
    assert sorted((n, u) for n, (_, u) in per_layer.items()) == sorted((m["name"], m["unit"]) for m in spec["per_layer"])
