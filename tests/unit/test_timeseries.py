"""Convergence time-series: registry, decimation, counter export."""

from __future__ import annotations

import json
import threading

from repro.observability.timeseries import SeriesRegistry, TimeSeries, get_series


class TestTimeSeries:
    def test_points_carry_both_clocks(self):
        s = TimeSeries("newton.residual")
        s.append(1.0)
        s.append(0.5)
        assert s.count == 2
        (p0, p1) = s.points
        ts_us0, t_unix0, v0 = p0
        assert v0 == 1.0 and p1[2] == 0.5
        # tracer clock is monotone; unix clock is a real epoch timestamp
        assert p1[0] >= ts_us0 >= 0.0
        assert t_unix0 > 1e9

    def test_stride_decimation_at_cap(self):
        s = TimeSeries("x")
        n = TimeSeries.CAP * 3 + 17
        for i in range(n):
            s.append(float(i))
        assert s.count == n
        assert len(s.points) <= TimeSeries.CAP
        values = [p[2] for p in s.points]
        # decimation keeps a deterministic every-Nth subsample, in order,
        # and never drops the most recent region entirely
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] >= n - 2 * s._stride

    def test_to_dict_round_trip(self):
        s = TimeSeries("gmres.residual", labels={"mode": "assembled"})
        s.append(3.0)
        d = s.to_dict()
        assert d["name"] == "gmres.residual"
        assert d["labels"] == {"mode": "assembled"}
        assert d["count"] == 1 and len(d["points"]) == 1
        json.dumps(d)  # JSON-able without custom encoders


class TestSeriesRegistry:
    def test_record_and_lookup(self):
        reg = SeriesRegistry()
        reg.record("newton.residual", 10.0)
        reg.record("newton.residual", 5.0)
        reg.record("gmres.residual", 1.0, mode="assembled")
        assert reg.get("newton.residual").count == 2
        assert reg.get("gmres.residual", mode="assembled").count == 1
        assert reg.get("gmres.residual", mode="matrix-free") is None
        assert len(reg.all()) == 2

    def test_labels_distinguish_series(self):
        reg = SeriesRegistry()
        reg.record("r", 1.0, mode="a")
        reg.record("r", 2.0, mode="b")
        assert {s.labels["mode"] for s in reg.all()} == {"a", "b"}

    def test_disabled_drops_points(self):
        reg = SeriesRegistry()
        with reg.disabled():
            reg.record("r", 1.0)
        assert reg.all() == []
        reg.record("r", 2.0)
        assert reg.get("r").count == 1

    def test_summary_and_reset(self):
        reg = SeriesRegistry()
        reg.record("newton.residual", 8.0)
        reg.record("newton.residual", 2.0)
        summ = reg.summary()
        assert summ["newton.residual"]["count"] == 2
        assert summ["newton.residual"]["first"] == 8.0
        assert summ["newton.residual"]["last"] == 2.0
        reg.reset()
        assert reg.all() == [] and reg.summary() == {}

    def test_summary_reads_end_points_only(self, monkeypatch):
        """Every solve embeds ``summary()``: it must not copy each kept
        point of every series (4,096 per series once the caps fill)."""
        reg = SeriesRegistry()
        n = TimeSeries.CAP * 2 + 5
        for i in range(n):
            reg.record("hot", float(i), mode="a")
        reg.record("cold", 7.0)
        hot = reg.get("hot", mode="a").values()
        expected = {
            "cold": {"count": 1, "first": 7.0, "last": 7.0},
            "hot{mode=a}": {"count": n, "first": hot[0], "last": hot[-1]},
        }

        def no_copy(self):
            raise AssertionError("summary() copied a whole series through values()")

        monkeypatch.setattr(TimeSeries, "values", no_copy)
        assert reg.summary() == expected

    def test_global_registry_is_shared(self):
        reg = get_series()
        assert get_series() is reg

    def test_concurrent_records_lose_nothing(self):
        # all threads hammer the SAME series: the per-series lock must
        # keep the offered-observation count exact under contention
        reg = SeriesRegistry()
        n, threads = 2000, 8

        def worker():
            for i in range(n):
                reg.record("hot", float(i))

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.get("hot").count == n * threads
        assert len(reg.get("hot").points) <= TimeSeries.CAP
