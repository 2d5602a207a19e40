"""Tests for the mini-Kokkos layer: views, policies, parallel dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos import (
    View,
    fad_spec,
    RangePolicy,
    LaunchBounds,
    DEFAULT_LAUNCH_BOUNDS,
    HostVector,
    HostSerial,
    parallel_for,
)
from repro.observability import tracing


class TestView:
    def test_double_view_zero_init(self):
        v = View("a", (3, 4))
        assert v.shape == (3, 4)
        assert np.all(v.data == 0.0)

    def test_fad_view_bytes(self):
        v = View("jac", (10, 8, 2), scalar=fad_spec(16))
        # 17 doubles per scalar
        assert v.scalar.nbytes == 17 * 8

    def test_fill_and_values(self):
        v = View("x", (4,), scalar=fad_spec(2))
        v.data.val[...] = 3.0
        assert np.all(v.values() == 3.0)
        assert np.all(v.data.dx == 0.0)

    def test_setitem_getitem(self):
        v = View("x", (3, 2))
        v[1, 0] = 5.0
        assert v[1, 0] == 5.0


class TestPolicies:
    def test_range_policy(self):
        p = RangePolicy(2, 7)
        assert p.extent == 5
        assert list(p.indices()) == [2, 3, 4, 5, 6]

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            RangePolicy(5, 2)

    def test_launch_bounds_str(self):
        assert str(LaunchBounds(128, 2)) == "128,2"
        assert str(DEFAULT_LAUNCH_BOUNDS) == "default"

    def test_launch_bounds_validation(self):
        with pytest.raises(ValueError):
            LaunchBounds(0, 1)


class TestParallel:
    def test_parallel_for_vector_matches_serial(self):
        out_v = View("ov", (10,))
        out_s = View("os", (10,))

        def make_functor(out):
            def f(i):
                out[i] = np.asarray(i, dtype=float) * 2.0 if not isinstance(i, slice) else 0.0

            return f

        # kernels written for both modes index with i directly
        def functor_v(i):
            out_v.data[i] = np.arange(10.0)[i] * 2.0

        def functor_s(i):
            out_s.data[i] = float(i) * 2.0

        parallel_for("v", RangePolicy(0, 10), functor_v, space=HostVector())
        parallel_for("s", RangePolicy(0, 10), functor_s, space=HostSerial())
        assert np.allclose(out_v.data, out_s.data)

    def test_kernel_log_records(self):
        def functor(i):
            pass

        with tracing() as tracer:
            parallel_for("logged_kernel", RangePolicy(0, 4), functor, space=HostSerial())
        assert [(s.name, s.cat, s.args) for s in tracer.spans] == [
            ("logged_kernel", "kernel",
             {"extent": 4, "space": "HostSerial", "dispatch": "parallel_for"})
        ]

    def test_empty_range_noop(self):
        def functor(i):
            raise AssertionError("must not run")

        parallel_for("e", RangePolicy(3, 3), functor, space=HostVector())


class TestTrace:
    def test_trace_records_kernel_accesses(self):
        from repro.kokkos import TraceContext, TraceView

        ctx = TraceContext()
        u = TraceView(ctx, View("u", (100, 4, 2)))
        r = TraceView(ctx, View("r", (100, 4), scalar=fad_spec(16)))

        acc = ctx.scalar(16)
        for node in range(4):
            acc = acc + u[0, node, 0] * u[0, node, 1]
            r[0, node] = acc
        reads = ctx.reads
        writes = ctx.writes
        assert len(reads) == 8
        assert len(writes) == 4
        assert all(w.components == 17 for w in writes)
        assert ctx.flops > 0

    def test_trace_flop_counts_scale_with_fad_dim(self):
        from repro.kokkos import TraceContext

        ctx0 = TraceContext()
        a0 = ctx0.scalar(0)
        _ = a0 * a0
        ctx16 = TraceContext()
        a16 = ctx16.scalar(16)
        _ = a16 * a16
        assert ctx16.flops > ctx0.flops
        assert ctx16.flops == 1 + 3 * 16

    def test_trace_view_rejects_bad_value(self):
        from repro.kokkos import TraceContext, TraceView

        ctx = TraceContext()
        r = TraceView(ctx, View("r", (10, 2)))
        with pytest.raises(TypeError):
            r[0, 1] = object()

    def test_trace_view_bounds(self):
        from repro.kokkos import TraceContext, TraceView

        ctx = TraceContext()
        r = TraceView(ctx, View("r", (10, 2)))
        with pytest.raises(IndexError):
            _ = r[0, 5]

