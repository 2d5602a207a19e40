"""Tests for the mini-Kokkos layer: views, policies, parallel dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kokkos import (
    View,
    DOUBLE,
    fad_spec,
    RangePolicy,
    MDRangePolicy,
    TeamPolicy,
    LaunchBounds,
    DEFAULT_LAUNCH_BOUNDS,
    HostVector,
    HostSerial,
    parallel_for,
    parallel_reduce,
    deep_copy,
)
from repro.kokkos.parallel import Sum, Max, Min
from repro.observability.hooks import ToolSubscriber, registry


class TestView:
    def test_double_view_zero_init(self):
        v = View("a", (3, 4))
        assert v.shape == (3, 4)
        assert np.all(v.data == 0.0)
        assert v.span_bytes() == 12 * 8

    def test_fad_view_bytes(self):
        v = View("jac", (10, 8, 2), scalar=fad_spec(16))
        # 17 doubles per scalar
        assert v.scalar.nbytes == 17 * 8
        assert v.span_bytes() == 10 * 8 * 2 * 17 * 8

    def test_inner_flat_index_row_major(self):
        v = View("u", (5, 3, 4))
        assert v.inner_flat_index((0, 0)) == 0
        assert v.inner_flat_index((0, 1)) == 1
        assert v.inner_flat_index((1, 0)) == 4
        assert v.inner_flat_index((2, 3)) == 11
        assert v.inner_extent() == 12

    def test_inner_flat_index_bounds(self):
        v = View("u", (5, 3))
        with pytest.raises(IndexError):
            v.inner_flat_index((3,))
        with pytest.raises(ValueError):
            v.inner_flat_index((0, 0))

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            View("x", (2,), layout="LayoutWeird")

    def test_fill_and_values(self):
        v = View("x", (4,), scalar=fad_spec(2))
        v.fill(3.0)
        assert np.all(v.values() == 3.0)
        assert np.all(v.data.dx == 0.0)

    def test_setitem_getitem(self):
        v = View("x", (3, 2))
        v[1, 0] = 5.0
        assert v[1, 0] == 5.0

    def test_deep_copy(self):
        a = View("a", (3,))
        b = View("b", (3,))
        a[0] = 7.0
        deep_copy(b, a)
        assert b[0] == 7.0

    def test_deep_copy_incompatible(self):
        with pytest.raises(ValueError):
            deep_copy(View("a", (3,)), View("b", (4,)))


class TestPolicies:
    def test_range_policy(self):
        p = RangePolicy(2, 7)
        assert p.extent == 5
        assert list(p.indices()) == [2, 3, 4, 5, 6]

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            RangePolicy(5, 2)

    def test_mdrange(self):
        p = MDRangePolicy((0, 0), (2, 3))
        assert p.extent == 6
        assert len(list(p.indices())) == 6

    def test_team_policy(self):
        p = TeamPolicy(league_size=10, team_size=4)
        assert p.extent == 10

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

    def test_parallel_for_with_tag(self):
        hits = []

        def functor(tag, i):
            hits.append(tag)

        parallel_for("t", RangePolicy(0, 3, tag="mytag"), functor, space=HostSerial())
        assert hits == ["mytag"] * 3

    def test_parallel_reduce_sum(self):
        def functor(i, acc):
            acc[...] = np.arange(0, 5)[i] if isinstance(i, slice) else float(i)

        tot_v = parallel_reduce("rv", RangePolicy(0, 5), functor, Sum, space=HostVector())
        tot_s = parallel_reduce("rs", RangePolicy(0, 5), functor, Sum, space=HostSerial())
        assert tot_v == tot_s == 10.0

    def test_parallel_reduce_max_min(self):
        data = np.array([3.0, -1.0, 7.0, 2.0])

        def functor(i, acc):
            acc[...] = data[i]

        assert parallel_reduce("m", RangePolicy(0, 4), functor, Max) == 7.0
        assert parallel_reduce("m", RangePolicy(0, 4), functor, Min) == -1.0

    def test_kernel_log_records(self):
        log = []

        class KernelLog(ToolSubscriber):
            def begin_parallel_for(self, name, extent, space, kid):
                log.append((name, extent))

        def functor(i):
            pass

        sub = registry().subscribe(KernelLog())
        try:
            parallel_for("logged_kernel", RangePolicy(0, 4), functor, space=HostSerial())
        finally:
            registry().unsubscribe(sub)
        assert log == [("logged_kernel", 4)]

    def test_int_policy_coercion(self):
        count = []

        def functor(i):
            count.append(i)

        parallel_for("c", 5, functor, space=HostSerial())
        assert count == [0, 1, 2, 3, 4]

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


class TestMDRangeDispatch:
    def test_mdrange_parallel_for_both_spaces(self):
        from repro.kokkos import MDRangePolicy

        for space in (HostVector(), HostSerial()):
            out = np.zeros((3, 4))

            def functor(idx):
                i, j = idx
                out[i, j] = i * 10 + j

            parallel_for("md", MDRangePolicy((0, 0), (3, 4)), functor, space=space)
            expect = np.arange(3)[:, None] * 10 + np.arange(4)[None, :]
            assert np.array_equal(out, expect)

    def test_layout_right_metadata(self):
        v = View("r", (3, 4), layout="LayoutRight")
        assert v.layout == "LayoutRight"
        assert v.inner_flat_index((2,)) == 2  # flattening unchanged

    def test_deep_copy_fad_views(self):
        from repro.kokkos import fad_spec

        a = View("a", (3,), scalar=fad_spec(2))
        b = View("b", (3,), scalar=fad_spec(2))
        a.data.val[...] = 5.0
        a.data.dx[...] = 1.5
        deep_copy(b, a)
        assert np.all(b.data.val == 5.0)
        assert np.all(b.data.dx == 1.5)

    def test_deep_copy_scalar_mismatch(self):
        from repro.kokkos import fad_spec

        with pytest.raises(ValueError):
            deep_copy(View("a", (3,)), View("b", (3,), scalar=fad_spec(2)))
