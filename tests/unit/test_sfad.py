"""Unit and property tests for the Sacado-like forward AD types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import SFad, FadArray, is_fad, fad_value, fad_derivs


def x_var(v, n=2, i=0):
    return SFad(n).independent(np.asarray(v, dtype=float), i)


class TestConstruction:
    def test_sfad_factory_caches(self):
        assert SFad(16) is SFad(16)
        assert SFad(16) is not SFad(8)
        assert SFad(16).NUM_DERIVS == 16

    def test_sfad_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            SFad(4)(np.zeros(3), np.zeros((3, 5)))

    def test_sfad_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SFad(0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FadArray(np.zeros(3), np.zeros((4, 2)))

    def test_constant_has_zero_derivs(self):
        c = SFad(3).constant([1.0, 2.0])
        assert np.all(c.dx == 0.0)
        assert c.num_derivs == 3

    def test_independent_seeds_unit_vector(self):
        x = SFad(4).independent([5.0], 2)
        assert x.dx[0, 2] == 1.0
        assert np.sum(np.abs(x.dx)) == 1.0

    def test_dfad_any_size(self):
        # the base type is the dynamically-sized Fad: no fixed NUM_DERIVS
        d = FadArray(np.zeros(2), np.zeros((2, 7)))
        assert d.NUM_DERIVS is None and d.num_derivs == 7

    def test_getitem_setitem(self):
        a = SFad(2).constant(np.arange(4.0))
        b = a[1:3]
        assert b.shape == (2,)
        a[0] = SFad(2).independent(9.0, 1)
        assert a.val[0] == 9.0
        assert a.dx[0, 1] == 1.0
        a[1] = 3.0
        assert a.val[1] == 3.0 and np.all(a.dx[1] == 0.0)

    def test_reshape_roundtrip(self):
        a = SFad(3).constant(np.arange(6.0).reshape(2, 3))
        b = a.reshape(6).reshape(2, 3)
        assert np.array_equal(b.val, a.val)


class TestArithmetic:
    def test_add_fad_fad(self):
        x = x_var(2.0, 2, 0)
        y = x_var(3.0, 2, 1)
        z = x + y
        assert z.val == 5.0
        assert np.allclose(z.dx, [1.0, 1.0])

    def test_mul_product_rule(self):
        x = x_var(2.0, 2, 0)
        y = x_var(3.0, 2, 1)
        z = x * y
        assert z.val == 6.0
        assert np.allclose(z.dx, [3.0, 2.0])

    def test_scalar_mix(self):
        x = x_var(2.0, 2, 0)
        z = 3.0 * x + 1.0 - x / 2.0
        assert z.val == 6.0
        assert np.allclose(z.dx, [2.5, 0.0])

    def test_rsub_rdiv(self):
        x = x_var(4.0, 1, 0)
        assert (10.0 - x).val == 6.0
        assert np.allclose((10.0 - x).dx, [-1.0])
        z = 8.0 / x
        assert z.val == 2.0
        assert np.allclose(z.dx, [-0.5])

    def test_div_quotient_rule(self):
        x = x_var(6.0, 2, 0)
        y = x_var(2.0, 2, 1)
        z = x / y
        assert z.val == 3.0
        assert np.allclose(z.dx, [0.5, -1.5])

    def test_pow_constant_exponent(self):
        x = x_var(3.0, 1, 0)
        z = x**2
        assert z.val == 9.0
        assert np.allclose(z.dx, [6.0])

    def test_pow_fad_exponent(self):
        x = x_var(2.0, 2, 0)
        p = x_var(3.0, 2, 1)
        z = x**p
        assert z.val == 8.0
        assert np.allclose(z.dx, [12.0, 8.0 * np.log(2.0)])

    def test_rpow(self):
        x = x_var(2.0, 1, 0)
        z = 3.0**x
        assert z.val == 9.0
        assert np.allclose(z.dx, [9.0 * np.log(3.0)])

    def test_neg_abs(self):
        x = x_var(-2.0, 1, 0)
        assert (-x).val == 2.0 and np.allclose((-x).dx, [-1.0])
        assert abs(x).val == 2.0 and np.allclose(abs(x).dx, [-1.0])

    def test_comparisons_use_values(self):
        x = x_var(1.0)
        y = x_var(2.0)
        assert bool(x < y) and bool(y > x) and bool(x <= 1.0) and bool(y >= 2.0)
        assert bool(x == 1.0) and bool(x != 2.0)

    def test_vectorized_broadcast(self):
        cls = SFad(2)
        x = cls(np.arange(4.0), np.tile([1.0, 0.0], (4, 1)))
        z = x * x + 2.0 * x
        assert np.allclose(z.val, np.arange(4.0) ** 2 + 2 * np.arange(4.0))
        assert np.allclose(z.dx[:, 0], 2 * np.arange(4.0) + 2.0)


class TestHelpers:
    def test_is_fad(self):
        assert is_fad(x_var(1.0))
        assert not is_fad(np.zeros(3))

    def test_fad_value_passthrough(self):
        assert fad_value(2.5) == 2.5
        assert fad_value(x_var(2.5)) == 2.5

    def test_fad_derivs(self):
        assert np.allclose(fad_derivs(x_var(1.0, 3, 1)), [0, 1, 0])
        assert fad_derivs(np.zeros(2), 3).shape == (2, 3)
        with pytest.raises(ValueError):
            fad_derivs(1.0)


@st.composite
def small_floats(draw):
    return draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))


class TestProperties:
    @given(small_floats(), small_floats())
    @settings(max_examples=60, deadline=None)
    def test_polynomial_derivative_matches_analytic(self, a, b):
        x = x_var(a, 1, 0)
        p = x * x * x - 2.0 * x * x + b * x + 7.0
        assert np.allclose(p.val, a**3 - 2 * a**2 + b * a + 7.0, atol=1e-9)
        assert np.allclose(p.dx[0], 3 * a**2 - 4 * a + b, rtol=1e-12, atol=1e-12)

    @given(small_floats(), small_floats())
    @settings(max_examples=60, deadline=None)
    def test_product_rule_consistency(self, a, b):
        x = x_var(a, 2, 0)
        y = x_var(b, 2, 1)
        lhs = (x * y).dx
        rhs = (y * x).dx
        assert np.allclose(lhs, rhs)
        assert np.allclose(lhs, [b, a])

    @given(st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_div_times_recovers(self, a):
        x = x_var(a, 1, 0)
        z = (x / 3.0) * 3.0
        assert np.allclose(z.val, a)
        assert np.allclose(z.dx, [1.0])

    @given(small_floats())
    @settings(max_examples=40, deadline=None)
    def test_chain_vs_finite_difference(self, a):
        def f(v):
            return v * v * 0.5 + 3.0 * v

        x = x_var(a, 1, 0)
        z = f(x)
        h = 1e-6 * max(1.0, abs(a))
        fd = (f(a + h) - f(a - h)) / (2 * h)
        assert np.allclose(z.dx[0], fd, rtol=1e-5, atol=1e-5)
