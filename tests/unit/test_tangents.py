"""The Jacobian sweep's closed-form tangents against ``SFad`` arithmetic.

The strain-rate invariant (``effective_strain_rate_squared_tangent``) and
the lowering's stresses (``lowering.stresses``) are differentiated in
closed form instead of running their polynomials on ``SFad(6)``.  On the
qp seed that is bitwise what the ``SFad`` arithmetic returns -- every
golden, count and solution rests on it -- and on a dense tangent the same
formulas are the general product rule.  The references below are that
arithmetic, kept here.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig
from repro.autodiff.sfad import SFad, fad_value
from repro.core import lowering
from repro.core.lowering import QP_SEED, qp_tangent, stresses
from repro.physics import evaluators
from repro.physics.viscosity import (
    effective_strain_rate_squared,
    effective_strain_rate_squared_tangent,
)


def sfad_strain_rate_tangent(g, dg):
    """The invariant's polynomial run on ``SFad``: its ``dx``."""
    G = SFad(dg.shape[-1])(g, dg)
    return effective_strain_rate_squared(*(G[:, :, k, d] for k in range(2) for d in range(3))).dx


def sfad_stresses(g, mu, dmu=None, dUgrad=None, out=None):
    """The listing's five stress expressions, on ``SFad`` when given tangents."""
    if dmu is not None:
        dg = np.broadcast_to(QP_SEED, g.shape + (6,)) if dUgrad is None else dUgrad
        g, mu = SFad(dmu.shape[-1])(g, dg.reshape(g.shape + (-1,))), SFad(dmu.shape[-1])(mu, dmu)
    strs01 = mu * (g[:, :, 1, 0] + g[:, :, 0, 1])
    slots = (
        2.0 * mu * (2.0 * g[:, :, 0, 0] + g[:, :, 1, 1]), strs01, strs01,
        2.0 * mu * (2.0 * g[:, :, 1, 1] + g[:, :, 0, 0]), mu * g[:, :, 0, 2], mu * g[:, :, 1, 2],
    )
    if dmu is not None:
        out[...] = np.stack([s.dx for s in slots], axis=-2)
    return np.stack([fad_value(s) for s in slots], axis=-1)


#: velocity-gradient-like entries: exact zeros and 1e-8 .. 1e3 of either sign
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-8, 1e3), st.floats(-1e3, -1e-8))

#: quadrature points per cell of the extruded elements
_ELEMENTS = pytest.mark.parametrize("nq", [8, 6], ids=["hex8", "wedge6"])


@_ELEMENTS
@given(data=st.data())
def test_closed_form_is_the_sfad_arithmetic_on_the_qp_seed(nq, data):
    g = data.draw(arrays(np.float64, (3, nq, 2, 3), elements=_ENTRY))
    mu = data.draw(arrays(np.float64, (3, nq), elements=st.floats(1e-8, 1e3)))
    dmu = data.draw(arrays(np.float64, (3, nq, 6), elements=_ENTRY))
    seed = np.broadcast_to(QP_SEED, g.shape + (6,))
    assert qp_tangent(seed) is None
    assert np.array_equal(
        effective_strain_rate_squared_tangent(g, seed), sfad_strain_rate_tangent(g, seed)
    )
    got, ref = np.empty((3, nq, 6, 6)), np.empty((3, nq, 6, 6))
    assert np.array_equal(stresses(g, mu, dmu, None, got), sfad_stresses(g, mu, dmu, None, ref))
    assert np.array_equal(got, ref)
    assert np.array_equal(stresses(g, mu), sfad_stresses(g, mu))


@_ELEMENTS
def test_a_dense_tangent_takes_the_general_product_rule(nq):
    rng = np.random.default_rng(nq)
    g = rng.normal(size=(5, nq, 2, 3)) * 1e-3
    dg = rng.normal(size=g.shape + (16,)) * 1e-2
    mu, dmu = rng.uniform(1e3, 1e5, size=(5, nq)), rng.normal(size=(5, nq, 16)) * 1e3
    dense = qp_tangent(dg)
    assert dense.shape == (5, nq, 6, 16)
    got, ref = effective_strain_rate_squared_tangent(g, dg), sfad_strain_rate_tangent(g, dg)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))
    got, ref = np.empty((5, nq, 6, 16)), np.empty((5, nq, 6, 16))
    stresses(g, mu, dmu, dense, got)
    sfad_stresses(g, mu, dmu, dense, ref)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def test_a_malformed_tangent_raises():
    """Shared across points but not the seed, shared across qps only, or
    not ``(..., 2, 3, F)``: never taken for the identity, never guessed."""
    g = np.zeros((4, 8, 2, 3))
    shape = g.shape + (6,)
    for dg in (
        np.broadcast_to(2.0 * QP_SEED, shape),
        np.broadcast_to(np.ones((4, 1, 2, 3, 6)), shape),
        np.zeros((4, 8, 3, 2, 6)),
    ):
        with pytest.raises(ValueError):
            qp_tangent(dg)
        with pytest.raises(ValueError):
            effective_strain_rate_squared_tangent(g, dg)


@pytest.mark.parametrize(
    "velocity",
    [VelocityConfig(operator_mode="assembled"), VelocityConfig(operator_mode="matrix-free"),
     VelocityConfig(nparts=2)],
    ids=["assembled", "matrix-free", "nparts=2"],
)
def test_a_solve_on_the_sfad_references_is_bitwise_the_same(velocity, monkeypatch):
    cfg = AntarcticaConfig(resolution_km=400.0, num_layers=4, velocity=velocity)
    closed = AntarcticaTest.build(cfg).run()
    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    monkeypatch.setattr(
        evaluators, "effective_strain_rate_squared_tangent", counted(sfad_strain_rate_tangent)
    )
    monkeypatch.setattr(lowering, "stresses", counted(sfad_stresses))
    generic = AntarcticaTest.build(cfg).run()
    assert {"sfad_strain_rate_tangent", "sfad_stresses"} <= set(calls)
    assert np.array_equal(closed.u, generic.u)
    assert closed.newton.residual_norms == generic.newton.residual_norms
    assert closed.newton.linear_iterations == generic.newton.linear_iterations
