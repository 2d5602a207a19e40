"""Glen's-law effective viscosity for the first-order Stokes model.

The first-order (Blatter-Pattyn) approximation uses the effective strain
rate

``e_e^2 = u_x^2 + v_y^2 + u_x v_y + 1/4 (u_y + v_x)^2 + 1/4 u_z^2 + 1/4 v_z^2``

and the viscosity

``mu = 1/2 A^(-1/n) (e_e^2 + reg)^((1-n)/(2n))``

(Glen's flow law; Cuffey & Paterson 2010).  All functions dispatch on
plain arrays and Fad values so the same code serves Residual and
Jacobian evaluations; :func:`effective_strain_rate_squared_tangent` is
the invariant's derivative in closed form, which the Jacobian sweep uses
instead of running the polynomial on ``SFad``.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import ops
from repro.constants import GLEN_A_DEFAULT, GLEN_N, STRAIN_RATE_REG
from repro.core.lowering import qp_tangent

__all__ = [
    "effective_strain_rate_squared",
    "effective_strain_rate_squared_tangent",
    "glen_prefactor",
    "glen_viscosity",
    "flow_factor_arrhenius",
]


def effective_strain_rate_squared(ux, uy, uz, vx, vy, vz):
    """FO effective strain rate squared from velocity-gradient components."""
    shear = uy + vx
    return (
        ux * ux
        + vy * vy
        + ux * vy
        + 0.25 * (shear * shear)
        + 0.25 * (uz * uz)
        + 0.25 * (vz * vz)
    )


def effective_strain_rate_squared_tangent(g, dg):
    """Tangent of :func:`effective_strain_rate_squared` along ``dg``.

    ``g`` holds the gradient values ``(..., 2, 3)`` (rows ``u``, ``v``;
    columns ``x, y, z``) and ``dg`` their tangent ``(..., 2, 3, F)``.  The
    gradient, in ``Ugrad(k, d)`` order ``f = 3 k + d``, is

    ``(2 u_x + v_y, (u_y + v_x)/2, u_z/2, (u_y + v_x)/2, 2 v_y + u_x, v_z/2)``

    -- on the qp seed (:func:`repro.core.lowering.qp_tangent`) that *is* the
    tangent, bitwise what ``SFad`` arithmetic on the invariant returns;
    a dense ``dg`` is contracted against it.
    """
    ux, uy, uz = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2]
    vx, vy, vz = g[..., 1, 0], g[..., 1, 1], g[..., 1, 2]
    half_shear = 0.5 * (uy + vx)
    grad = np.stack(
        (2.0 * ux + vy, half_shear, 0.5 * uz, half_shear, 2.0 * vy + ux, 0.5 * vz), axis=-1
    )
    tangent = qp_tangent(dg)
    if tangent is None:
        return grad
    return np.matmul(grad[..., None, :], tangent)[..., 0, :]


def glen_prefactor(flow_factor=GLEN_A_DEFAULT, n: float = GLEN_N):
    """``1/2 A^(-1/n)``: the strain-rate-independent factor of Glen's law.

    ``flow_factor`` may be a scalar or per-point array of Glen's ``A`` in
    kPa^-n yr^-1; it must be positive.
    """
    if np.any(np.asarray(flow_factor) <= 0.0):
        raise ValueError("Glen flow factor must be positive")
    return 0.5 * np.asarray(flow_factor, dtype=np.float64) ** (-1.0 / n)


def glen_viscosity(
    eps_sq,
    flow_factor=GLEN_A_DEFAULT,
    n: float = GLEN_N,
    reg: float = STRAIN_RATE_REG,
    *,
    prefactor=None,
):
    """Effective viscosity ``mu`` [kPa yr] from ``eps_sq`` [yr^-2].

    ``flow_factor`` is Glen's ``A`` (see :func:`glen_prefactor`); a caller
    that evaluates the law repeatedly on fixed ``A`` passes ``prefactor``,
    ``glen_prefactor(A, n)`` built once, instead.  The regularization
    keeps ``mu`` finite (and the Jacobian well-defined) at zero strain
    rate.
    """
    if prefactor is None:
        prefactor = glen_prefactor(flow_factor, n)
    return prefactor * ops.power(eps_sq + reg, (1.0 - n) / (2.0 * n))


def flow_factor_arrhenius(temperature_k) -> np.ndarray:
    """Temperature-dependent Glen ``A`` [kPa^-3 yr^-1] (Arrhenius law).

    Uses the standard two-regime Paterson-Budd parameterization with the
    cold/warm switch at 263.15 K, rescaled to this library's kPa/yr
    units and normalized so that A(263 K) matches ``GLEN_A_DEFAULT``.
    """
    t = np.asarray(temperature_k, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be in Kelvin")
    r_gas = 8.314  # J / (mol K)
    q_cold, q_warm = 6.0e4, 13.9e4  # activation energies [J/mol]
    t_switch = 263.15
    q = np.where(t < t_switch, q_cold, q_warm)
    # continuous at the switch; anchored to GLEN_A_DEFAULT at 263.15 K
    a = GLEN_A_DEFAULT * np.exp(-q / r_gas * (1.0 / t - 1.0 / t_switch))
    return a
