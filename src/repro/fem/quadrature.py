"""Gauss quadrature rules for the reference elements.

The paper's hexahedral elements use the 2x2x2 tensor Gauss rule
(``numQPs == 8``); wedges use (triangle rule) x (1-D Gauss).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_1d", "triangle_rule", "quadrature_rule"]


def gauss_legendre_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1] (exact to degree 2n-1)."""
    if n <= 0:
        raise ValueError("quadrature order must be positive")
    pts, wts = np.polynomial.legendre.leggauss(n)
    return pts, wts


#: Symmetric triangle rules on the unit simplex: degree -> (points, weights).
_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3]]), np.array([0.5])),
    2: (
        np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]]),
        np.full(3, 1.0 / 6.0),
    ),
    3: (
        np.array(
            [[1 / 3, 1 / 3], [0.6, 0.2], [0.2, 0.6], [0.2, 0.2]]
        ),
        np.array([-27.0, 25.0, 25.0, 25.0]) / 96.0,
    ),
}


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Gauss rule on the unit triangle exact to ``degree``."""
    for d in sorted(_TRI_RULES):
        if d >= degree:
            return _TRI_RULES[d]
    raise ValueError(f"no triangle rule of degree {degree} available")


def _tensor2(p1, w1):
    """1-D rule -> tensor rule on [-1,1]^2."""
    P = np.array([(a, b) for a in p1 for b in p1])
    W = np.array([wa * wb for wa in w1 for wb in w1])
    return P, W


def _tensor3(p1, w1):
    P = np.array([(a, b, c) for a in p1 for b in p1 for c in p1])
    W = np.array([wa * wb * wc for wa in w1 for wb in w1 for wc in w1])
    return P, W


@lru_cache(maxsize=None)
def quadrature_rule(elem_type: str, order: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights for a reference element.

    ``order`` is the number of 1-D Gauss points per tensor direction (and
    the polynomial degree for triangle factors).  The default ``order=2``
    gives the 8-point hex rule of the paper.  Built once per ``(elem_type,
    order)``; the arrays are shared and read-only.
    """
    if elem_type == "quad4":
        P, W = _tensor2(*gauss_legendre_1d(order))
    elif elem_type == "hex8":
        P, W = _tensor3(*gauss_legendre_1d(order))
    elif elem_type == "tri3":
        P, W = (a.copy() for a in triangle_rule(order))
    elif elem_type == "wedge6":
        tp, tw = triangle_rule(order)
        lp, lw = gauss_legendre_1d(order)
        P = np.array([(a, b, c) for (a, b) in tp for c in lp])
        W = np.array([wt * wl for wt in tw for wl in lw])
    else:
        raise ValueError(f"unknown element type {elem_type!r}")
    P.flags.writeable = W.flags.writeable = False
    return P, W
