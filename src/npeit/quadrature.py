"""Periodic Nystrom quadrature for logarithmic boundary kernels.

The single-layer kernel on a smooth closed curve splits into a periodic
logarithmic convolution plus a smooth remainder,

    ``ln|q(t) - q(s)| = ln(2 |sin((t-s)/2)|) + M(t, s)``,

with ``M`` analytic for analytic curves and diagonal value ``ln|q'(t)|``.
The convolution part is integrated by the classical trigonometric rule
whose weights are exact on trigonometric polynomials up to the grid
bandwidth (its discrete symbol is ``-1/|k|``); the remainder and every
other smooth kernel use the plain trapezoidal rule, which is spectrally
accurate for periodic integrands.  All matrices here use the free-space
kernel ``ln|x - y| / (2 pi)``; domain-adapted corrections are layered on
top elsewhere.

Matrices act on vectors of nodal density values and produce nodal values
of the potential (arc-length weights are folded into the matrices).
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundaryCurve

__all__ = [
    "log_weights",
    "pair_table",
    "log_kernel",
    "flux_kernel",
    "free_self_matrices",
    "free_single_layer_eval",
    "free_single_layer_gradient",
]


def log_weights(n: int) -> np.ndarray:
    """Convolution weights ``w_d`` of the periodic logarithm rule.

    The rule ``sum_j w_((i-j) mod n) h(t_j)`` approximates

        ``(1/pi) * int_0^{2 pi} ln(2 |sin((t_i - s)/2)|) h(s) ds``

    on the equispaced grid ``t_j = 2 pi j / n`` and is exact whenever
    ``h`` is a trigonometric polynomial of degree at most ``n/2`` (the
    discrete symbol is ``-1/|k|`` for ``0 < |k| < n/2``, ``0`` at
    ``k = 0``, and ``-2/n`` at the Nyquist mode).  The cosines come from
    a table at the exact integer arguments ``(d m) mod n``.

    Parameters
    ----------
    n : int
        Number of grid points; must be even.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got {n}")
    half = n // 2
    d, m = np.arange(n), np.arange(1, half)
    w = np.cos(2.0 * np.pi * d / n)[np.outer(d, m) % n] @ (-(2.0 / n) / m)
    w -= ((-1.0) ** d) / (half * n)
    return w


def pair_table(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Displacements ``x_p - y_j`` of two point sets, shape ``(P, J, 2)``,
    and ``2 pi |x_p - y_j|^2``: the one pairwise table the kernels read."""
    dx = x[:, None, :] - y[None, :, :]
    return dx, 2.0 * np.pi * (dx[..., 0] ** 2 + dx[..., 1] ** 2)


def log_kernel(dx: np.ndarray) -> np.ndarray:
    """``ln|x - y| / (2 pi)`` on a displacement table."""
    return np.log(np.hypot(dx[..., 0], dx[..., 1])) / (2.0 * np.pi)


def flux_kernel(dx: np.ndarray, r2pi: np.ndarray, nu=None) -> np.ndarray:
    """``grad_x ln|x - y| / (2 pi) = (x - y) / (2 pi |x - y|^2)`` on a
    table, or its component along unit vectors ``nu`` that broadcast
    against the table's leading axes (the normal contracted first)."""
    if nu is None:
        return dx / r2pi[..., None]
    return (dx[..., 0] * nu[..., 0] + dx[..., 1] * nu[..., 1]) / r2pi


def free_self_matrices(curve: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    """Self matrices ``(S, K*)`` of the free single layer
    ``(1/2 pi) ln|x - y|`` and of the free adjoint double layer, from one
    displacement table of the curve; weights folded in, so ``S @ g`` is
    the potential at the nodes of nodal density values ``g``.  ``K*`` has
    the smooth kernel ``<x - y, nu(x)> / (2 pi |x - y|^2)``, with the
    diagonal limit ``kappa(x) / (4 pi)``, under the trapezoidal rule.
    """
    n, t = curve.n, curve.t
    dx, r2pi = pair_table(curve.nodes, curve.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        kstar = flux_kernel(dx, r2pi, curve.normals[:, None])
        del r2pi
        s = np.hypot(dx[..., 0], dx[..., 1])
        del dx
        s /= 2.0 * np.abs(np.sin(0.5 * (t[:, None] - t[None, :])))
    np.log(s, out=s)  # the smooth remainder M
    np.fill_diagonal(s, np.log(curve.speed))
    np.fill_diagonal(kstar, curve.curvature / (4.0 * np.pi))
    s /= n
    s += 0.5 * log_weights(n)[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    s *= curve.speed[None, :]
    kstar *= curve.weights[None, :]
    return s, kstar


def free_single_layer_eval(curve: BoundaryCurve, points) -> np.ndarray:
    """Evaluation matrix of the free single layer at off-curve points.

    ``A[p, j] = (1/2 pi) ln|x_p - q_j| w_j``; plain trapezoid, so the
    points must stay several node spacings away from the curve (enforced
    by callers, not here).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return log_kernel(pair_table(pts, curve.nodes)[0]) * curve.weights


def free_single_layer_gradient(curve: BoundaryCurve, points) -> np.ndarray:
    """Gradient of the free single layer at off-curve points.

    Returns shape ``(n_points, n_nodes, 2)`` with
    ``G[p, j] = (x_p - q_j) w_j / (2 pi |x_p - q_j|^2)``, so that
    ``np.einsum('pjd,j->pd', G, g)`` is the potential gradient.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return flux_kernel(*pair_table(pts, curve.nodes)) * curve.weights[:, None]
