"""Closed forms on disk scenes that only the tests use: the mode action
of the single-layer potential in the zero-outer-flux normalization, the
spectrum of the flux-average operator on a concentric circle and on an
off-centre circle, and the gradient energy of a radial mode.  Like
:mod:`npeit.disk_oracle`, they come from separation of variables (after
a Möbius map for the off-centre circle), independently of the quadrature
and layer-potential machinery.
"""

import math

import numpy as np


def oracle_flux_average_eigenvalue(m: int, r0: float) -> float:
    """Eigenvalue ``mu_m = -r0^(2m)/2`` of the flux-average operator for
    the circle of radius ``r0`` centered in the unit disk.

    The operator is the adjoint double-layer operator built from the
    unit-disk kernel; on the concentric circle its eigenfunctions are the
    pure modes ``cos(m theta)``, ``sin(m theta)`` with a twofold-degenerate
    eigenvalue for each ``m >= 1``.
    """
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    return -0.5 * r0 ** (2 * m)


def eccentric_flux_average_eigenvalues(c: float, r: float,
                                       floor: float) -> np.ndarray:
    """Eigenvalues of the flux-average operator for the circle of radius
    ``r`` centered at ``(c, 0)`` in the unit disk (``c != 0``), down to
    magnitude ``floor``, in ascending order.

    The Möbius map ``z -> (z - a)/(1 - a z)`` keeps the unit disk and
    takes the circle to the concentric one of radius ``rho``, where ``a``
    and ``1/a`` are inverse points of both circles.  The transmission
    problem with its Neumann outer condition is conformally invariant, so
    the eigenvalues are those of the concentric circle, ``-rho^(2m)/2``,
    each twice.
    """
    x1, x2 = c - r, c + r
    s, q = x1 + x2, 1.0 + x1 * x2
    a = (q - math.sqrt(q * q - s * s)) / s
    rho = abs((x2 - a) / (1.0 - a * x2))
    values = []
    m = 1
    while 0.5 * rho ** (2 * m) > floor:
        values += [-0.5 * rho ** (2 * m)] * 2
        m += 1
    return np.array(values)


def oracle_mode_trace(m: int, r0: float) -> float:
    """Eigenvalue ``T_m = -(r0/2m) (1 + r0^(2m))`` of the single-layer
    trace on the concentric circle (zero-outer-flux normalization,
    sign convention with positive-definite energy form)."""
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    return -(r0 / (2.0 * m)) * (1.0 + r0 ** (2 * m))


def single_layer_mode_field(m: int, r0: float, points, kind: str = "cos"):
    """Single-layer potential of the density ``trig(m theta)`` on the
    circle of radius ``r0``, unit-disk normalization, at arbitrary points.

    The radial profile is ``-(r0/2m) [(rho/r0)^m + (rho r0)^m]`` inside the
    circle and ``-(r0/2m) [(r0/rho)^m + (rho r0)^m]`` between the circle
    and the unit circle; the two branches agree at ``rho = r0`` and the
    normal derivative of the field vanishes on average over the unit
    circle (it is ``0`` pointwise for ``m >= 1``).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    inner = (rho / r0) ** m + (rho * r0) ** m
    outer = np.divide(r0, np.maximum(rho, 1e-300)) ** m + (rho * r0) ** m
    radial = -(r0 / (2.0 * m)) * np.where(rho <= r0, inner, outer)
    trig = np.cos if kind == "cos" else np.sin
    return radial * trig(m * theta)




def mode_gradient_energy(m: int, coeff_pos: float, coeff_neg: float,
                         rho_in: float, rho_out: float) -> float:
    """``int |grad u|^2`` over the annulus ``rho_in < rho < rho_out`` for
    ``u = (coeff_pos rho^m + coeff_neg rho^-m) trig(m theta)``.

    Closed form ``pi m [coeff_pos^2 (rho_out^(2m) - rho_in^(2m)) +
    coeff_neg^2 (rho_in^(-2m) - rho_out^(-2m))]`` (the cross term
    integrates to zero).  ``rho_in = 0`` is allowed when ``coeff_neg = 0``.
    """
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    pos = coeff_pos**2 * (rho_out ** (2 * m) - rho_in ** (2 * m))
    if coeff_neg == 0.0:
        neg = 0.0
    else:
        if rho_in <= 0:
            raise ValueError("rho^-m term requires rho_in > 0")
        neg = coeff_neg**2 * (rho_in ** (-2 * m) - rho_out ** (-2 * m))
    return math.pi * m * (pos + neg)
