"""Closed-form reference solutions on the concentric-disk scene.

Everything here is produced by separation of variables for the inclusion
``|x| < r0`` inside the unit disk, independently of the quadrature and
layer-potential machinery, so it can serve as an oracle for the numerical
solvers.  A pure Fourier mode ``f = f_c cos(m theta)`` (or ``sin``) of
Neumann data excites exactly one radial mode:

* inside the inclusion:   ``u = A rho^m trig(m theta)``
* between the curves:     ``u = (B rho^m + C rho^-m) trig(m theta)``

with the coefficients fixed by continuity of the potential and of the
conormal flux at ``rho = r0`` and by the outer Neumann condition.  The
module also carries ``np-eit oracle-check``, which loads no solver module
and checks these closed forms against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig

__all__ = [
    "ORACLE_HEADER",
    "OracleMode",
    "format_number",
    "run_oracle_check",
    "oracle_transmission_mode",
    "oracle_limit_trace_coefficient",
]


@dataclass(frozen=True)
class OracleMode:
    """Mode solution of the transmission problem on concentric disks.

    ``u = A rho^m trig`` inside the inclusion and
    ``u = (B rho^m + C rho^-m) trig`` in the annulus, where
    ``trig = trig(m theta)`` and the data is ``f = f_c trig`` on the unit
    circle.  ``density_coeff`` is the coefficient ``p`` such that the
    representation ``u = u0 + (single layer of p trig on |x| = r0)``
    reproduces the solution, with the background
    ``u0 = f_c/(k0 m) rho^m trig``.
    """

    m: int
    k: float
    k0: float
    r0: float
    f_c: float
    kind: str
    A: float
    B: float
    C: float
    residual: float

    @property
    def trace_coeff(self) -> float:
        """Coefficient of ``trig(m theta)`` in the outer boundary trace."""
        return self.B + self.C

    @property
    def interior_flux_coeff(self) -> float:
        """Coefficient of ``trig`` in the interior normal derivative on
        the inclusion circle (derivative of the inside branch)."""
        return self.A * self.m * self.r0 ** (self.m - 1)

    @property
    def exterior_flux_coeff(self) -> float:
        """Same for the annulus branch of the normal derivative."""
        return self.m * (self.B * self.r0 ** (self.m - 1)
                         - self.C * self.r0 ** (-self.m - 1))

    @property
    def background_coeff(self) -> float:
        """Coefficient of ``rho^m trig`` in the background potential."""
        return self.f_c / (self.k0 * self.m)

    @property
    def density_coeff(self) -> float:
        """Layer density ``p`` with ``u - u0 = single layer of p trig``."""
        beta = self.background_coeff
        return -(self.A - beta) * (2.0 * self.m) / (
            self.r0 ** (1 - self.m) * (1.0 + self.r0 ** (2 * self.m)))

    def field(self, points):
        """Evaluate ``u`` at points anywhere in the closed unit disk."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        inner = self.A * rho ** self.m
        with np.errstate(divide="ignore"):
            annulus = (self.B * rho ** self.m
                       + self.C * np.maximum(rho, 1e-300) ** (-self.m))
        radial = np.where(rho <= self.r0, inner, annulus)
        trig = np.cos if self.kind == "cos" else np.sin
        return radial * trig(self.m * theta)

    def gradient_energy_inside(self) -> float:
        """``int_{rho<r0} |grad u|^2``."""
        return math.pi * self.m * self.A**2 * self.r0 ** (2 * self.m)

    def gradient_energy_annulus(self) -> float:
        """``int_{r0<rho<1} |grad u|^2``."""
        s = self.r0 ** (2 * self.m)
        return math.pi * self.m * (self.B**2 * (1.0 - s)
                                   + self.C**2 * (1.0 / s - 1.0))


def oracle_transmission_mode(m: int, k: float, k0: float, r0: float,
                             f_c: float = 1.0, kind: str = "cos") -> OracleMode:
    """Solve the concentric transmission problem for one Fourier mode.

    Matching conditions (rows of the 3x3 system in ``A, B, C``):

    1. continuity of ``u`` at ``rho = r0``
    2. continuity of the conormal flux ``a du/dnu`` at ``rho = r0``
    3. outer Neumann condition ``k0 du/dnu = f`` at ``rho = 1``

    The residual of the solved system is recorded and must be tiny; a
    closed form for the outer trace coefficient is

        ``(B + C) = f_c (1 - tau) / (k0 m (1 + tau))``,
        ``tau = r0^(2m) (k - k0) / (k + k0)``.
    """
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    if k <= 0 or k0 <= 0:
        raise ValueError("conductivities must be positive")
    if not 0 < r0 < 1:
        raise ValueError(f"inclusion radius must lie in (0, 1), got {r0}")
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")

    rm, rmm = r0**m, r0 ** (-m)
    mat = np.array([
        [rm, -rm, -rmm],
        [k * m * r0 ** (m - 1), -k0 * m * r0 ** (m - 1), k0 * m * r0 ** (-m - 1)],
        [0.0, k0 * m, -k0 * m],
    ])
    rhs = np.array([0.0, 0.0, f_c])
    coeffs = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ coeffs - rhs)))
    A, B, C = (float(v) for v in coeffs)
    return OracleMode(m=m, k=float(k), k0=float(k0), r0=float(r0),
                      f_c=float(f_c), kind=kind, A=A, B=B, C=C,
                      residual=residual)


def oracle_limit_trace_coefficient(m: int, k0: float, r0: float,
                                   f_c: float = 1.0) -> float:
    """Outer-trace coefficient of the infinite-contrast limit problem.

    Both high-contrast limits (grounded inclusion after mean alignment,
    and perfect conductor) share this trace for mean-free data; it is the
    ``k -> infinity`` limit of the transmission trace:

        ``f_c (1 - r0^(2m)) / (k0 m (1 + r0^(2m)))``.
    """
    if m < 1:
        raise ValueError(f"mode index must be >= 1, got {m}")
    s = r0 ** (2 * m)
    return f_c * (1.0 - s) / (k0 * m * (1.0 + s))


# ---------------------------------------------------------------------------
# the oracle self-check driver and the CSV writing all drivers share
# ---------------------------------------------------------------------------

ORACLE_HEADER = "check,value,bound,status"


def format_number(x) -> str:
    """Full round-trip decimal rendering (17 significant digits)."""
    return "%.17g" % float(x)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [row if isinstance(row, str) else ",".join(row)
                        for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_ORACLE_GRID = {
    "m": (1, 2, 3, 5, 8),
    "k": (0.2, 3.0, 10.0, 100.0),
    "r0": (0.3, 0.5, 0.7),
    "k0": (1.0, 2.0),
}

_ORACLE_BOUNDS = {
    "matching_residual": 1e-13,
    "flux_jump_identity": 1e-12,
    "trace_closed_form": 1e-12,
    "energy_identity": 1e-11,
    "infinite_contrast_limit": 1e-10,
}


def run_oracle_check(config: ExperimentConfig, out_dir) -> list[tuple]:
    """Validate the concentric-disk closed forms against themselves over
    a parameter grid; writes ``oracle.csv`` and raises AssertionError if
    any check exceeds its bound.

    Checks: the matching residual of each mode solve; the layer-density
    jump identity (annulus-side flux minus inside flux equals the
    density); the closed-form outer trace coefficient; the energy
    identity ``k E_in + k0 E_ann = oint f u``; and agreement of the
    ``k -> infinity`` trace with the infinite-contrast coefficient.
    The scene in the config is not used: the grid is fixed.
    """
    worst = dict.fromkeys(_ORACLE_BOUNDS, 0.0)

    def note(check: str, value: float) -> None:
        worst[check] = max(worst[check], value)

    for m, r0, k0 in itertools.product(
            *map(_ORACLE_GRID.get, ("m", "r0", "k0"))):
        for k in _ORACLE_GRID["k"]:
            mode = oracle_transmission_mode(m, k, k0, r0)
            note("matching_residual", mode.residual)
            note("flux_jump_identity", abs(mode.exterior_flux_coeff
                                           - mode.interior_flux_coeff
                                           - mode.density_coeff))
            tau = r0 ** (2 * m) * (k - k0) / (k + k0)
            closed = (1.0 - tau) / (k0 * m * (1.0 + tau))
            note("trace_closed_form", abs(mode.trace_coeff - closed))
            note("energy_identity", abs(
                k * mode.gradient_energy_inside()
                + k0 * mode.gradient_energy_annulus()
                - math.pi * mode.f_c * mode.trace_coeff))
        note("infinite_contrast_limit", abs(
            oracle_transmission_mode(m, 1e12, k0, r0).trace_coeff
            - oracle_limit_trace_coefficient(m, k0, r0)))

    rows = [(name, format_number(worst[name]), format_number(bound),
             "PASS" if worst[name] <= bound else "FAIL")
            for name, bound in _ORACLE_BOUNDS.items()]
    _write_csv(Path(out_dir) / "oracle.csv", ORACLE_HEADER, rows)
    failures = [f"{name}={worst[name]:.3g} > {bound:g}"
                for name, bound in _ORACLE_BOUNDS.items()
                if not worst[name] <= bound]
    if failures:
        raise AssertionError("oracle self-check failed: "
                             + "; ".join(failures))
    return rows
