"""Closed boundary curves, inclusion scenes, and set distances between
planar regions.

Curves are smooth, simple, closed, positively oriented, and discretized at
``n`` equispaced parameter values ``t_i = 2*pi*i/n``.  Three parametric
families are supported:

* ``circle``  -- ``q(t) = c + r (cos t, sin t)``
* ``ellipse`` -- ``q(t) = c + (a cos t, b sin t)``
* ``star``    -- ``q(t) = c + rho(t) (cos t, sin t)`` with a trigonometric
  radius ``rho(t) = r0 + sum_m (a_m cos(m t) + b_m sin(m t))``

Every curve carries nodes, outward unit normals, parametric speed,
curvature, and trapezoidal arc-length weights; downstream quadrature is
spectrally accurate on these families because all data are analytic and
2*pi-periodic.

Region distances operate on closed regions: a curve stands for the closed
region it bounds, and an annular region is an ordered (outer, hole) curve
pair.  Two distances are provided: the symmetric Hausdorff distance between
the closed regions, and a weaker boundary-to-region variant that ignores
interior discrepancies (it vanishes e.g. between a disk and the annulus
obtained by removing an interior hole from it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvespec
from .curvespec import curve_spec_string
from .exceptions import CurveError, IndeterminatePointError, SeparationError

__all__ = [
    "BoundaryCurve",
    "RegionWithHole",
    "InclusionScene",
    "make_circle",
    "make_ellipse",
    "make_star",
    "parse_curve_spec",
    "curve_spec_string",
    "distance_to_boundary",
    "region_distance",
    "hausdorff_distance",
    "modified_distance",
]

# Inside tests refuse to classify points within this many arc-spacings of
# the discrete curve (relative guard band; see BoundaryCurve.contains).
_INSIDE_GUARD_FACTOR = 1e-8


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCurve:
    """Discretized smooth closed curve.

    Attributes
    ----------
    kind : str
        One of ``circle``, ``ellipse``, ``star``.
    center : ndarray, shape (2,)
        Reference center of the parameterization.
    params : tuple
        Kind-specific shape parameters (see factory functions).
    n : int
        Number of equispaced parameter nodes.
    t : ndarray, shape (n,)
        Parameter values ``2*pi*i/n``.
    nodes : ndarray, shape (n, 2)
        Points ``q(t_i)``.
    normals : ndarray, shape (n, 2)
        Outward unit normals.
    speed : ndarray, shape (n,)
        ``|q'(t_i)|``.
    curvature : ndarray, shape (n,)
        Signed curvature (positive for convex, ccw orientation).
    weights : ndarray, shape (n,)
        Trapezoidal arc-length weights ``2*pi*|q'(t_i)|/n``.
    """

    kind: str
    center: np.ndarray
    params: tuple
    n: int
    t: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    speed: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def length(self) -> float:
        """Total arc length by the trapezoidal rule (spectrally accurate)."""
        return float(np.sum(self.weights))

    def max_spacing(self) -> float:
        """Largest arc length attached to a single node."""
        return float(np.max(self.weights))

    def mean(self, values):
        """Arc-length mean of nodal values (a vector or columns)."""
        return (self.weights @ values) / self.length()

    # -- pointwise parametric data ------------------------------------------

    def point(self, t):
        """Evaluate ``q(t)`` for arbitrary parameter values."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _eval_jet(self.kind, self.center, self.params, t)[0]

    # -- point classification -------------------------------------------------

    def locate(self, pts):
        """Distances of a ``(P, 2)`` point array to the curve, strict-inside
        flags, and flags of the points too close to classify (see
        :meth:`contains`)."""
        d = distance_to_boundary(self, pts)
        return (d, _contains_analytic(self, pts),
                d <= self.max_spacing() * _INSIDE_GUARD_FACTOR)

    def contains(self, x):
        """True iff ``x`` lies strictly inside the curve (one flag per row
        of a ``(P, 2)`` array).  Raises IndeterminatePointError for the
        first point within ``max_spacing * 1e-8`` of the curve: points that
        close to the discrete boundary are not classified."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, 2)
        d, inside, unsure = self.locate(pts)
        if unsure.any():
            i = int(np.argmax(unsure))
            raise IndeterminatePointError(
                f"point {tuple(pts[i])} is within {d[i]:.3e} of the curve; "
                "inside/outside is indeterminate at this resolution"
            )
        return bool(inside[0]) if x.ndim == 1 else inside


def _require_inside(curve: BoundaryCurve, pts, message: str) -> tuple:
    # raises as ``curve.contains`` per point would, else gives ``curve.locate(pts)``
    located = curve.locate(pts)
    bad = located[2] | ~located[1]
    if bad.any() and not curve.contains(pts[int(np.argmax(bad))]):
        raise CurveError(message)
    return located


def _radius(t, r0, terms):
    rho = np.full_like(t, r0, dtype=float)
    for m, a, b in terms:
        rho += a * np.cos(m * t) + b * np.sin(m * t)
    return rho


def _radius_series(t, r0, terms):
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    for m, a, b in terms:
        c, s = np.cos(m * t), np.sin(m * t)
        d1 += m * (-a * s + b * c)
        d2 += m * m * (-a * c - b * s)
    return _radius(t, r0, terms), d1, d2


def _eval_jet(kind, center, params, t):
    # q(t), q'(t) and q''(t), each (len(t), 2)
    e = np.column_stack([np.cos(t), np.sin(t)])
    ep = np.column_stack([-e[:, 1], e[:, 0]])
    if kind == "star":
        rho, d1, d2 = (v[:, None] for v in _radius_series(t, *params))
        return center + rho * e, d1 * e + rho * ep, (d2 - rho) * e + 2.0 * d1 * ep
    if kind not in ("circle", "ellipse"):
        raise CurveError(f"unknown curve kind {kind!r}")
    axes = np.array(params)  # a circle's (r,) broadcasts
    return center + axes * e, axes * ep, -axes * e


def _build_curve(spec: curvespec.CurveSpec) -> BoundaryCurve:
    """Node arrays of a validated curve."""
    kind, params, n = spec.kind, spec.params, spec.n
    center = np.array(spec.center)
    t = 2.0 * np.pi * np.arange(n) / n
    q, qp, _ = _eval_jet(kind, center, params, t)

    if kind == "circle":
        (r,) = params
        speed = np.full(n, r)
        kappa = np.full(n, 1.0 / r)
    elif kind == "ellipse":
        a, b = params
        speed = np.hypot(a * np.sin(t), b * np.cos(t))
        kappa = a * b / speed**3
    else:  # star
        r0, terms = params
        rho, d1, d2 = _radius_series(t, r0, terms)
        speed = np.hypot(rho, d1)
        kappa = (rho**2 + 2.0 * d1**2 - rho * d2) / speed**3

    normals = np.column_stack([qp[:, 1], -qp[:, 0]]) / speed[:, None]
    weights = 2.0 * np.pi * speed / n
    return BoundaryCurve(
        kind=kind, center=center, params=params, n=n, t=t, nodes=q,
        normals=normals, speed=speed, curvature=kappa, weights=weights,
    )


def make_circle(center, radius: float, n: int) -> BoundaryCurve:
    """Circle of given center and radius with ``n`` nodes."""
    return _build_curve(curvespec.circle(center, radius, n))


def make_ellipse(center, a: float, b: float, n: int) -> BoundaryCurve:
    """Axis-aligned ellipse with semi-axes ``a`` (x) and ``b`` (y)."""
    return _build_curve(curvespec.ellipse(center, a, b, n))


def make_star(center, r0: float, terms, n: int) -> BoundaryCurve:
    """Trigonometric star ``rho(t) = r0 + sum (a_m cos(mt) + b_m sin(mt))``.

    Parameters
    ----------
    terms : iterable of (m, a_m) or (m, a_m, b_m)
        Harmonic perturbations of the base radius.  The curve is rejected
        if the radius is not strictly positive at the nodes and between
        them (see :mod:`npeit.curvespec`).
    """
    return _build_curve(curvespec.star(center, r0, terms, n))


def parse_curve_spec(text: str, n: int) -> BoundaryCurve:
    """Build a curve from its grammar string (see :mod:`npeit.curvespec`)."""
    return _build_curve(curvespec.parse(text, n))


# ---------------------------------------------------------------------------
# point classification and distances
# ---------------------------------------------------------------------------

def _contains_analytic(curve: BoundaryCurve, x):
    # strict-inside flags from the exact parameterization (point or rows)
    dx = np.asarray(x, dtype=float) - curve.center
    if curve.kind == "circle":
        (r,) = curve.params
        return np.hypot(dx[..., 0], dx[..., 1]) < r
    if curve.kind == "ellipse":
        a, b = curve.params
        return (dx[..., 0] / a) ** 2 + (dx[..., 1] / b) ** 2 < 1.0
    r0, terms = curve.params
    theta = np.arctan2(dx[..., 1], dx[..., 0])
    return np.hypot(dx[..., 0], dx[..., 1]) < _radius(theta, r0, terms)


def distance_to_boundary(curve: BoundaryCurve, x):
    """Distance from a point, or per row of a ``(P, 2)`` array, to the curve.

    Exact for circles; for other kinds a safeguarded Newton iteration on
    the exact parameterization refines the nearest node, so the result is
    limited only by local-minimum bracketing (adequate for the smooth,
    mildly perturbed curves used here).  All rows are refined at once, and
    each stops on its own: a row's distance is the same alone or in a batch.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    if curve.kind == "circle":
        (r,) = curve.params
        dx = pts - curve.center
        d = np.abs(np.hypot(dx[:, 0], dx[:, 1]) - r)
    else:
        d = _newton_distance(curve, pts)
    return float(d[0]) if x.ndim == 1 else d


def _newton_distance(curve: BoundaryCurve, pts) -> np.ndarray:
    # Newton on g(t) = (q - x).q' = f'/2, f = |q(t) - x|^2, from the nearest
    # node t0 inside a bracket [t0 - h, t0 + h] that shrinks to where f
    # descends.  Where g' <= 0 (a node can be a local maximum of f) the step
    # goes to the minimum of f + 2 g s + g' s^2 + c s^4 through f at the
    # bracket end, else halfway; a row stops once g^2/g' < f's last bit.
    fn = (curve.nodes[:, 0] - pts[:, 0, None]) ** 2 \
        + (curve.nodes[:, 1] - pts[:, 1, None]) ** 2
    i, live = np.argmin(fn, axis=1), np.arange(len(pts))
    t, h, out = curve.t[i], 2.0 * np.pi / curve.n, np.empty(len(pts))
    lo, hi, f_lo, f_hi = t - h, t + h, fn[live, i - 1], fn[live, (i + 1) % curve.n]
    for _ in range(40):
        q, q1, q2 = _eval_jet(curve.kind, curve.center, curve.params, t)
        r = q - pts
        f, g, s2 = (r * r).sum(axis=1), (r * q1).sum(axis=1), (q1 * q1).sum(axis=1)
        gp = s2 + (r * q2).sum(axis=1)
        # g' within its roundoff of 0 is a flat minimum, not a maximum; the
        # floor of f's last bit is the resolution of r and of t
        flat = 8.0 * np.spacing(s2 + np.sqrt(f * (q2 * q2).sum(axis=1)))
        tiny = np.spacing((abs(q) + abs(pts)).sum(axis=1)) + np.spacing(t) * np.sqrt(s2)
        done = (gp > -flat) & (g * g <= np.maximum(gp, flat)
                               * (np.spacing(f) + 4.0 * tiny * tiny))
        out[live[done]] = np.sqrt(f[done])
        if done.all():
            return out
        live, pts, t, lo, hi, f_lo, f_hi, f, g, gp = (
            v[~done] for v in (live, pts, t, lo, hi, f_lo, f_hi, f, g, gp))
        left = g > 0
        lo, f_lo = np.where(g < 0, t, lo), np.where(g < 0, f, f_lo)
        hi, f_hi = np.where(left, t, hi), np.where(left, f, f_hi)
        span = np.where(left, lo, hi) - t
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - g / gp
            quartic = np.where(left, f_lo, f_hi) - f - (2.0 * g + gp * span) * span
            frac = np.abs(span) * np.sqrt(-gp) / np.sqrt(2.0 * quartic)
        frac = np.where((frac > 0.0) & (frac < 1.0), frac, 0.5)
        t = np.where((gp > 0) & (step > lo) & (step < hi), step, t + frac * span)
    out[live] = np.sqrt(f)
    return out


@dataclass(frozen=True)
class RegionWithHole:
    """Closed annular region: points inside ``outer`` but not inside ``hole``."""

    outer: BoundaryCurve
    hole: BoundaryCurve

    def __post_init__(self):
        _require_inside(self.outer, self.hole.nodes,
                        "hole curve is not contained in the outer curve")


def _region_curves(region):
    if isinstance(region, BoundaryCurve):
        return (region,)
    if isinstance(region, RegionWithHole):
        return (region.outer, region.hole)
    raise TypeError(f"not a region: {region!r}")


def region_distance(x, region):
    """Distance from a point, or per row of a ``(P, 2)`` array, to a closed
    region (0 inside, and for points too close to a boundary to classify)."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 2)
    curves = _region_curves(region)
    d, inside, unsure = curves[0].locate(pts)
    zero = unsure | inside
    if len(curves) == 2:
        d_hole, in_hole, unsure_hole = curves[1].locate(pts)
        zero = unsure | (inside & (unsure_hole | ~in_hole))
        d = np.minimum(d, d_hole)
    d = np.where(zero, 0.0, d)
    return float(d[0]) if x.ndim == 1 else d


def _directed_boundary(a, b) -> float:
    # disk-disk pairs have a closed form; keep them exact
    if (isinstance(a, BoundaryCurve) and a.kind == "circle"
            and isinstance(b, BoundaryCurve) and b.kind == "circle"):
        dc = float(np.hypot(*(a.center - b.center)))
        return max(0.0, dc + a.params[0] - b.params[0])
    nodes = np.concatenate([c.nodes for c in _region_curves(a)])
    return max(0.0, float(np.max(region_distance(nodes, b))))


def _directed_hausdorff(a, b) -> float:
    best = _directed_boundary(a, b)
    # the distance to a region with a hole can also peak inside the hole,
    # at its deepest point: the hole center (exact for circular holes)
    if isinstance(b, RegionWithHole):
        cand = b.hole.center
        if region_distance(cand, a) == 0.0:  # in ``a``, or too close to tell
            best = max(best, region_distance(cand, b))
    return best


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two closed regions.

    Accepts :class:`BoundaryCurve` (the closed region it bounds) or
    :class:`RegionWithHole`.  Computed from boundary nodes plus the
    hole-center candidates where the distance function can peak inside a
    region; exact for disk pairs.
    """
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def modified_distance(a, b) -> float:
    """Boundary-to-region distance: ``max_x in bd(A) d(x, B)`` symmetrized.

    Never exceeds :func:`hausdorff_distance`; vanishes when each boundary
    lies inside the other closed region (e.g. a disk versus the annulus
    obtained by removing an interior hole from it).
    """
    return max(_directed_boundary(a, b), _directed_boundary(b, a))


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InclusionScene:
    """One inclusion strictly inside an outer boundary, with background
    conductivity ``k0``.

    Attributes
    ----------
    outer, inclusion : BoundaryCurve
    k0 : float
        Background conductivity (inclusion conductivity is per-solve).
    """

    outer: BoundaryCurve
    inclusion: BoundaryCurve
    k0: float = 1.0
    #: ``outer.locate(inclusion.nodes)``, for the outer kernel's guard too
    located: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k0 <= 0:
            raise CurveError(f"background conductivity must be positive, got {self.k0}")
        object.__setattr__(self, "located", _require_inside(
            self.outer, self.inclusion.nodes,
            "inclusion is not strictly inside the outer boundary"))
        sep = self.separation()
        threshold = 3.0 * max(self.outer.max_spacing(), self.inclusion.max_spacing())
        if sep < threshold:
            raise SeparationError(
                f"inclusion-outer separation {sep:.4g} is below {threshold:.4g} "
                f"(3 node spacings); refine the grids or shrink the inclusion"
            )

    def separation(self) -> float:
        """Minimal node-to-node distance between the two boundaries."""
        p, q = self.outer.nodes, self.inclusion.nodes
        d2 = (p[:, 0, None] - q[:, 0]) ** 2
        d2 += (p[:, 1, None] - q[:, 1]) ** 2
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        return float(np.hypot(*(p[i] - q[j])))
