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

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CurveError, IndeterminatePointError, SeparationError

__all__ = [
    "BoundaryCurve",
    "RegionWithHole",
    "InclusionScene",
    "make_circle",
    "make_ellipse",
    "make_star",
    "rotated",
    "parse_curve_spec",
    "curve_spec_string",
    "contains",
    "winding_number",
    "distance_to_boundary",
    "region_distance",
    "hausdorff_distance",
    "modified_distance",
    "conductivity_at",
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

    def signed_area(self) -> float:
        """Enclosed area via the shoelace integral ``0.5 * oint q x q'``."""
        q = self.nodes - self.center
        qp = self._derivative()
        cross = q[:, 0] * qp[:, 1] - q[:, 1] * qp[:, 0]
        return float(0.5 * np.sum(cross) * (2.0 * np.pi / self.n))

    def max_spacing(self) -> float:
        """Largest arc length attached to a single node."""
        return float(np.max(self.weights))

    # -- pointwise parametric data ------------------------------------------

    def point(self, t):
        """Evaluate ``q(t)`` for arbitrary parameter values."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _eval_point(self.kind, self.center, self.params, t)

    def _derivative(self):
        return _eval_derivative(self.kind, self.center, self.params, self.t)

    # -- point classification -------------------------------------------------

    def contains(self, x) -> bool:
        """True iff ``x`` lies strictly inside the curve.

        Raises
        ------
        IndeterminatePointError
            If ``x`` is within ``max_spacing * 1e-8`` of the curve; points
            that close to the discrete boundary are not classified.
        """
        x = np.asarray(x, dtype=float)
        d = distance_to_boundary(self, x)
        if d <= self.max_spacing() * _INSIDE_GUARD_FACTOR:
            raise IndeterminatePointError(
                f"point {tuple(x)} is within {d:.3e} of the curve; "
                "inside/outside is indeterminate at this resolution"
            )
        return _contains_analytic(self, x)


def _radius_series(t, r0, terms):
    rho = np.full_like(t, r0, dtype=float)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    for m, a, b in terms:
        c, s = np.cos(m * t), np.sin(m * t)
        rho += a * c + b * s
        d1 += m * (-a * s + b * c)
        d2 += m * m * (-a * c - b * s)
    return rho, d1, d2


def _eval_point(kind, center, params, t):
    if kind == "circle":
        (r,) = params
        return center + r * np.column_stack([np.cos(t), np.sin(t)])
    if kind == "ellipse":
        a, b = params
        return center + np.column_stack([a * np.cos(t), b * np.sin(t)])
    if kind == "star":
        r0, terms = params
        rho, _, _ = _radius_series(t, r0, terms)
        return center + rho[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    raise CurveError(f"unknown curve kind {kind!r}")


def _eval_derivative(kind, center, params, t):
    if kind == "circle":
        (r,) = params
        return r * np.column_stack([-np.sin(t), np.cos(t)])
    if kind == "ellipse":
        a, b = params
        return np.column_stack([-a * np.sin(t), b * np.cos(t)])
    if kind == "star":
        r0, terms = params
        rho, d1, _ = _radius_series(t, r0, terms)
        e = np.column_stack([np.cos(t), np.sin(t)])
        ep = np.column_stack([-np.sin(t), np.cos(t)])
        return d1[:, None] * e + rho[:, None] * ep
    raise CurveError(f"unknown curve kind {kind!r}")


def _build_curve(kind, center, params, n) -> BoundaryCurve:
    if n < 8 or n % 2 != 0:
        raise CurveError(f"node count must be even and >= 8, got {n}")
    center = np.asarray(center, dtype=float)
    t = 2.0 * np.pi * np.arange(n) / n

    q = _eval_point(kind, center, params, t)
    qp = _eval_derivative(kind, center, params, t)

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
        if np.min(rho) <= 0.0:
            raise CurveError(
                "star radius becomes non-positive; curve is not simple "
                f"(min radius {np.min(rho):.3e})"
            )
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
    if radius <= 0:
        raise CurveError(f"circle radius must be positive, got {radius}")
    return _build_curve("circle", center, (float(radius),), n)


def make_ellipse(center, a: float, b: float, n: int) -> BoundaryCurve:
    """Axis-aligned ellipse with semi-axes ``a`` (x) and ``b`` (y)."""
    if a <= 0 or b <= 0:
        raise CurveError(f"ellipse semi-axes must be positive, got {a}, {b}")
    return _build_curve("ellipse", center, (float(a), float(b)), n)


def make_star(center, r0: float, terms, n: int) -> BoundaryCurve:
    """Trigonometric star ``rho(t) = r0 + sum (a_m cos(mt) + b_m sin(mt))``.

    Parameters
    ----------
    terms : iterable of (m, a_m) or (m, a_m, b_m)
        Harmonic perturbations of the base radius.  The curve is rejected
        if the radius is not strictly positive everywhere.
    """
    norm_terms = []
    for term in terms:
        if len(term) == 2:
            m, a = term
            b = 0.0
        else:
            m, a, b = term
        if int(m) < 1:
            raise CurveError(f"star harmonic index must be >= 1, got {m}")
        norm_terms.append((int(m), float(a), float(b)))
    curve = _build_curve("star", center, (float(r0), tuple(norm_terms)), n)
    # dense positivity check beyond the build nodes
    tt = 2.0 * np.pi * np.arange(4096) / 4096
    rho, _, _ = _radius_series(tt, r0, norm_terms)
    if np.min(rho) <= 0:
        raise CurveError("star radius becomes non-positive between nodes")
    return curve


def rotated(curve: BoundaryCurve, angle: float, pivot=None) -> BoundaryCurve:
    """Rigidly rotated copy of a curve (same node count).

    Circles and stars rotate exactly within their parametric family; an
    ellipse may only be rotated by multiples of pi.
    """
    pivot = np.asarray(curve.center if pivot is None else pivot, dtype=float)
    ca, sa = math.cos(angle), math.sin(angle)
    rot = np.array([[ca, -sa], [sa, ca]])
    new_center = pivot + rot @ (curve.center - pivot)
    if curve.kind == "circle":
        return _build_curve("circle", new_center, curve.params, curve.n)
    if curve.kind == "star":
        r0, terms = curve.params
        new_terms = []
        for m, a, b in terms:
            cm, sm = math.cos(m * angle), math.sin(m * angle)
            new_terms.append((m, a * cm - b * sm, a * sm + b * cm))
        return _build_curve("star", new_center, (r0, tuple(new_terms)), curve.n)
    if curve.kind == "ellipse":
        if abs(math.remainder(angle, math.pi)) > 1e-14:
            raise CurveError("ellipse rotation only supported by multiples of pi")
        return _build_curve("ellipse", new_center, curve.params, curve.n)
    raise CurveError(f"unknown curve kind {curve.kind!r}")


# ---------------------------------------------------------------------------
# curve grammar (used by experiment configs)
# ---------------------------------------------------------------------------

def parse_curve_spec(text: str, n: int) -> BoundaryCurve:
    """Build a curve from its grammar string.

    Grammar::

        circle  cx cy r
        ellipse cx cy a b
        star    cx cy r0 [m:amp]*
    """
    fields = text.split()
    if not fields:
        raise CurveError("empty curve spec")
    kind, args = fields[0], fields[1:]
    try:
        if kind == "circle":
            cx, cy, r = map(float, args)
            return make_circle((cx, cy), r, n)
        if kind == "ellipse":
            cx, cy, a, b = map(float, args)
            return make_ellipse((cx, cy), a, b, n)
        if kind == "star":
            cx, cy, r0 = map(float, args[:3])
            terms = []
            for tok in args[3:]:
                m_str, amp_str = tok.split(":")
                terms.append((int(m_str), float(amp_str)))
            return make_star((cx, cy), r0, terms, n)
    except CurveError:
        raise
    except Exception as exc:
        raise CurveError(f"malformed curve spec {text!r}: {exc}") from exc
    raise CurveError(f"unknown curve kind in spec {text!r}")


def curve_spec_string(curve: BoundaryCurve) -> str:
    """Inverse of :func:`parse_curve_spec` (grammar-representable curves only)."""
    cx, cy = curve.center
    if curve.kind == "circle":
        (r,) = curve.params
        return f"circle {cx:.17g} {cy:.17g} {r:.17g}"
    if curve.kind == "ellipse":
        a, b = curve.params
        return f"ellipse {cx:.17g} {cy:.17g} {a:.17g} {b:.17g}"
    if curve.kind == "star":
        r0, terms = curve.params
        toks = []
        for m, a, b in terms:
            if b != 0.0:
                raise CurveError("star with sine terms is not grammar-representable")
            toks.append(f"{m}:{a:.17g}")
        return " ".join([f"star {cx:.17g} {cy:.17g} {r0:.17g}"] + toks)
    raise CurveError(f"unknown curve kind {curve.kind!r}")


# ---------------------------------------------------------------------------
# point classification and distances
# ---------------------------------------------------------------------------

def _contains_analytic(curve: BoundaryCurve, x) -> bool:
    dx = np.asarray(x, dtype=float) - curve.center
    if curve.kind == "circle":
        (r,) = curve.params
        return float(np.hypot(*dx)) < r
    if curve.kind == "ellipse":
        a, b = curve.params
        return (dx[0] / a) ** 2 + (dx[1] / b) ** 2 < 1.0
    r0, terms = curve.params
    theta = math.atan2(dx[1], dx[0])
    rho, _, _ = _radius_series(np.array([theta]), r0, terms)
    return float(np.hypot(*dx)) < rho[0]


def winding_number(curve: BoundaryCurve, x) -> int:
    """Discrete winding number of the node polygon around ``x``.

    Used by validation tests as an independent check of the analytic
    inside tests; 1 for interior points, 0 for exterior points.
    """
    v = curve.nodes - np.asarray(x, dtype=float)
    ang = np.arctan2(v[:, 1], v[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(np.sum(dang) / (2.0 * np.pi)))


def contains(curve: BoundaryCurve, x) -> bool:
    """Module-level alias for :meth:`BoundaryCurve.contains`."""
    return curve.contains(x)


def distance_to_boundary(curve: BoundaryCurve, x) -> float:
    """Distance from a point to the curve.

    Exact for circles; for other kinds the node minimum is refined by a
    golden-section search on the exact parameterization, so the result is
    limited only by local-minimum bracketing (adequate for the smooth,
    mildly perturbed curves used here).
    """
    x = np.asarray(x, dtype=float)
    if curve.kind == "circle":
        (r,) = curve.params
        return abs(float(np.hypot(*(x - curve.center))) - r)
    d2 = np.sum((curve.nodes - x) ** 2, axis=1)
    i = int(np.argmin(d2))
    h = 2.0 * np.pi / curve.n
    lo, hi = curve.t[i] - h, curve.t[i] + h

    def f(tt):
        p = curve.point(np.array([tt]))[0]
        return float(np.sum((p - x) ** 2))

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(80):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
        if b - a < 1e-14:
            break
    return math.sqrt(min(f1, f2))


@dataclass(frozen=True)
class RegionWithHole:
    """Closed annular region: points inside ``outer`` but not inside ``hole``."""

    outer: BoundaryCurve
    hole: BoundaryCurve

    def __post_init__(self):
        for node in self.hole.nodes:
            if not self.outer.contains(node):
                raise CurveError("hole curve is not contained in the outer curve")


def _region_curves(region):
    if isinstance(region, BoundaryCurve):
        return (region,)
    if isinstance(region, RegionWithHole):
        return (region.outer, region.hole)
    raise TypeError(f"not a region: {region!r}")


def _in_region(region, x) -> bool:
    if isinstance(region, BoundaryCurve):
        return region.contains(x)
    return region.outer.contains(x) and not region.hole.contains(x)


def region_distance(x, region) -> float:
    """Distance from a point to a closed region (0 inside)."""
    try:
        inside = _in_region(region, x)
    except IndeterminatePointError:
        return 0.0  # on the boundary, hence in the closed region
    if inside:
        return 0.0
    return min(distance_to_boundary(c, x) for c in _region_curves(region))


def _interior_candidates(region):
    """Points where the distance to this region's complement can peak.

    A region with a hole admits interior maxima of ``d(., region)`` at the
    deepest point of the hole; for the supported hole shapes the curve
    center is that point (exact for circular holes).
    """
    if isinstance(region, RegionWithHole):
        return [np.asarray(region.hole.center, dtype=float)]
    return []


def _directed_boundary(a, b) -> float:
    # disk-disk pairs have a closed form; keep them exact
    if (isinstance(a, BoundaryCurve) and a.kind == "circle"
            and isinstance(b, BoundaryCurve) and b.kind == "circle"):
        dc = float(np.hypot(*(a.center - b.center)))
        return max(0.0, dc + a.params[0] - b.params[0])
    best = 0.0
    for c in _region_curves(a):
        for node in c.nodes:
            best = max(best, region_distance(node, b))
    return best


def _directed_hausdorff(a, b) -> float:
    best = _directed_boundary(a, b)
    for cand in _interior_candidates(b):
        try:
            if _in_region(a, cand):
                best = max(best, region_distance(cand, b))
        except IndeterminatePointError:
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

    def __post_init__(self):
        if self.k0 <= 0:
            raise CurveError(f"background conductivity must be positive, got {self.k0}")
        for node in self.inclusion.nodes:
            if not self.outer.contains(node):
                raise CurveError("inclusion is not strictly inside the outer boundary")
        sep = self.separation()
        threshold = 3.0 * max(self.outer.max_spacing(), self.inclusion.max_spacing())
        if sep < threshold:
            raise SeparationError(
                f"inclusion-outer separation {sep:.4g} is below {threshold:.4g} "
                f"(3 node spacings); refine the grids or shrink the inclusion"
            )

    def separation(self) -> float:
        """Minimal node-to-node distance between the two boundaries."""
        d = self.outer.nodes[:, None, :] - self.inclusion.nodes[None, :, :]
        return float(np.min(np.hypot(d[..., 0], d[..., 1])))


def conductivity_at(scene: InclusionScene, k: float, x) -> float:
    """Piecewise-constant coefficient: ``k`` inside the inclusion, ``k0``
    outside (no smoothing).  Near-boundary points raise
    :class:`IndeterminatePointError` rather than guessing the side."""
    return k if scene.inclusion.contains(x) else scene.k0
