"""Curve specs ``circle cx cy r``, ``ellipse cx cy a b`` and ``star cx cy
r0 [m:a_m]*`` (radius ``r0 + sum_m a_m cos(m t) + b_m sin(m t)``): parse,
validate and print them with :mod:`math` alone, so configs validate before
numpy loads.  A curve is valid for ``n`` nodes ``t_i = 2*pi*i/n`` when ``n``
is even and >= 8, radii, semi-axes and harmonic indices are positive, every
node is finite, and a star's radius is positive at the nodes and on the
4096-point grid.  :mod:`npeit.geometry` builds the node arrays.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .exceptions import CurveError

#: a validated curve: kind, (cx, cy), params -- (r,), (a, b) or
#: (r0, ((m, a_m, b_m), ...)) -- and the node count it was validated for
CurveSpec = namedtuple("CurveSpec", "kind center params n")
#: points of the coarse grid that can certify a star's radius positive, and
#: of the grid that checks it between nodes when the certificate fails
_COARSE_GRID, _DENSE_GRID = 64, 4096


def circle(center, radius, n: int) -> CurveSpec:
    if radius <= 0:
        raise CurveError(f"circle radius must be positive, got {radius}")
    return _validated("circle", center, (float(radius),), n)


def ellipse(center, a, b, n: int) -> CurveSpec:
    if a <= 0 or b <= 0:
        raise CurveError(f"ellipse semi-axes must be positive, got {a}, {b}")
    return _validated("ellipse", center, (float(a), float(b)), n)


def star(center, r0, terms, n: int) -> CurveSpec:
    """``terms`` holds ``(m, a_m)`` or ``(m, a_m, b_m)`` tuples."""
    norm_terms = []
    for term in terms:
        m, a, b = term if len(term) == 3 else (*term, 0.0)
        if int(m) < 1:
            raise CurveError(f"star harmonic index must be >= 1, got {m}")
        norm_terms.append((int(m), float(a), float(b)))
    return _validated("star", center, (float(r0), tuple(norm_terms)), n)


def parse(text: str, n: int) -> CurveSpec:
    """Validate a curve from its grammar string."""
    fields = text.split()
    if not fields:
        raise CurveError("empty curve spec")
    kind, args = fields[0], fields[1:]
    try:
        if kind == "circle":
            cx, cy, r = map(float, args)
            return circle((cx, cy), r, n)
        if kind == "ellipse":
            cx, cy, a, b = map(float, args)
            return ellipse((cx, cy), a, b, n)
        if kind == "star":
            cx, cy, r0 = map(float, args[:3])
            terms = []
            for tok in args[3:]:
                m_str, amp_str = tok.split(":")
                terms.append((int(m_str), float(amp_str)))
            return star((cx, cy), r0, terms, n)
    except CurveError:
        raise
    except (ValueError, OverflowError) as exc:
        raise CurveError(f"malformed curve spec {text!r}: {exc}") from exc
    raise CurveError(f"unknown curve kind in spec {text!r}")


def curve_spec_string(curve) -> str:
    """Canonical grammar string of a :class:`CurveSpec` or a
    :class:`~npeit.geometry.BoundaryCurve`; :func:`parse` inverts it."""
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


def _validated(kind, center, params, n) -> CurveSpec:
    if n < 8 or n % 2 != 0:
        raise CurveError(f"node count must be even and >= 8, got {n}")
    cx, cy = map(float, center)
    if not _finite_nodes(kind, cx, cy, params, n):
        raise CurveError(f"{kind} with center {[cx, cy]} and parameters "
                         f"{params} has non-finite nodes")
    for m, _, _ in params[1] if kind == "star" else ():
        float(m * m)  # OverflowError past 1.3e154, as the curvature's m**2
    if kind == "star" and not _certified_positive(*params):
        low = _min_radius(*params, n)
        if low <= 0.0:
            raise CurveError("star radius becomes non-positive; curve is not "
                             f"simple (min radius {low:.3e})")
        if _min_radius(*params, _DENSE_GRID) <= 0.0:
            raise CurveError("star radius becomes non-positive between nodes")
    return CurveSpec(kind, (cx, cy), params, n)


def _finite_nodes(kind, cx, cy, params, n) -> bool:
    if kind == "star":
        r0, terms = params
        if not all(math.isfinite(m * math.tau) for m, _, _ in terms):
            return False  # numpy's cos(m t) is nan where m t overflows
        size = abs(r0) + sum(abs(a) + abs(b) for _, a, b in terms)
    else:
        size = sum(map(abs, params))
    # finite parameters give finite nodes unless the arithmetic overflows
    if abs(cx) + abs(cy) + size < 1e300:  # false for nan and inf
        return True
    return all(all(map(math.isfinite,
                       _point(kind, cx, cy, params, 2.0 * math.pi * i / n)))
               for i in range(n))


def _certified_positive(r0, terms) -> bool:
    """True when the radius is positive on every grid, with room for the
    rounding of any evaluation: each ``t`` lies within ``pi/N`` of a point
    of the coarse grid, and ``|rho'| <= L = sum m sqrt(a_m^2 + b_m^2)``."""
    lipschitz = sum(m * math.hypot(a, b) for m, a, b in terms)
    size = abs(r0) + sum(abs(a) + abs(b) for _, a, b in terms)
    slack = (8 * (len(terms) + 2) * sys.float_info.epsilon
             * (size + math.tau * lipschitz))
    low = _min_radius(r0, terms, _COARSE_GRID)
    return low - math.pi / _COARSE_GRID * lipschitz > slack


def _min_radius(r0, terms, count) -> float:
    # least radius on the grid of ``count`` points, nan if any value is nan
    values = [_radius(2.0 * math.pi * i / count, r0, terms)
              for i in range(count)]
    return math.nan if any(map(math.isnan, values)) else min(values)


def _radius(t, r0, terms) -> float:
    # in numpy's order of operations, so the grids decide as numpy does
    rho = r0
    for m, a, b in terms:
        rho += a * math.cos(m * t) + b * math.sin(m * t)
    return rho


def _point(kind, cx, cy, params, t):
    if kind == "ellipse":
        a, b = params
        return cx + a * math.cos(t), cy + b * math.sin(t)
    rho = params[0] if kind == "circle" else _radius(t, *params)
    return cx + rho * math.cos(t), cy + rho * math.sin(t)
