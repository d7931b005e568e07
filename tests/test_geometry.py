"""Geometry layer: curve data, inside tests, and region distances.

Frozen values used below come from closed forms evaluated by hand or with
an independent high-precision integrator (noted inline).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npeit.exceptions import CurveError, IndeterminatePointError, SeparationError
from npeit.geometry import (
    BoundaryCurve,
    InclusionScene,
    RegionWithHole,
    _eval_jet,
    curve_spec_string,
    distance_to_boundary,
    hausdorff_distance,
    make_circle,
    make_ellipse,
    make_star,
    modified_distance,
    parse_curve_spec,
    region_distance,
)

from references import rotated

# Perimeter of the ellipse with a=1.3, b=0.7, via 4*a*E(e^2) evaluated
# with mpmath to 30 digits (frozen):
ELLIPSE_13_07_LENGTH = 6.4253707428389257

# Arc length of the star r(t) = 1 + 0.2*cos(3t) about the origin,
# integral of sqrt(r^2 + r'^2), evaluated with mpmath.quad (frozen):
STAR_3_02_LENGTH = 6.8198404797963566

# Area of the same star: pi*(r0^2 + 0.5*0.2^2) exactly.
STAR_3_02_AREA = math.pi * (1.0 + 0.5 * 0.04)




def signed_area(curve) -> float:
    """Enclosed area via the shoelace integral ``0.5 * oint q x q'``."""
    q = curve.nodes - curve.center
    qp = _eval_jet(curve.kind, curve.center, curve.params, curve.t)[1]
    cross = q[:, 0] * qp[:, 1] - q[:, 1] * qp[:, 0]
    return float(0.5 * np.sum(cross) * (2.0 * np.pi / curve.n))


def winding_number(curve, x) -> int:
    """Discrete winding number of the node polygon around ``x``: an
    independent check of the analytic inside tests; 1 for interior points,
    0 for exterior points."""
    v = curve.nodes - np.asarray(x, dtype=float)
    ang = np.arctan2(v[:, 1], v[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(np.sum(dang) / (2.0 * np.pi)))


def conductivity_at(scene, k, x) -> float:
    """Piecewise-constant coefficient: ``k`` inside the inclusion, ``k0``
    outside (no smoothing).  Near-boundary points raise
    :class:`IndeterminatePointError` rather than guessing the side."""
    return k if scene.inclusion.contains(x) else scene.k0


# ---------------------------------------------------------------------------
# curve data
# ---------------------------------------------------------------------------

class TestCurveData:
    def test_circle_basics(self):
        c = make_circle((0.3, -0.1), 0.75, 64)
        assert c.length() == pytest.approx(2 * math.pi * 0.75, rel=1e-14)
        assert signed_area(c) == pytest.approx(math.pi * 0.75**2, rel=1e-14)
        assert np.allclose(c.curvature, 1 / 0.75)
        assert np.allclose(c.speed, 0.75)
        # outward normals point away from the center
        rad = c.nodes - np.array([0.3, -0.1])
        assert np.allclose(c.normals, rad / np.linalg.norm(rad, axis=1)[:, None])

    def test_ellipse_length_and_area(self):
        c = make_ellipse((0, 0), 1.3, 0.7, 256)
        assert c.length() == pytest.approx(ELLIPSE_13_07_LENGTH, rel=1e-12)
        assert signed_area(c) == pytest.approx(math.pi * 1.3 * 0.7, rel=1e-12)

    def test_ellipse_curvature_endpoints(self):
        c = make_ellipse((0, 0), 1.3, 0.7, 64)
        # kappa = a/b^2 at the tip of the major axis, b/a^2 at the minor
        assert c.curvature[0] == pytest.approx(1.3 / 0.7**2, rel=1e-13)
        assert c.curvature[16] == pytest.approx(0.7 / 1.3**2, rel=1e-13)

    def test_star_length_and_area(self):
        c = make_star((0, 0), 1.0, [(3, 0.2)], 256)
        assert c.length() == pytest.approx(STAR_3_02_LENGTH, rel=1e-12)
        assert signed_area(c) == pytest.approx(STAR_3_02_AREA, rel=1e-12)

    def test_star_curvature_against_circle(self):
        # zero-amplitude star degenerates to the circle
        c = make_star((0, 0), 0.8, [], 64)
        assert np.allclose(c.curvature, 1.25)
        assert np.allclose(c.speed, 0.8)

    def test_normals_are_unit_and_outward(self):
        for c in (
            make_circle((0, 0), 1.0, 32),
            make_ellipse((0.2, 0.1), 1.1, 0.6, 32),
            make_star((0, 0), 1.0, [(5, 0.08)], 64),
        ):
            assert np.allclose(np.linalg.norm(c.normals, axis=1), 1.0)
            # stepping outward along the normal leaves the region
            probe = c.nodes + 0.05 * c.normals
            assert not any(c.contains(p) for p in probe)

    def test_node_count_validation(self):
        with pytest.raises(CurveError):
            make_circle((0, 0), 1.0, 7)
        with pytest.raises(CurveError):
            make_circle((0, 0), 1.0, 33)
        with pytest.raises(CurveError):
            make_circle((0, 0), -1.0, 32)

    def test_star_positivity_guard(self):
        with pytest.raises(CurveError):
            make_star((0, 0), 1.0, [(4, 1.1)], 64)


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

class TestInsideTests:
    def test_circle_contains(self):
        c = make_circle((1.0, 0.0), 0.5, 32)
        assert c.contains((1.2, 0.1))
        assert not c.contains((0.0, 0.0))

    def test_star_contains_matches_winding(self):
        c = make_star((0, 0), 1.0, [(3, 0.2), (5, 0.05)], 256)
        rng = np.random.default_rng(20260814)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        for p in pts:
            try:
                inside = c.contains(p)
            except IndeterminatePointError:
                continue
            assert inside == (winding_number(c, p) == 1)

    def test_near_boundary_is_indeterminate(self):
        c = make_circle((0, 0), 1.0, 64)
        eps = 0.5 * c.max_spacing() * 1e-8
        with pytest.raises(IndeterminatePointError):
            c.contains((1.0 + eps, 0.0))

    def test_conductivity_is_piecewise_constant(self):
        scene = InclusionScene(
            outer=make_circle((0, 0), 1.0, 64),
            inclusion=make_circle((0, 0), 0.5, 64),
            k0=2.0,
        )
        assert conductivity_at(scene, 7.0, (0.1, 0.1)) == 7.0
        assert conductivity_at(scene, 7.0, (0.9, 0.0)) == 2.0
        with pytest.raises(IndeterminatePointError):
            conductivity_at(scene, 7.0, (0.5, 0.0))


# ---------------------------------------------------------------------------
# distances between regions
# ---------------------------------------------------------------------------

class TestRegionDistances:
    def test_point_to_region(self):
        disk = make_circle((0, 0), 1.0, 64)
        assert region_distance((0.2, 0.0), disk) == 0.0
        assert region_distance((2.0, 0.0), disk) == pytest.approx(1.0, abs=1e-15)
        ann = RegionWithHole(make_circle((0, 0), 1.0, 64),
                             make_circle((0, 0), 0.25, 64))
        assert region_distance((0.5, 0.0), ann) == 0.0
        assert region_distance((0.0, 0.0), ann) == pytest.approx(0.25, abs=1e-15)

    def test_disk_vs_annulus_small_hole(self):
        # removing a center hole of radius 1/2 from the unit disk:
        # boundary variant blind to it, Hausdorff sees the hole radius
        disk = make_circle((0, 0), 1.0, 128)
        ann = RegionWithHole(make_circle((0, 0), 1.0, 128),
                             make_circle((0, 0), 0.5, 128))
        assert modified_distance(disk, ann) == pytest.approx(0.0, abs=1e-12)
        assert hausdorff_distance(disk, ann) == pytest.approx(0.5, abs=1e-12)

    def test_annulus_vs_larger_disk(self):
        # same annulus against the disk of radius 5/4: boundary variant
        # reaches 1/4 (outer rim gap), Hausdorff still 1/2 (hole center)
        disk = make_circle((0, 0), 1.25, 128)
        ann = RegionWithHole(make_circle((0, 0), 1.0, 128),
                             make_circle((0, 0), 0.5, 128))
        assert modified_distance(disk, ann) == pytest.approx(0.25, abs=1e-12)
        assert hausdorff_distance(disk, ann) == pytest.approx(0.5, abs=1e-12)

    def test_concentric_disks(self):
        a = make_circle((0, 0), 1.0, 64)
        b = make_circle((0, 0), 0.6, 64)
        assert hausdorff_distance(a, b) == pytest.approx(0.4, abs=1e-15)
        assert modified_distance(a, b) == pytest.approx(0.4, abs=1e-15)

    def test_translated_disks(self):
        a = make_circle((0, 0), 0.5, 64)
        b = make_circle((0.3, 0), 0.5, 64)
        assert hausdorff_distance(a, b) == pytest.approx(0.3, abs=1e-15)
        assert modified_distance(a, b) == pytest.approx(0.3, abs=1e-15)

    def test_distances_coincide_on_disks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            r1, r2 = rng.uniform(0.1, 1.0, 2)
            a, b = make_circle(c1, r1, 32), make_circle(c2, r2, 32)
            assert hausdorff_distance(a, b) == pytest.approx(
                modified_distance(a, b), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.floats(-1, 1) for _ in range(6)]),
        st.tuples(*[st.floats(0.05, 1.0) for _ in range(3)]),
    )
    def test_disk_triples_satisfy_metric_axioms(self, centers, radii):
        disks = [
            make_circle((centers[2 * i], centers[2 * i + 1]), radii[i], 16)
            for i in range(3)
        ]
        dab = hausdorff_distance(disks[0], disks[1])
        dba = hausdorff_distance(disks[1], disks[0])
        dbc = hausdorff_distance(disks[1], disks[2])
        dac = hausdorff_distance(disks[0], disks[2])
        assert dab == dba  # symmetry, exact
        assert dac <= dab + dbc + 1e-10  # triangle inequality

    def test_star_vs_rotated_self(self):
        # distance to a rotated copy grows with the rotation angle
        base = make_star((0, 0), 1.0, [(3, 0.2)], 128)
        dists = [
            hausdorff_distance(base, rotated(base, ang))
            for ang in (0.05, 0.15, 0.4)
        ]
        assert dists[0] < dists[1] < dists[2]
        assert hausdorff_distance(base, base) == 0.0


# ---------------------------------------------------------------------------
# scene validation
# ---------------------------------------------------------------------------

class TestScene:
    def test_valid_scene(self):
        scene = InclusionScene(
            outer=make_circle((0, 0), 1.0, 128),
            inclusion=make_circle((0.1, 0.0), 0.45, 128),
            k0=1.0,
        )
        assert scene.separation() > 0.4

    def test_rejects_inclusion_outside(self):
        with pytest.raises(CurveError):
            InclusionScene(
                outer=make_circle((0, 0), 1.0, 64),
                inclusion=make_circle((0.8, 0.0), 0.5, 64),
            )

    def test_rejects_insufficient_separation(self):
        # 16 outer nodes on the unit circle: spacing ~0.39; a gap of 0.2
        # between the curves is under the 3-spacing guard
        with pytest.raises(SeparationError):
            InclusionScene(
                outer=make_circle((0, 0), 1.0, 16),
                inclusion=make_circle((0, 0), 0.8, 16),
            )

    def test_rejects_bad_conductivity(self):
        with pytest.raises(CurveError):
            InclusionScene(
                outer=make_circle((0, 0), 1.0, 128),
                inclusion=make_circle((0, 0), 0.5, 128),
                k0=0.0,
            )


# ---------------------------------------------------------------------------
# grammar round trip
# ---------------------------------------------------------------------------

class TestCurveGrammar:
    @pytest.mark.parametrize("spec", [
        "circle 0 0 1",
        "circle 0.25 -0.5 0.625",
        "ellipse 0 0 1.3 0.7",
        "star 0 0 1 3:0.2",
        "star 0.1 -0.2 0.9 2:0.05 5:0.01",
    ])
    def test_round_trip(self, spec):
        c = parse_curve_spec(spec, 64)
        c2 = parse_curve_spec(curve_spec_string(c), 64)
        assert np.array_equal(c.nodes, c2.nodes)
        assert c.kind == c2.kind

    def test_rejects_malformed(self):
        for bad in ("", "square 0 0 1", "circle 0 0", "star 0 0 1 x:y",
                    "circle 0 0 one"):
            with pytest.raises(CurveError):
                parse_curve_spec(bad, 64)
