"""Batched geometry queries against a frozen per-point reference, and the
distance itself against an independent oracle.

The reference below is the package's Newton search written for one point
in scalar arithmetic, and the per-point guard loops the package used
before its queries took point arrays.  The batched path keeps the
per-point arithmetic and stops each row on its own, so distances must
agree bit for bit, and every guard must raise the same exception, with
the same message, for the same first offending point.  The oracle is the
golden-section search the package used before (``references``); where it
and the Newton search part, a dense sample of the bracket decides.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npeit import geometry
from npeit.config import parse_config
from npeit.exceptions import (CurveError, EvaluationDomainError,
                              IndeterminatePointError, SeparationError)
from npeit.geometry import (InclusionScene, RegionWithHole,
                            distance_to_boundary, hausdorff_distance,
                            make_circle, make_ellipse, make_star,
                            parse_curve_spec, region_distance)
from npeit.green import NumericGreen
from npeit.layers import PotentialField, build_scene_operators

from references import bracket_minima, golden_distance, rotated

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GUARD_FACTOR = 1e-8
MARGIN_SPACINGS = 3.0

# ---------------------------------------------------------------------------
# frozen per-point reference
# ---------------------------------------------------------------------------


def ref_distance(curve, x) -> float:
    x = np.asarray(x, dtype=float)
    if curve.kind == "circle":
        (r,) = curve.params
        return abs(float(np.hypot(*(x - curve.center))) - r)
    fn = (curve.nodes[:, 0] - x[0]) ** 2 + (curve.nodes[:, 1] - x[1]) ** 2
    i = int(np.argmin(fn))
    h = 2.0 * np.pi / curve.n
    t = curve.t[i]
    lo, hi, f_lo, f_hi = t - h, t + h, fn[i - 1], fn[(i + 1) % curve.n]
    for _ in range(40):
        q, q1, q2 = (v[0] for v in geometry._eval_jet(
            curve.kind, curve.center, curve.params, np.array([t])))
        r = q - x
        f = r[0] * r[0] + r[1] * r[1]
        g = r[0] * q1[0] + r[1] * q1[1]
        s2 = q1[0] * q1[0] + q1[1] * q1[1]
        gp = s2 + (r[0] * q2[0] + r[1] * q2[1])
        flat = 8.0 * np.spacing(s2 + np.sqrt(f * (q2[0] * q2[0]
                                                  + q2[1] * q2[1])))
        tiny = np.spacing((abs(q[0]) + abs(x[0])) + (abs(q[1]) + abs(x[1]))) \
            + np.spacing(t) * np.sqrt(s2)
        if gp > -flat and g * g <= max(gp, flat) * (np.spacing(f)
                                                     + 4.0 * tiny * tiny):
            return float(np.sqrt(f))
        if g < 0:
            lo, f_lo = t, f
        elif g > 0:
            hi, f_hi = t, f
        if gp > 0 and lo < t - g / gp < hi:  # Newton
            t = t - g / gp
            continue
        side, f_side = (lo, f_lo) if g > 0 else (hi, f_hi)
        span, frac = side - t, 0.5
        quartic = f_side - f - (2.0 * g + gp * span) * span
        if gp < 0 and quartic > 0:
            frac = abs(span) * np.sqrt(-gp) / np.sqrt(2.0 * quartic)
            frac = frac if 0.0 < frac < 1.0 else 0.5
        t = t + frac * span
    return float(np.sqrt(f))


def ref_contains_analytic(curve, x) -> bool:
    dx = np.asarray(x, dtype=float) - curve.center
    if curve.kind == "circle":
        return float(np.hypot(*dx)) < curve.params[0]
    if curve.kind == "ellipse":
        a, b = curve.params
        return (dx[0] / a) ** 2 + (dx[1] / b) ** 2 < 1.0
    r0, terms = curve.params
    theta = math.atan2(dx[1], dx[0])
    rho = r0
    for m, a, b in terms:
        rho += a * math.cos(m * theta) + b * math.sin(m * theta)
    return float(np.hypot(*dx)) < rho


def ref_contains(curve, x) -> bool:
    x = np.asarray(x, dtype=float)
    d = ref_distance(curve, x)
    if d <= curve.max_spacing() * GUARD_FACTOR:
        raise IndeterminatePointError(
            f"point {tuple(x)} is within {d:.3e} of the curve; "
            "inside/outside is indeterminate at this resolution"
        )
    return ref_contains_analytic(curve, x)


def ref_require_far_inside(outer, pts, what):
    margin = MARGIN_SPACINGS * outer.max_spacing()
    for p in pts:
        if not ref_contains(outer, p):
            raise EvaluationDomainError(f"{what}: {tuple(p)} is outside the domain")
        if ref_distance(outer, p) < margin:
            raise EvaluationDomainError(
                f"{what}: {tuple(p)} is within {margin:.3g} of the outer "
                "boundary; the numeric kernel is inaccurate there"
            )


def ref_guard(source, pts):
    margin = MARGIN_SPACINGS * source.max_spacing()
    for p in pts:
        if ref_distance(source, p) < margin:
            raise EvaluationDomainError(
                f"evaluation point {tuple(p)} is within {margin:.3g} of "
                "the source curve; move away or refine the grid"
            )


def ref_nodes_inside(outer, inner, message):
    for node in inner.nodes:
        if not ref_contains(outer, node):
            raise CurveError(message)


def outcome(call, *args):
    """``None`` if the call returns, else the exception's type and text."""
    try:
        call(*args)
    except (CurveError, EvaluationDomainError, IndeterminatePointError,
            SeparationError) as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coord = st.floats(-0.5, 0.5)


@st.composite
def curves(draw, node_counts=(16, 32, 64, 128)):
    kind = draw(st.sampled_from(["circle", "ellipse", "star"]))
    center = (draw(coord), draw(coord))
    n = draw(st.sampled_from(node_counts))
    if kind == "circle":
        return make_circle(center, draw(st.floats(0.3, 1.5)), n)
    if kind == "ellipse":
        return make_ellipse(center, draw(st.floats(0.3, 1.5)),
                            draw(st.floats(0.3, 1.5)), n)
    r0 = draw(st.floats(0.5, 1.5))
    terms = draw(st.lists(
        st.tuples(st.integers(1, 6), st.floats(-0.15, 0.15),
                  st.floats(-0.15, 0.15)), max_size=3))
    return make_star(center, r0, [(m, a * r0, b * r0) for m, a, b in terms], n)


@st.composite
def probe_points(draw, curve):
    """Points at nodes, near the curve, at the guard band and far away."""
    k = st.integers(0, curve.n - 1)
    guard = curve.max_spacing() * GUARD_FACTOR
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        i = draw(k)
        node, normal = curve.nodes[i], curve.normals[i]
        where = draw(st.sampled_from(["node", "near", "guard", "far"]))
        if where == "node":
            pts.append(node)
        elif where == "near":
            pts.append(node + draw(st.floats(-0.2, 0.2)) * normal)
        elif where == "guard":
            pts.append(node + draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0,
                                                    2.0])) * guard * normal)
        else:
            pts.append(np.array([draw(st.floats(-4.0, 4.0)),
                                 draw(st.floats(-4.0, 4.0))]))
    return np.array(pts)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


class TestBatchedDistance:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_exactly(self, data):
        curve = data.draw(curves())
        pts = data.draw(probe_points(curve))
        ref = np.array([ref_distance(curve, p) for p in pts])
        assert np.array_equal(distance_to_boundary(curve, pts), ref)
        assert [distance_to_boundary(curve, p) for p in pts] == list(ref)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_contains_matches_reference(self, data):
        curve = data.draw(curves())
        pts = data.draw(probe_points(curve))
        expected = outcome(lambda: [ref_contains(curve, p) for p in pts])
        assert outcome(curve.contains, pts) == expected
        if expected is None:
            flags = [ref_contains(curve, p) for p in pts]
            assert curve.contains(pts).tolist() == flags
            assert [curve.contains(p) for p in pts] == flags

    def test_single_point_returns_scalars(self):
        star = make_star((0, 0), 1.0, [(3, 0.2)], 64)
        assert isinstance(distance_to_boundary(star, (2.0, 0.0)), float)
        assert isinstance(star.contains((0.1, 0.0)), bool)
        assert isinstance(region_distance((2.0, 0.0), star), float)

    def test_region_distance_matches_pointwise(self):
        outer = make_star((0, 0), 1.0, [(3, 0.1)], 64)
        hole = make_ellipse((0.1, 0.0), 0.4, 0.3, 64)
        ann = RegionWithHole(outer, hole)
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.uniform(-1.5, 1.5, (40, 2)), outer.nodes[:5],
                         hole.nodes[:5], [hole.center]])
        batched = region_distance(pts, ann)
        assert batched.tolist() == [region_distance(p, ann) for p in pts]
        for p, d in zip(pts, batched):
            try:
                inside = ref_contains(outer, p) and not ref_contains(hole, p)
            except IndeterminatePointError:
                inside = True
            expected = 0.0 if inside else min(ref_distance(outer, p),
                                              ref_distance(hole, p))
            assert d == expected


# ---------------------------------------------------------------------------
# guards raise what the per-point loops raised
# ---------------------------------------------------------------------------


def _probe_sets(curve, margin):
    """Point sets whose first offender differs in kind and position."""
    inside = np.asarray(curve.center, dtype=float)
    on = curve.nodes[3]
    near = curve.nodes[5] - 0.5 * margin * curve.normals[5]
    outside = curve.nodes[7] + 0.5 * curve.normals[7]
    return [
        np.array([inside, inside]),
        np.array([inside, on, outside]),
        np.array([inside, outside, on]),
        np.array([near, on, outside]),
        np.array([inside, near, outside]),
        np.array([outside, near]),
    ]


OUTERS = [make_ellipse((0, 0), 1.3, 0.8, 64),
          make_star((0.05, 0), 1.0, [(3, 0.1)], 64)]
NODE_CHECKS = [
    (InclusionScene, "inclusion is not strictly inside the outer boundary"),
    (RegionWithHole, "hole curve is not contained in the outer curve"),
]


class TestGuardParity:
    @pytest.mark.parametrize("outer", OUTERS, ids=["ellipse", "star"])
    def test_require_far_inside(self, outer):
        green = NumericGreen(outer)
        margin = MARGIN_SPACINGS * outer.max_spacing()
        for pts in _probe_sets(outer, margin):
            expected = outcome(ref_require_far_inside, outer, pts, "source points")
            assert outcome(green._require_far_inside, pts, "source points") == expected

    @pytest.mark.parametrize("outer", OUTERS, ids=["ellipse", "star"])
    def test_evaluation_points_before_sources(self, outer):
        # one guard per point set, yet bad evaluation points still raise
        # before bad sources, also when both are the same set, and a set
        # that failed is never taken as passed later
        green = NumericGreen(outer)
        margin = MARGIN_SPACINGS * outer.max_spacing()
        good, *bad = _probe_sets(outer, margin)
        calls = (green.correction, green.correction_gradient_x)
        for call in calls:
            assert outcome(call, good, good) is None
        for x in bad:
            expected = outcome(ref_require_far_inside, outer, x, "evaluation points")
            for call in calls:
                assert outcome(call, x, good) == expected
                for y in bad:
                    assert outcome(call, x, y) == expected
        for y in bad:
            expected = outcome(ref_require_far_inside, outer, y, "source points")
            assert outcome(green.outer_trace_kernel, y) == expected
            for call in calls:
                assert outcome(call, good, y) == expected

    @pytest.mark.parametrize("source", OUTERS, ids=["ellipse", "star"])
    def test_potential_guard(self, source):
        field = PotentialField(None, source, np.ones(source.n))
        margin = MARGIN_SPACINGS * source.max_spacing()
        for pts in _probe_sets(source, margin):
            assert outcome(field._guard, pts) == outcome(ref_guard, source, pts)

    @settings(max_examples=30, deadline=None)
    @given(inner=curves(node_counts=(16, 32)), outer_index=st.integers(0, 1))
    def test_scene_and_region_node_checks(self, inner, outer_index):
        outer = OUTERS[outer_index]
        first = outcome(ref_nodes_inside, outer, inner, "")
        for build, message in NODE_CHECKS:
            got = outcome(build, outer, inner)
            if first is None:  # a scene may still fail its separation test
                assert got is None or got[0] is SeparationError
            else:
                assert got == (first[0], first[1] or message)

    @pytest.mark.parametrize("build, message", NODE_CHECKS,
                             ids=["scene", "region"])
    def test_node_check_first_offender(self, build, message):
        outer = make_circle((0, 0), 1.0, 64)
        cases = [
            # node 0 lies on the outer circle, later nodes leave it
            (make_circle((0.2, 0.6), 0.6, 32), IndeterminatePointError),
            # node 0 is outside, node 16 lies on the outer circle
            (make_circle((1.0, 0.0), 1.0, 48), CurveError),
            # every node lies on the outer circle
            (make_circle((0, 0), 1.0, 32), IndeterminatePointError),
        ]
        for inner, kind in cases:
            expected = outcome(ref_nodes_inside, outer, inner, message)
            assert expected[0] is kind
            assert outcome(build, outer, inner) == expected


# ---------------------------------------------------------------------------
# the distance against the oracle
# ---------------------------------------------------------------------------

TOL = 1e-14


def perfbench_queries():
    """The point sets the benchmark's scenes ask distances for: inclusion
    nodes against the outer ellipse (``numeric-kernel``), and each star of a
    pair against the other's nodes (``stability-pairs``), items 0-7 of two
    seeds."""
    for seed in (1, 5):
        for index in range(8):
            item = workloads.make_item("numeric-kernel", seed, index)
            config = parse_config(item.config)
            yield (parse_curve_spec(config.outer, config.n),
                   parse_curve_spec(config.inclusion, config.n).nodes)
            item = workloads.make_item("stability-pairs", seed, index)
            config = parse_config(item.config)
            for spec_a, spec_b in config.stability_pairs:
                a = parse_curve_spec(spec_a, config.n)
                b = parse_curve_spec(spec_b, config.n)
                if a.kind != "circle":
                    yield a, b.nodes
                    yield b, a.nodes


PERFBENCH = list(perfbench_queries())


def assert_oracle(curve, pts, d):
    """``d`` agrees with the golden-section oracle, or, where the nearest
    node's bracket holds two minima and the searches settled in different
    ones, with a dense-sample minimum of that bracket."""
    for p, got, expected in zip(pts, d, golden_distance(curve, pts)):
        if abs(got - expected) > TOL:
            minima = bracket_minima(curve, p)
            assert len(minima) >= 2, (p, got, minima)
            assert min(abs(got - m) for m in minima) <= TOL, (p, got, minima)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_curves(self, data):
        curve = data.draw(curves())
        pts = data.draw(probe_points(curve))
        assert_oracle(curve, pts, distance_to_boundary(curve, pts))

    def test_perfbench_curves(self):
        # resolved curves: one minimum per bracket, so the oracle's value
        assert len(PERFBENCH) >= 40
        for curve, pts in PERFBENCH:
            assert np.max(np.abs(distance_to_boundary(curve, pts)
                                 - golden_distance(curve, pts))) <= TOL

    def test_node_at_a_local_maximum(self):
        # beyond the evolute on the major axis the vertex node is a local
        # maximum of the distance (g = 0, g' < 0); the minima lie off axis
        ellipse = make_ellipse((0, 0), 1.5, 0.3, 64)
        cusp = (1.5**2 - 0.3**2) / 1.5
        pts = np.array([[cusp - dx, 0.0] for dx in (2e-4, 1e-3, 1.5e-3)]
                       + [[-cusp + 1e-3, 0.0]])
        d = distance_to_boundary(ellipse, pts)
        for p, got in zip(pts, d):
            node_d = np.hypot(*(ellipse.nodes - p).T)
            assert np.argmin(node_d) in (0, ellipse.n // 2)
            assert got < np.min(node_d)
            assert abs(got - min(bracket_minima(ellipse, p))) <= TOL

    def test_flat_minima(self):
        # at a vertex's centre of curvature the distance is quartic in t,
        # and at the centre of a circular ellipse it is constant
        ellipse = make_ellipse((0.1, -0.2), 1.5, 0.3, 64)
        cusp = ellipse.center + ((1.5**2 - 0.3**2) / 1.5, 0.0)
        pts = np.array([cusp, cusp + (1e-8, 7e-9), cusp + (-1e-5, 0.0)])
        assert_oracle(ellipse, pts, distance_to_boundary(ellipse, pts))
        round_ellipse = make_ellipse((0.0, 0.0), 0.3, 0.3, 32)
        assert distance_to_boundary(round_ellipse, (0.0, 0.0)) \
            == pytest.approx(0.3, abs=TOL)


# ---------------------------------------------------------------------------
# work counts: one search per query batch, not per point
# ---------------------------------------------------------------------------

# curve evaluations of one batched search, each giving q, q' and q'' for
# every row still running
EVALS_PER_BATCH = 10


@pytest.fixture
def eval_counter(monkeypatch):
    calls = []
    original = geometry._eval_jet

    def counting(*args):
        calls.append(len(args[-1]))
        return original(*args)

    monkeypatch.setattr(geometry, "_eval_jet", counting)
    return calls


class TestWorkCounts:
    def test_numeric_kernel_build(self, eval_counter):
        outer = make_ellipse((0, 0), 1.4, 1.0, 128)
        scene = InclusionScene(outer, make_star((0.1, 0), 0.5, [(3, 0.1)], 128))
        eval_counter.clear()
        build_scene_operators(scene)
        # the scene's locate of the inclusion nodes serves the kernel's guard
        assert eval_counter == []

    def test_hausdorff_of_two_stars(self, eval_counter):
        a = make_star((0, 0), 1.0, [(3, 0.2)], 128)
        b = rotated(a, 0.15)
        eval_counter.clear()
        d = hausdorff_distance(a, b)
        assert d > 0
        # one batch per direction
        assert 0 < len(eval_counter) <= 2 * EVALS_PER_BATCH

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_curves(self, data):
        curve = data.draw(curves())
        pts = data.draw(probe_points(curve))
        assert evaluations(curve, pts) <= EVALS_PER_BATCH

    def test_perfbench_curves(self):
        for curve, pts in PERFBENCH:
            assert 0 < evaluations(curve, pts) <= EVALS_PER_BATCH


def evaluations(curve, pts) -> int:
    """Curve evaluations of one batched distance call."""
    calls = []
    original = geometry._eval_jet
    geometry._eval_jet = lambda *args: calls.append(args) or original(*args)
    try:
        distance_to_boundary(curve, pts)
    finally:
        geometry._eval_jet = original
    return len(calls)
