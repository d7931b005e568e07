"""One pass over the node pairs per operator set.

``build_scene_operators`` forms one displacement table per curve and one
outer x inclusion table per scene, and asks the outer kernel for the
inclusion's blocks in one call.  Pinned behavior:
  * the single-layer matrix (``E / w`` by rows), ``kstar_plain``,
    ``outer_trace_matrix`` and ``background_maps`` agree with the per-point
    fields of unit densities (the kernel's ``correction_field``, its
    gradient contracted with the normals, ``references.outer_trace_kernel``
    and ``free_layer_field``) to 1e-13 relative, on both kernels, on
    ellipse and star outers, and on ``NumericGreen`` of a circle against
    the closed form;
  * the work counts on ``NumericGreen``: one domain guard, one ``locate``
    of the inclusion nodes (the scene's, which the guard reads), one
    Neumann solve with the inclusion's n columns, and two pair tables (the
    inclusion's own and the outer x inclusion one);
  * the outer x inclusion table is released before that solve, which
    then holds three outer x inclusion arrays (values, flux and the
    Neumann data);
  * the kernel keeps nothing per inclusion: a stability run on an ellipse
    outer leaves no inclusion node set in it;
  * an interior field evaluates one distance per curve, and on
    ``NumericGreen`` makes one Neumann solve with one column and no
    points x inclusion x outer array.
"""

import tracemalloc

import numpy as np
import pytest

from npeit import experiments, geometry, green as green_module, layers, quadrature
from npeit.config import parse_config
from npeit.experiments import run_stability
from npeit.geometry import (BoundaryCurve, InclusionScene, make_circle,
                            make_ellipse, make_star)
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators
from npeit.quadrature import free_layer_field, free_self_matrices
from npeit.spectrum import solve_spectrum

from references import outer_trace_kernel

INCLUSION = make_star((0.1, -0.05), 0.4, [(3, 0.05), (5, -0.02)], 96)
OUTERS = {"disk": make_circle((0.05, 0.0), 1.1, 128),
          "ellipse": make_ellipse((0, 0), 1.3, 0.8, 160),
          "star": make_star((0.05, 0), 1.0, [(3, 0.1)], 160)}


def per_point_operators(green, curve):
    """``s_plain``, ``kstar_plain``, the outer-trace matrix and the
    background maps from the per-point fields of unit densities."""
    x, w, nu = curve.nodes, curve.weights, curve.normals
    s_free, k_free = free_self_matrices(curve)
    corr, grad = green.correction_field(x, x, np.eye(curve.n))
    dnu = np.einsum("idj,id->ij", grad, nu)
    outer = green.outer
    values, grad = free_layer_field(outer, x, np.eye(outer.n))
    return {"s_plain": -(s_free + 0.5 * (corr + corr.T) * w),
            "kstar_plain": k_free + dnu * w,
            "outer_trace_matrix": outer_trace_kernel(green, x) * w,
            "values_map": values,
            "flux_map": np.einsum("pdj,pd->pj", grad, nu)}


def built_operators(ops):
    values, flux = ops.background_maps
    w = ops.curve.weights[:, None]
    return {"s_plain": ops.energy_matrix / w, "kstar_plain": ops.kstar_plain,
            "outer_trace_matrix": ops.outer_trace_matrix,
            "values_map": values, "flux_map": flux}


def assert_agree(got, expected, rel):
    for name, ref in expected.items():
        assert got[name].shape == ref.shape, name
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got[name] - ref)) <= rel * scale, name


@pytest.mark.parametrize("outer", OUTERS, ids=list(OUTERS))
def test_build_matches_per_point_api(outer):
    outer = OUTERS[outer]
    green = DiskGreen(outer) if outer.kind == "circle" else NumericGreen(outer)
    ops = build_scene_operators(InclusionScene(outer, INCLUSION), green)
    assert_agree(built_operators(ops), per_point_operators(green, INCLUSION),
                 1e-13)


def test_numeric_kernel_on_a_circle_matches_the_closed_form():
    outer = OUTERS["disk"]
    ops = build_scene_operators(InclusionScene(outer, INCLUSION),
                                NumericGreen(outer))
    assert_agree(built_operators(ops),
                 per_point_operators(DiskGreen(outer), INCLUSION), 1e-13)


def test_numeric_build_work_counts(monkeypatch):
    outer = OUTERS["ellipse"]
    counts = {"guard": 0, "locate": 0, "table": 0}
    solves = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_solve(self, flux):
        solves.append(np.shape(flux))
        return solve(self, flux)

    green = NumericGreen(outer)
    solve = NumericGreen.neumann_solve
    monkeypatch.setattr(NumericGreen, "neumann_solve", counting_solve)
    monkeypatch.setattr(NumericGreen, "_require",
                        counting("guard", NumericGreen._require))
    monkeypatch.setattr(BoundaryCurve, "locate",
                        counting("locate", BoundaryCurve.locate))
    table = counting("table", quadrature.pair_table)
    monkeypatch.setattr(quadrature, "pair_table", table)
    monkeypatch.setattr(green_module, "pair_table", table)
    ops = build_scene_operators(InclusionScene(outer, INCLUSION), green)
    ops.outer_trace_matrix, ops.background_maps  # from the build's table
    assert solves == [(outer.n, INCLUSION.n)]
    assert counts == {"guard": 1, "locate": 1, "table": 2}


def test_neumann_solve_holds_no_outer_table(monkeypatch):
    outer = OUTERS["ellipse"]
    started, held = [], []
    outer_maps, solve = NumericGreen.outer_maps, NumericGreen.neumann_solve

    def recording_maps(self, curve):
        started.append(tracemalloc.get_traced_memory()[0])
        return outer_maps(self, curve)

    def recording_solve(self, flux):
        held.append(tracemalloc.get_traced_memory()[0] - started[-1])
        return solve(self, flux)

    green = NumericGreen(outer)
    monkeypatch.setattr(NumericGreen, "outer_maps", recording_maps)
    monkeypatch.setattr(NumericGreen, "neumann_solve", recording_solve)
    tracemalloc.start()
    try:
        green.inclusion_blocks(INCLUSION)
    finally:
        tracemalloc.stop()
    # values, flux and the Neumann data; the (N, n, 2) displacements and
    # the distance table would add three more
    assert len(held) == 1
    assert held[0] <= 3.5 * outer.n * INCLUSION.n * 8


def test_disk_build_forms_the_outer_table_on_first_use(monkeypatch):
    outer = OUTERS["disk"]
    calls = []
    table = quadrature.pair_table

    def recording(x, y):
        calls.append((len(x), len(y)))
        return table(x, y)

    monkeypatch.setattr(quadrature, "pair_table", recording)
    monkeypatch.setattr(green_module, "pair_table", recording)
    ops = build_scene_operators(InclusionScene(outer, INCLUSION))
    assert calls == [(INCLUSION.n, INCLUSION.n)]
    ops.outer_trace_matrix, ops.background_maps, ops.outer_trace_matrix
    assert calls == [(INCLUSION.n, INCLUSION.n), (outer.n, INCLUSION.n)]


@pytest.mark.parametrize("outer", ["disk", "ellipse"])
def test_field_work_counts(outer, monkeypatch):
    outer = OUTERS[outer]
    ops = build_scene_operators(InclusionScene(outer, INCLUSION))
    pts = make_ellipse((0.1, -0.05), 0.75, 0.58, 200).nodes  # P, J, N differ
    phi = np.cos(INCLUSION.t)
    distances, solves, tables = [], [], []
    distance, solve, require = (geometry.distance_to_boundary,
                                NumericGreen.neumann_solve, DiskGreen._require)
    table = quadrature.pair_table

    def counting_distance(curve, x):
        distances.append(curve)
        return distance(curve, x)

    def counting_require(self, *args):
        distances.append(self.outer)  # the disk's closed-form distance
        return require(self, *args)

    def counting_solve(self, flux):
        solves.append(np.shape(flux))
        return solve(self, flux)

    def recording(x, y):
        tables.append((len(x), len(y)))
        return table(x, y)

    monkeypatch.setattr(geometry, "distance_to_boundary", counting_distance)
    monkeypatch.setattr(layers, "distance_to_boundary", counting_distance)
    monkeypatch.setattr(DiskGreen, "_require", counting_require)
    monkeypatch.setattr(NumericGreen, "neumann_solve", counting_solve)
    for module in (quadrature, green_module):
        monkeypatch.setattr(module, "pair_table", recording)
    tracemalloc.start()
    try:
        ops.field(pts, phi, np.sin(outer.t), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distances == [INCLUSION, outer]
    p, j, n = len(pts), INCLUSION.n, outer.n
    if outer.kind == "circle":
        assert solves == [] and sorted(tables) == sorted([(p, n), (p, j)])
    else:
        assert solves == [(n, 1)]
        assert sorted(tables) == sorted([(p, n), (p, j), (n, j), (p, n)])
    # a points x inclusion x outer array alone would take p j n 8 bytes
    assert peak <= 12 * 8 * (p * j + n * j + p * n) < p * j * n * 8


STABILITY = """
[scene]
outer = ellipse 0 0 1.3 0.9
inclusion = circle 0 0 0.3
n = 64

[physics]
k0 = 1.3
f = cos:1:1

[sweep]
base = 0.05
ratio = 9
count = 3

[stability]
pairs =
    star 0.03 -0.02 0.4 3:0.012 ; star 0.05 -0.02 0.38 3:0.012
    star 0.03 -0.02 0.4 3:0.012 ; star 0.07 -0.02 0.36 3:0.012
"""


def reachable(obj, depth=0):
    """Values reachable from an object's attributes, containers included."""
    if depth > 3:
        return
    values = vars(obj).values() if hasattr(obj, "__dict__") else (
        obj.values() if isinstance(obj, dict) else
        obj if isinstance(obj, (list, tuple)) else ())
    for value in values:
        yield value
        yield from reachable(value, depth + 1)


def test_stability_run_leaves_no_node_set_in_the_kernel(tmp_path, monkeypatch):
    kernels, curves = [], []
    make_green, build = experiments.make_green, experiments.build_operators

    def capture_green(outer):
        kernels.append(make_green(outer))
        return kernels[-1]

    def capture_ops(*args):
        ops = build(*args)
        curves.append(ops.curve)
        return ops

    monkeypatch.setattr(experiments, "make_green", capture_green)
    monkeypatch.setattr(experiments, "build_operators", capture_ops)
    run_stability(parse_config(STABILITY), tmp_path)
    (green,) = kernels
    assert isinstance(green, NumericGreen) and len(curves) == 3
    assert not getattr(green, "_cache", None)
    keys = {c.nodes.tobytes() for c in curves}
    for value in reachable(green):
        assert not (isinstance(value, bytes) and value in keys)
        assert not (isinstance(value, np.ndarray) and value.tobytes() in keys)


def test_block_residuals_match_the_per_mode_energy():
    outer = OUTERS["ellipse"]
    ops = build_scene_operators(InclusionScene(outer, INCLUSION))
    for mode in solve_spectrum(ops, 12):
        g = mode.density
        ref = np.sqrt(max(ops.energy_norm2(ops.flux_average(g) - mode.mu * g),
                          0.0))
        assert abs(mode.residual - ref) <= 1e-15
