"""Conductivity ladders solved as one resolvent block.

``solve_transmission(ops, f, ks)`` solves the background of ``f`` once and
applies ``Y diag(1/(lam_i - mu)) Y^T B`` to it with one column per ladder
point.  Pinned here:

* every column matches a one-point solve to 1e-12 relative, in the
  density and in the outer trace, on an off-centre star in a disk
  (closed-form kernel) and a star in an ellipse (numeric kernel), over a
  ladder from ``k0/100`` to ``300 k0`` that also contains ``k0``;
* ``k = k0`` gives the background: a zero density of the solve's own
  shape, for a block of loads and for a ladder column alike;
* the gradient-bound ratio uses the inclusion flux ``k0/(k - k0) phi``,
  so per-point and batched values agree to 2e-12 up to ``k = 4096``;
* a 64-point sweep makes two interior Neumann solves (the data and the
  trace constant's loads) and four second-kind solves, not one per point:
  the ladder block, one ``lam = 1/2`` solve per limit and the trace
  constant's ``lam = -1/2``.
"""

from pathlib import Path

import numpy as np
import pytest

from npeit import transmission
from npeit.config import load_config, parse_config
from npeit.experiments import build_operators, run_sweep
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators
from npeit.transmission import (solve_background, solve_limit,
                                solve_transmission, trace_constant)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
K0 = 1.5


@pytest.fixture(scope="module", params=["star-in-disk", "star-in-ellipse"])
def scene_ops(request):
    n = 128
    if request.param == "star-in-disk":
        outer = make_circle((0, 0), 1.0, n)
        inclusion = make_star((0.25, -0.1), 0.35, [(3, 0.05), (5, 0.02)], n)
    else:
        outer = make_ellipse((0, 0), 1.2, 0.9, n)
        inclusion = make_star((0.1, 0.05), 0.35, [(3, 0.04), (4, 0.02)], n)
    return build_scene_operators(InclusionScene(outer, inclusion, K0))


def load(ops):
    t = ops.scene.outer.t
    return 0.4 + np.cos(t) + 0.3 * np.sin(2 * t)


def ladder():
    return np.sort(np.append(np.geomspace(K0 / 100, 300 * K0, 17), K0))


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBatchedLadder:
    def test_kernel_kind(self, scene_ops):
        expected = DiskGreen if scene_ops.scene.outer.kind == "circle" \
            else NumericGreen
        assert isinstance(scene_ops.green, expected)

    def test_columns_match_one_point_solves(self, scene_ops):
        f, ks = load(scene_ops), ladder()
        batch = solve_transmission(scene_ops, f, ks)
        assert batch.phi.shape == (scene_ops.curve.n, len(ks))
        traces = batch.outer_trace()
        for j, k in enumerate(ks):
            one = solve_transmission(scene_ops, f, k)
            assert batch.k[j] == one.k and batch.lam[j] == one.lam
            assert rel_err(traces[:, j], one.outer_trace()) <= 1e-12
            if k == K0:
                assert not np.any(batch.phi[:, j]) and not np.any(one.phi)
            else:
                assert rel_err(batch.phi[:, j], one.phi) <= 1e-12

    def test_per_column_diagnostics(self, scene_ops):
        f, ks = load(scene_ops), ladder()
        batch = solve_transmission(scene_ops, f, ks)
        residual = batch.flux_matching_residual()
        energy = batch.gradient_energy()
        assert residual.shape == energy.shape == ks.shape
        for j, k in enumerate(ks):
            one = solve_transmission(scene_ops, f, k)
            assert residual[j] <= 1e-11
            assert energy[j] == pytest.approx(one.gradient_energy(), rel=1e-12)

    def test_gradient_bound_columns(self, scene_ops):
        f, ks = load(scene_ops), ladder()
        batch = solve_transmission(scene_ops, f, ks)
        limit = solve_limit(scene_ops, batch.background.f, "grounded")
        c0 = trace_constant(scene_ops)
        bound = batch.gradient_bound(limit, c0)
        assert np.all(np.isfinite(bound.ratio))
        for j, k in enumerate(ks):
            one = solve_transmission(scene_ops, f, k).gradient_bound(limit, c0)
            assert bound.ratio[j] == pytest.approx(one.ratio, rel=1e-12)
            assert bound.annulus_ratio[j] == pytest.approx(one.annulus_ratio,
                                                           rel=1e-10)

    def test_ladder_rejects_a_block_of_loads(self, scene_ops):
        loads = np.column_stack([load(scene_ops)] * 2)
        with pytest.raises(ValueError, match="one load vector"):
            solve_transmission(scene_ops, loads, [2.0, 3.0])


class TestNoContrast:
    def test_block_loads_at_k0_return_background_traces(self, scene_ops):
        t = scene_ops.scene.outer.t
        loads = np.column_stack([np.cos(t), np.sin(2 * t), 1.0 + np.cos(3 * t)])
        sol = solve_transmission(scene_ops, loads, K0)
        assert sol.phi.shape == (scene_ops.curve.n, 3) and not np.any(sol.phi)
        traces = sol.outer_trace()
        bg = solve_background(scene_ops, loads)
        assert np.max(np.abs(traces - bg.trace)) <= 1e-14 * np.max(np.abs(bg.trace))
        for j in range(3):
            one = solve_transmission(scene_ops, loads[:, j], K0).outer_trace()
            assert rel_err(traces[:, j], one) <= 1e-12

    def test_ladder_through_k0_has_a_background_column(self, scene_ops):
        ks = np.array([0.5 * K0, K0, 4.0 * K0])
        sol = solve_transmission(scene_ops, load(scene_ops), ks)
        assert np.isinf(sol.lam[1]) and np.all(np.isfinite(sol.lam[[0, 2]]))
        assert not np.any(sol.phi[:, 1]) and np.all(np.any(sol.phi[:, [0, 2]], axis=0))
        bg = sol.background.trace
        assert np.max(np.abs(sol.outer_trace()[:, 1] - bg)) <= 1e-14 * np.max(np.abs(bg))


class TestGradientRatioIdentity:
    def test_per_point_and_batched_agree_on_adjudication(self):
        config = load_config(CONFIGS / "adjudication.cfg")
        ops = build_operators(config)
        f = config.data_vector(ops.scene.outer.t)
        ks = [k for k in config.k_ladder() if k <= 4096]
        assert max(ks) == 4096
        batch = solve_transmission(ops, f, ks)
        limit = solve_limit(ops, batch.background.f, "grounded")
        c0 = trace_constant(ops)
        ratios = batch.gradient_bound(limit, c0).ratio
        for k, ratio in zip(ks, ratios):
            one = solve_transmission(ops, f, k).gradient_bound(limit, c0).ratio
            assert ratio == pytest.approx(one, rel=2e-12, abs=0)


class TestWorkCounts:
    SWEEP = """
[scene]
outer = circle 0 0 1
inclusion = star 0.2 -0.1 0.35 3:0.02
n = 64

[physics]
f = const:0.5 cos:1:1

[sweep]
base = 0.01
ratio = 1.2
count = 64
"""

    def test_sweep_solves_the_data_once(self, tmp_path, monkeypatch):
        neumann, second_kind = [], []
        real_second_kind = transmission._solve_second_kind

        def counting(solve):  # the closed form on this circle, or the LU
            def counting_neumann(self, flux):
                neumann.append(np.shape(flux))
                return solve(self, flux)
            return counting_neumann

        def counting_second_kind(ops, lam, rhs):
            second_kind.append(np.shape(lam))
            return real_second_kind(ops, lam, rhs)

        for kernel in (DiskGreen, NumericGreen):
            monkeypatch.setattr(kernel, "neumann_solve",
                                counting(kernel.neumann_solve))
        monkeypatch.setattr(transmission, "_solve_second_kind",
                            counting_second_kind)
        result = run_sweep(parse_config(self.SWEEP), tmp_path)
        assert len(result.ks) == 64
        assert 0 < len(neumann) <= 2
        # the ladder as one block, one lam = 1/2 solve per limit, then the
        # trace constant's lam = -1/2
        assert second_kind == [(64,), (), (), ()]
