"""Infinite-contrast limits against a bordered reference, and the work a
sweep spends on them.

The reference is the first-kind system for the limit density ``psi`` and
its constant, bordered by the mean-free constraint and solved densely::

    [ -S    sign ] [ psi ]   [ -v ]
    [ w^T    0   ] [  c  ] = [  0 ]

with ``v`` the inclusion trace of the driving field, ``sign = +1`` for
the grounded inclusion (``c`` is the additive constant of the field) and
``-1`` for the conductor (``c`` is its trace on the inclusion, dropped by
the normalization).  ``solve_limit`` solves the same problem on the
cached pencil of the operator set.  Measured deviations at n = 64 to 512
(star in a disk and in an ellipse, both kinds, mean-free and net-flux
data, 1 and 2 BLAS threads): at most 7.6e-16 relative in the traces,
5.2e-13 in ``psi`` and 6.7e-16 in ``alpha``.
"""

import numpy as np
import pytest
import scipy.linalg

from npeit import experiments
from npeit.config import parse_config
from npeit.experiments import run_sweep
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators
from npeit.transmission import solve_limit, solve_transmission, trace_constant

from references import HatForms

N = 128
TRACE_RTOL = 1e-14
PSI_RTOL = 1e-11


@pytest.fixture(scope="module", params=["disk", "ellipse"])
def star_ops(request):
    outer = (make_circle((0, 0), 1.0, N) if request.param == "disk"
             else make_ellipse((0, 0), 1.3, 0.9, N))
    inclusion = make_star((0.1, -0.05), 0.35, [(3, 0.06), (5, 0.02)], N)
    ops = build_scene_operators(InclusionScene(outer, inclusion, 1.3))
    assert isinstance(ops.green,
                      DiskGreen if request.param == "disk" else NumericGreen)
    return ops


def bordered_limit(ops, lim, kind):
    """``(psi, alpha, trace)`` of the bordered reference system for the
    driving field and net flux ``beta`` of ``lim``."""
    curve = ops.curve
    n = curve.n
    v = lim.background.values
    if lim.beta != 0.0:
        v = v + lim.beta * ops.green.kernel(curve.nodes, [curve.center])[:, 0]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = -HatForms(ops).s_plain
    system[:n, n] = 1.0 if kind == "grounded" else -1.0
    system[n, :n] = curve.weights
    rhs = np.zeros(n + 1)
    rhs[:n] = -v
    sol = np.linalg.solve(system, rhs)
    psi, alpha = sol[:n], (float(sol[n]) if kind == "grounded" else 0.0)
    raw = lim.background.trace + ops.outer_trace(psi) + alpha
    if lim.beta != 0.0:
        raw = raw + lim.beta * ops.green.outer_trace_kernel([curve.center])[:, 0]
    return psi, alpha, raw - ops.scene.outer.mean(raw)


@pytest.mark.parametrize("net", [0.0, 0.7], ids=["mean-free", "net-flux"])
@pytest.mark.parametrize("kind", ["grounded", "conductor"])
def test_pencil_limit_matches_bordered_reference(star_ops, kind, net):
    t = star_ops.scene.outer.t
    lim = solve_limit(star_ops, net + np.cos(t) + 0.4 * np.sin(2 * t), kind)
    assert (lim.beta != 0.0) == (kind == "grounded" and net != 0.0)
    psi, alpha, trace = bordered_limit(star_ops, lim, kind)
    scale = np.max(np.abs(trace))
    assert np.max(np.abs(lim.trace - trace)) <= TRACE_RTOL * scale
    assert np.max(np.abs(lim.psi - psi)) <= PSI_RTOL * np.max(np.abs(psi))
    assert abs(lim.alpha - alpha) <= TRACE_RTOL * scale


NET_FLUX_SWEEP = """
[scene]
outer = circle 0 0 1
inclusion = star 0.1 0 0.35 3:0.05
n = 64

[physics]
f = const:0.6 cos:1:1 sin:2:0.3

[sweep]
count = 5
"""


def test_sweep_makes_two_limit_solves_on_one_pencil(tmp_path, monkeypatch):
    config = parse_config(NET_FLUX_SWEEP)
    limits, eigh_sizes = [], []
    real_limit, real_eigh = experiments.solve_limit, scipy.linalg.eigh

    def recording_limit(*args, **kwargs):
        limits.append(real_limit(*args, **kwargs))
        return limits[-1]

    def counting_eigh(a, b=None, *args, **kwargs):
        if b is not None:
            eigh_sizes.append(np.shape(a)[0])
        return real_eigh(a, b, *args, **kwargs)

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve called during a sweep")

    monkeypatch.setattr(experiments, "solve_limit", recording_limit)
    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(scipy.linalg, "solve", no_dense_solve)
    result = run_sweep(config, tmp_path)
    monkeypatch.undo()

    assert len(limits) == 2
    grounded, conductor = limits
    assert grounded.beta != 0.0 and conductor.beta == 0.0
    # one pencil of size n, and the trace constant's 24 x 24 problem
    assert eigh_sizes == [config.n, 24]

    # the bound against the conductor is the bound against the grounded
    # limit of the mean-free data, which differs from it by a constant
    ops, bg = conductor.ops, conductor.background
    sol = solve_transmission(ops, config.data_vector(ops.scene.outer.t),
                             config.k_ladder())
    mean_free = solve_limit(ops, bg.f, "grounded", bg)
    assert mean_free.beta == 0.0
    expected = sol.gradient_bound(mean_free, trace_constant(ops)).ratio
    np.testing.assert_allclose(result.grad_ratio, expected, rtol=1e-13, atol=0)
