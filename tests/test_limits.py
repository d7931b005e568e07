"""Infinite-contrast limits against a bordered reference, and the work a
sweep spends on them.

The reference is the first-kind system for the limit density ``psi`` and
its constant, bordered by the net-flux constraint and solved densely::

    [ -S    sign ] [ psi ]   [ -v   ]
    [ w^T    0   ] [  c  ] = [ beta ]

with ``v`` the inclusion trace of the driving field, ``beta`` the net
flux over ``k0`` (zero for the conductor and for mean-free data),
``sign = +1`` for the grounded inclusion (``c`` is the additive constant
of the field) and ``-1`` for the conductor (``c`` is its trace on the
inclusion, dropped by the normalization).  ``solve_limit`` solves the
second-kind problem at ``lambda = 1/2`` on the cached pencil of the
operator set instead, so the two agree to discretization accuracy.  A
second, independent oracle for the grounded trace puts the net flux in a
point source at the inclusion centre and keeps ``psi`` mean-free.
The tests run at n = 128, where the pencil is the full problem, and at
256 and 512, where it is a certified block of probes.  Measured
deviations there (star in a disk and in an ellipse, both kinds,
mean-free and net-flux data, 1 and 2 BLAS threads): at most 1.1e-15
relative in the traces, 7.4e-13 in ``psi`` and 6.7e-16 in ``alpha``.
The centre-source oracle, measured with the full pencil at n = 128 to
512: 9.5e-16 in the trace and 5.7e-16 in ``alpha``.  At n = 64 the two
discretizations differ by 3.1e-14 in the traces and 3.1e-9 in ``psi``.

A sweep on the numeric kernel with net-flux data evaluates no kernel at
points: the grounded limit's net flux is carried by the equilibrium
density, not by a point source.
"""

from pathlib import Path

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

from references import HatForms, kernel, outer_trace_kernel, record_pencils

N = 128
TRACE_RTOL = 1e-14
PSI_RTOL = 1e-11


# n = 128 runs the full pencil; 256 and 512 its certified block
@pytest.fixture(scope="module",
                params=[(kind, n) for n in (N, 256, 512)
                        for kind in ("disk", "ellipse")],
                ids=lambda p: p[0] if p[1] == N else f"{p[0]}-n{p[1]}")
def star_ops(request):
    kind, n = request.param
    outer = (make_circle((0, 0), 1.0, n) if kind == "disk"
             else make_ellipse((0, 0), 1.3, 0.9, n))
    inclusion = make_star((0.1, -0.05), 0.35, [(3, 0.06), (5, 0.02)], n)
    ops = build_scene_operators(InclusionScene(outer, inclusion, 1.3))
    assert isinstance(ops.green, DiskGreen if kind == "disk" else NumericGreen)
    return ops


def bordered_limit(ops, lim, kind, centre_source=False):
    """``(psi, alpha, trace)`` of the bordered reference system for the
    driving field and net flux ``beta`` of ``lim``: ``psi`` carries the
    net flux, or with ``centre_source`` it is mean-free and a point source
    ``beta N(., y_c)`` at the inclusion centre carries it."""
    curve = ops.curve
    n = curve.n
    beta = 0.0 if centre_source else lim.beta
    v = lim.background.values
    if centre_source:
        v = v + lim.beta * kernel(ops.green, curve.nodes, [curve.center])[:, 0]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = -HatForms(ops).s_plain
    system[:n, n] = 1.0 if kind == "grounded" else -1.0
    system[n, :n] = curve.weights
    rhs = np.zeros(n + 1)
    rhs[:n], rhs[n] = -v, beta
    sol = np.linalg.solve(system, rhs)
    psi, alpha = sol[:n], (float(sol[n]) if kind == "grounded" else 0.0)
    raw = lim.background.trace + ops.outer_trace(psi) + alpha
    if centre_source:
        raw = raw + lim.beta * outer_trace_kernel(ops.green, [curve.center])[:, 0]
    return psi, alpha, raw - ops.scene.outer.mean(raw)


def limit_data(ops, net):
    t = ops.scene.outer.t
    return net + np.cos(t) + 0.4 * np.sin(2 * t)


@pytest.mark.parametrize("net", [0.0, 0.7], ids=["mean-free", "net-flux"])
@pytest.mark.parametrize("kind", ["grounded", "conductor"])
def test_pencil_limit_matches_bordered_reference(star_ops, kind, net):
    lim = solve_limit(star_ops, limit_data(star_ops, net), kind)
    assert (lim.beta != 0.0) == (kind == "grounded" and net != 0.0)
    psi, alpha, trace = bordered_limit(star_ops, lim, kind)
    scale = np.max(np.abs(trace))
    assert np.max(np.abs(lim.trace - trace)) <= TRACE_RTOL * scale
    assert np.max(np.abs(lim.psi - psi)) <= PSI_RTOL * np.max(np.abs(psi))
    assert abs(lim.alpha - alpha) <= TRACE_RTOL * scale


def test_grounded_net_flux_matches_centre_source(star_ops):
    lim = solve_limit(star_ops, limit_data(star_ops, 0.7), "grounded")
    assert lim.beta != 0.0
    _, alpha, trace = bordered_limit(star_ops, lim, "grounded",
                                     centre_source=True)
    scale = np.max(np.abs(trace))
    assert np.max(np.abs(lim.trace - trace)) <= TRACE_RTOL * scale
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
    limits = []
    real_limit = experiments.solve_limit

    def recording_limit(*args, **kwargs):
        limits.append(real_limit(*args, **kwargs))
        return limits[-1]

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve called during a sweep")

    monkeypatch.setattr(experiments, "solve_limit", recording_limit)
    calls = record_pencils(monkeypatch)
    monkeypatch.setattr(scipy.linalg, "solve", no_dense_solve)
    result = run_sweep(config, tmp_path)
    monkeypatch.undo()

    assert len(limits) == 2
    grounded, conductor = limits
    assert grounded.beta != 0.0 and conductor.beta == 0.0
    # one pencil, of size n (past n/2 its block is every nodal value); the
    # trace constant makes no generalized eigh of its own
    assert calls["pencils"] == [conductor.ops]
    assert calls["generalized"] == [config.n]

    # the bound against the conductor is the bound against the grounded
    # limit of the mean-free data, which differs from it by a constant
    ops, bg = conductor.ops, conductor.background
    sol = solve_transmission(ops, config.data_vector(ops.scene.outer.t),
                             config.k_ladder())
    mean_free = solve_limit(ops, bg.f, "grounded", bg)
    assert mean_free.beta == 0.0
    expected = sol.gradient_bound(mean_free, trace_constant(ops)).ratio
    np.testing.assert_allclose(result.grad_ratio, expected, rtol=1e-13, atol=0)


def test_disk_sweep_factors_no_dense_matrix(tmp_path, monkeypatch):
    # the shipped off-centre disk at n = 256: the outer Neumann solve is
    # closed form (no LU) and the pencil's Rayleigh-Ritz problems are
    # smaller than n; the trace constant adds no generalized eigh
    text = (Path(__file__).resolve().parents[1] / "configs"
            / "adjudication.cfg").read_text().replace("n = 160", "n = 256")
    config = parse_config(text)

    def no_lu(*args, **kwargs):
        raise AssertionError("lu_factor called during a disk sweep")

    calls = record_pencils(monkeypatch)
    monkeypatch.setattr(scipy.linalg, "lu_factor", no_lu)
    run_sweep(config, tmp_path)
    monkeypatch.undo()
    assert len(calls["pencils"]) == 1 and calls["standard"] == []
    pencil = calls["generalized"]
    assert pencil and max(pencil) < config.n


def test_numeric_kernel_sweep_makes_no_point_solves(tmp_path, monkeypatch):
    # net-flux data on an ellipse: no limit evaluates the kernel at points
    config = parse_config(NET_FLUX_SWEEP.replace("circle 0 0 1",
                                                 "ellipse 0 0 1.2 0.9"))

    def point_solve(*args, **kwargs):
        raise AssertionError("per-point kernel evaluation during a sweep")

    monkeypatch.setattr(NumericGreen, "correction_field", point_solve)
    result = run_sweep(config, tmp_path)
    assert len(result.ks) == 5 and np.all(np.isfinite(result.dist_dirichlet))
