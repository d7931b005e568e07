"""Invariants of the cached eigenpairs ``(mu, G)`` on any geometry.

``SceneOperators.pencil`` holds the eigenvalues of ``K*`` on mean-free
densities and the nodal eigendensities, one column each.  Whatever the
inclusion and the outer kernel, the columns are ``S``-orthonormal and
weighted-mean-free, and the second-kind solve maps each eigendensity to
itself over ``lam - mu``.  Checked on one star inside the unit disk
(closed-form kernel) and inside an ellipse (numeric kernel), at n = 128.
Measured on both: Gram defect at most 3.6e-15, weighted means at most
1.6e-16 of max |g|, and the second-kind solve within 6.8e-14 relative
over the 82 resolved modes.

The pencil is solved on all densities, where ``K*`` has one more
eigenvalue, ``1/2``, whose eigendensity has a constant potential on the
inclusion.  On the two stars and the shipped configs' scenes: the top
eigenvalue is within 2.3e-16 of ``1/2``, the next at most 0.12, the top
potential constant to 8e-15 relative, and ``pencil`` is the other
``n - 1`` pairs.  No solve builds the Householder basis ``mean_free``.

Off the centre, a disk at ``(c, 0)`` in the unit disk has the closed-form
spectrum of :func:`disk_modes.eccentric_flux_average_eigenvalues`; every
resolved eigenvalue matched it to 2.3e-16 at n = 128 and 160, and the
others are at most 6.8e-15 in magnitude.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from disk_modes import eccentric_flux_average_eigenvalues
from npeit import experiments
from npeit.config import load_config
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators
from npeit.transmission import _solve_second_kind

N = 128
#: eigenvalues at or below this magnitude are roundoff, not modes
RESOLVED = 1e-14


def star_scene_ops(outer_kind):
    outer = (make_circle((0, 0), 1.0, N) if outer_kind == "disk"
             else make_ellipse((0, 0), 1.3, 0.9, N))
    inclusion = make_star((0.15, -0.05), 0.35, [(3, 0.05), (5, 0.02)], N)
    ops = build_scene_operators(InclusionScene(outer, inclusion, 1.0))
    assert isinstance(ops.green,
                      DiskGreen if outer_kind == "disk" else NumericGreen)
    return ops


@pytest.fixture(scope="module", params=["disk", "ellipse"])
def star_ops(request):
    return star_scene_ops(request.param)


def test_pencil_is_eigenvalues_and_eigendensities(star_ops):
    assert len(star_ops.pencil) == 2
    mu, g = star_ops.pencil
    assert mu.shape == (N - 1,) and g.shape == (N, N - 1)


def test_eigendensities_are_energy_orthonormal(star_ops):
    _, g = star_ops.pencil
    gram = star_ops.energy(g, g)
    assert np.max(np.abs(gram - np.eye(N - 1))) <= 1e-13


def test_eigendensities_are_weighted_mean_free(star_ops):
    _, g = star_ops.pencil
    means = np.abs(star_ops.curve.weights @ g)
    assert np.all(means <= 1e-14 * np.max(np.abs(g), axis=0))


@pytest.mark.parametrize("lam", [-3.0, -0.5, 0.7])
def test_second_kind_solve_divides_each_mode(star_ops, lam):
    mu, g = star_ops.pencil
    resolved = np.abs(mu) > RESOLVED
    assert resolved.sum() >= 20
    modes, mu = g[:, resolved], mu[resolved]
    phi = _solve_second_kind(star_ops, lam, modes)
    expected = modes / (lam - mu)
    err = (np.linalg.norm(phi - expected, axis=0)
           / np.linalg.norm(expected, axis=0))
    assert np.max(err) <= 1e-12


# -- the equilibrium pair ---------------------------------------------------

CONFIGS = {c.stem: c for c in sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))}


@pytest.fixture(scope="module",
                params=["star-in-disk", "star-in-ellipse", *CONFIGS])
def any_ops(request):
    if request.param in CONFIGS:
        return experiments.build_operators(load_config(CONFIGS[request.param]))
    return star_scene_ops(request.param.removeprefix("star-in-"))


def full_pencil(ops):
    """Reference: ``sym(E K*) g = mu E g`` on all nodal values."""
    a = ops.energy_matrix @ ops.kstar_plain
    return scipy.linalg.eigh(0.5 * (a + a.T), ops.energy_matrix)


def test_top_eigenvalue_is_one_half(any_ops):
    mu, _ = full_pencil(any_ops)
    assert abs(mu[-1] - 0.5) <= 1e-14
    assert mu[-2] < 0.25


def test_top_eigendensity_has_constant_potential(any_ops):
    _, y = full_pencil(any_ops)
    trace = any_ops.potential_trace(y[:, -1])
    assert np.ptp(trace) <= 1e-12 * np.max(np.abs(trace))


def test_pencil_is_the_other_pairs(any_ops):
    n = any_ops.curve.n
    mu_all, y = full_pencil(any_ops)
    mu, g = any_ops.pencil
    assert mu.shape == (n - 1,) and g.shape == (n, n - 1)
    assert np.all(mu < 0.5)
    assert np.max(np.abs(mu - mu_all[:-1])) <= 1e-15
    expected = y[:, :-1]
    assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_solves_do_not_build_the_mean_free_basis(tmp_path, monkeypatch):
    built, real = [], experiments.build_operators

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "build_operators", recording)
    config = load_config(CONFIGS["adjudication"])
    experiments.run_sweep(config, tmp_path)
    experiments.run_expansion(config, tmp_path)
    assert len(built) == 2
    for ops in built:
        assert "pencil" in ops.__dict__
        assert "mean_free" not in ops.__dict__


# -- an exact reference off the centre: the eccentric disk ------------------

@pytest.mark.parametrize("n", [128, 160])
@pytest.mark.parametrize("c, r", [(0.2, 0.4), (0.3, 0.35), (0.25, 0.5)])
def test_eccentric_disk_eigenvalues(c, r, n):
    scene = InclusionScene(make_circle((0, 0), 1.0, n),
                           make_circle((c, 0), r, n), 1.0)
    mu, _ = build_scene_operators(scene).pencil
    exact = eccentric_flux_average_eigenvalues(c, r, RESOLVED)
    assert len(exact) >= 10
    assert np.max(np.abs(mu[:len(exact)] - exact)) <= 1e-15
    assert np.max(np.abs(mu[len(exact):])) <= RESOLVED
