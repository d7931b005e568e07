"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) each.

 1. geometry worked examples (annulus vs disk distances) ......... 1e-9
 2. jump relation over 50 smooth densities, circle + star ........ 1e-10
 3. symmetrization defect + energy-form definiteness ............. 1e-9/1e-6
 4. spectrum vs concentric closed form, quotient identity ........ 1e-6/1e-9
 5. transmission trace vs mode oracle at k in {3, 10, 100} ....... 1e-7
 6. high-contrast ladder: monotone decay, 1e-3 drop, ratio <= 1
 7. conductivity derivatives: central difference, Taylor decay,
    factorial-scaled norms bounded
 8. expansion routes agree (J=16), reconstruction (J=24),
    within-family orthogonality .................................. 1e-6/1e-5/1e-8
 9. stability ladder: strict ranking (Spearman = 1), triple-log
    reference finite exactly below e^-e
10. byte-identical CSV from repeated CLI runs of every subcommand

Each test times itself against the budget stated in its line.
"""

import math
import time

import numpy as np
import scipy.stats

from npeit import cli
from npeit.config import parse_config
from npeit.disk_oracle import oracle_transmission_mode
from npeit.experiments import (TRIPLE_LOG_THRESHOLD, run_stability,
                               run_sweep)
from npeit.geometry import (InclusionScene, RegionWithHole,
                            hausdorff_distance, make_circle, make_star,
                            modified_distance)
from npeit.layers import build_scene_operators
from npeit.spectrum import NPSpectrum, solve_spectrum
from npeit.transmission import (derivative_ladder, expansion_coefficients,
                                solve_transmission, taylor_outer_trace,
                                trace_distance)

from references import (HatForms, derivative_norm_ratios, energy_quotient,
                        family, mean_free_basis)


def _finish(num, name, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget:g}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} [{elapsed:.2f}s]")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _concentric_ops(n=128, r0=0.5, k0=1.0):
    return build_scene_operators(InclusionScene(
        make_circle((0, 0), 1.0, n), make_circle((0, 0), r0, n), k0))


def test_01_geometry_worked_examples():
    t0 = time.perf_counter()
    failures = []
    disk = make_circle((0, 0), 1.0, 512)
    annulus = RegionWithHole(disk, make_circle((0, 0), 0.5, 512))
    larger = make_circle((0, 0), 1.25, 512)
    for label, value, expect in [
        ("d_m(annulus, disk)", modified_distance(annulus, disk), 0.0),
        ("d_H(annulus, disk)", hausdorff_distance(annulus, disk), 0.5),
        ("d_m(annulus, 5/4 disk)", modified_distance(annulus, larger), 0.25),
        ("d_H(annulus, 5/4 disk)", hausdorff_distance(annulus, larger), 0.5),
    ]:
        if abs(value - expect) > 1e-9:
            failures.append(f"{label} = {value!r}, expected {expect}")
    _finish(1, "geometry worked examples", t0, 1.0, failures)


def test_02_jump_relation_suite():
    t0 = time.perf_counter()
    failures = []
    scenes = {
        "circle": InclusionScene(make_circle((0, 0), 1.0, 256),
                                 make_circle((0, 0), 0.5, 256)),
        "star": InclusionScene(make_circle((0, 0), 1.0, 256),
                               make_star((0.1, 0.05), 0.4,
                                         [(3, 0.06), (5, 0.02)], 256)),
    }
    rng = np.random.default_rng(42)
    for label, scene in scenes.items():
        ops = build_scene_operators(scene)
        g = rng.standard_normal((256, 50))
        defect = np.max(np.abs(ops.side_flux(g, +1)
                               - ops.side_flux(g, -1) - g))
        if defect > 1e-10:
            failures.append(f"{label} jump defect {defect:.3g} > 1e-10")
    _finish(2, "jump relation suite", t0, 10.0, failures)


def test_03_symmetrization_and_definiteness():
    t0 = time.perf_counter()
    failures = []
    for label, scene, tol in [
        ("circle", InclusionScene(make_circle((0, 0), 1.0, 256),
                                  make_circle((0, 0), 0.5, 256)), 1e-9),
        ("star", InclusionScene(make_circle((0, 0), 1.0, 256),
                                make_star((0.1, 0.05), 0.4,
                                          [(3, 0.06), (5, 0.02)], 256)),
         1e-6),
    ]:
        ops = build_scene_operators(scene)
        hf = HatForms(ops)
        defect = np.max(np.abs(hf.s_hat @ hf.kstar_hat
                               - hf.kstar_hat.T @ hf.s_hat))
        if defect > tol:
            failures.append(f"{label} symmetrization defect {defect:.3g} "
                            f"> {tol:g}")
        projected = mean_free_basis(ops).T @ (hf.s_hat @ mean_free_basis(ops))
        rayleigh = float(np.linalg.eigvalsh(projected).min())
        if rayleigh < -1e-10:
            failures.append(f"{label} min Rayleigh {rayleigh:.3g} < -1e-10")
    _finish(3, "symmetrization and definiteness", t0, 10.0, failures)


def test_04_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    ops = _concentric_ops(n=256)
    spectrum = solve_spectrum(ops, 16)
    plus = family(spectrum, "+")
    if len(plus) < 16:
        failures.append(f"only {len(plus)} modes in the '+' family")
    for position, mode in enumerate(plus[:16]):
        m = position // 2 + 1  # degenerate cos/sin pairs per order
        mu_exact = -(0.5 ** (2 * m)) / 2.0
        if abs(mode.mu - mu_exact) > 1e-6:
            failures.append(f"mu (m={m}) off by "
                            f"{abs(mode.mu - mu_exact):.3g}")
        quotient = energy_quotient(ops, mode.density)
        if abs(quotient - (-2.0 * mode.mu)) > 1e-9:
            failures.append(f"energy quotient (m={m}) off by "
                            f"{abs(quotient + 2 * mode.mu):.3g}")
    _finish(4, "spectrum oracle equivalence", t0, 30.0, failures)


def test_05_transmission_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    ops = _concentric_ops(n=256)
    f = np.cos(ops.scene.outer.t)
    for k in (3.0, 10.0, 100.0):
        coeff = oracle_transmission_mode(1, k, 1.0, 0.5).trace_coeff
        gap = np.max(np.abs(solve_transmission(ops, f, k).outer_trace()
                            - coeff * f))
        if gap > 1e-7:
            failures.append(f"trace vs oracle at k={k}: {gap:.3g} > 1e-7")
    _finish(5, "transmission oracle equivalence", t0, 10.0, failures)


def test_06_high_contrast_ladder(tmp_path):
    t0 = time.perf_counter()
    failures = []
    # low background conductivity puts the ladder deep into the
    # asymptotic regime within six rungs
    config = parse_config("""
[scene]
outer = circle 0 0 1
inclusion = circle 0 0 0.5
n = 128

[physics]
k0 = 0.05
f = cos:1:1

[sweep]
base = 4
ratio = 4
count = 6
""")
    result = run_sweep(config, tmp_path)
    d = result.dist_dirichlet
    if not all(a > b for a, b in zip(d, d[1:])):
        failures.append(f"distances not strictly decreasing: {d}")
    drop = d[-1] / d[0]
    if drop > 1e-3:
        failures.append(f"final/initial distance ratio {drop:.3e} > 1e-3")
    bad = [r for r in result.grad_ratio if r > 1.0]
    if bad:
        failures.append(f"gradient bound ratio exceeds 1: {max(bad)!r}")
    _finish(6, "high-contrast ladder", t0, 30.0, failures)


def test_07_analyticity_suite():
    t0 = time.perf_counter()
    failures = []
    ops = _concentric_ops()
    outer = ops.scene.outer
    f = np.cos(outer.t)
    sol, phis = derivative_ladder(ops, f, 3.0, 10)

    h = 1e-3
    fd = (solve_transmission(ops, f, 3.0 + h).outer_trace()
          - solve_transmission(ops, f, 3.0 - h).outer_trace()) / (2 * h)
    d1 = ops.outer_trace(phis[0])
    d1 -= (outer.weights @ d1) / outer.length()
    rel = np.max(np.abs(fd - d1)) / np.max(np.abs(d1))
    if rel > 1e-4:
        failures.append(f"central-difference relative error {rel:.3g} "
                        "> 1e-4")

    dk = 0.5 * min(3.0, 1.0)  # half the distance to the degenerate point
    target = solve_transmission(ops, f, 3.0 + dk).outer_trace()
    errs = [trace_distance(outer, taylor_outer_trace(ops, sol, phis, dk, j),
                           target) for j in range(1, 9)]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    if not all(r < 0.5 for r in ratios):
        failures.append(f"Taylor error decay not geometric: {ratios}")

    scaled = derivative_norm_ratios(ops, phis, 3.0)
    if not all(r <= 1.0 for r in scaled):
        failures.append(f"scaled derivative norms exceed 1: {max(scaled)!r}")
    _finish(7, "analyticity suite", t0, 30.0, failures)


def test_08_expansion_suite():
    t0 = time.perf_counter()
    failures = []
    ops = _concentric_ops()
    outer_t = ops.scene.outer.t
    f = (np.cos(outer_t) + 0.5 * np.cos(2 * outer_t)
         + 0.25 * np.cos(3 * outer_t))

    spectrum16 = solve_spectrum(ops, 16)
    gap = expansion_coefficients(ops, spectrum16, f, 3.0).max_route_gap()
    if gap > 1e-6:
        failures.append(f"route gap at J=16: {gap:.3g} > 1e-6")

    spectrum24 = solve_spectrum(ops, 24)
    result = expansion_coefficients(ops, spectrum24, f, 3.0)
    recon = trace_distance(ops.scene.outer,
                           result.reconstructed_outer_trace(ops),
                           result.solution.outer_trace())
    if recon > 1e-5:
        failures.append(f"reconstruction error at J=24: {recon:.3g} > 1e-5")

    gram = spectrum24.gram()
    families = [m.family for m in spectrum24.modes]
    worst = 0.0
    for i in range(len(families)):
        for j in range(i, len(families)):
            if families[i] == families[j]:
                expect = 1.0 if i == j else 0.0
                worst = max(worst, abs(gram[i, j] - expect))
    if worst > 1e-8:
        failures.append(f"within-family orthogonality defect {worst:.3g} "
                        "> 1e-8")
    _finish(8, "expansion suite", t0, 30.0, failures)


def test_09_stability_experiment(tmp_path):
    t0 = time.perf_counter()
    failures = []
    config = parse_config("""
[scene]
outer = circle 0 0 1
inclusion = circle 0 0 0.4
n = 128

[physics]
f = cos:1:1

[stability]
center = 0 0
radius = 0.4
offsets = 0.02 0.05 0.1
""")
    rows = run_stability(config, tmp_path)
    d_h = [r.d_h for r in rows]
    lam = [r.lam for r in rows]
    if not all(a < b for a, b in zip(lam, lam[1:])):
        failures.append(f"trace gap not strictly increasing: {lam}")
    rho = scipy.stats.spearmanr(d_h, lam).statistic
    if rho != 1.0:
        failures.append(f"Spearman correlation {rho!r} != 1")
    csv_rows = [line.split(",") for line in
                (tmp_path / "stability.csv").read_text().strip()
                .splitlines()[1:]]
    for row in csv_rows:
        value, ref = float(row[3]), float(row[4])
        if 0.0 < value < TRIPLE_LOG_THRESHOLD and not math.isfinite(ref):
            failures.append(f"missing triple-log reference at "
                            f"Lambda={value!r}")
        if value >= TRIPLE_LOG_THRESHOLD and math.isfinite(ref):
            failures.append(f"reference wrongly finite at Lambda={value!r}")
    _finish(9, "stability experiment", t0, 60.0, failures)


def test_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
[scene]
outer = circle 0 0 1
inclusion = circle 0 0 0.4
n = 96

[physics]
k0 = 1
f = cos:1:1

[sweep]
base = 4
ratio = 4
count = 4

[spectrum]
n_modes = 8
j = 8

[stability]
center = 0 0
radius = 0.4
offsets = 0.02 0.1
""", encoding="utf-8")
    jobs = [("spectrum", "spectrum.csv"), ("sweep", "sweep.csv"),
            ("stability", "stability.csv"), ("expand", "expansion.csv"),
            ("oracle-check", "oracle.csv")]
    for run in ("first", "second"):
        out = tmp_path / run
        for command, _ in jobs:
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(out)])
            if code != 0:
                failures.append(f"{command} ({run} run) exited {code}")
    for command, artifact in jobs:
        a = (tmp_path / "first" / artifact).read_bytes()
        b = (tmp_path / "second" / artifact).read_bytes()
        if a != b:
            failures.append(f"{artifact} differs between runs")
    _finish(10, "CLI determinism", t0, 60.0, failures)
