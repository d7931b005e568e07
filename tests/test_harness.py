"""Config parsing, experiment drivers, CSV contracts, CLI exit codes.

Pinned behavior:
  * config parse -> render -> parse is lossless; unknown keys rejected
  * CSV headers: sweep ``k,dist_dirichlet,dist_conductor,grad_ratio``;
    stability ``pair_id,d_H,d_m,Lambda,ref_triple_log``; spectrum
    ``index,family,mu,lambda,residual``; expansion
    ``family,index,A_system,A_projection,gap``
  * numbers in CSV carry 17 significant digits; reruns are byte-identical
  * triple-log reference finite exactly on 0 < Lambda < e^-e
  * exit codes: 0 ok, 2 config/assertion, 3 solver
"""

import gc
import math
import subprocess
import sys
import textwrap
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npeit import cli, experiments
from npeit.config import (ExperimentConfig, FourierTerm, config_text,
                          load_config, parse_config, parse_f_terms)
from npeit.exceptions import ConfigError, SolverError
from npeit.experiments import (EXPANSION_HEADER, ORACLE_HEADER,
                               SPECTRUM_HEADER, STABILITY_HEADER,
                               SWEEP_HEADER, TRIPLE_LOG_THRESHOLD,
                               format_number, rank_correlation,
                               run_expansion, run_oracle_check,
                               run_spectrum, run_stability, run_sweep,
                               triple_log_reference)
from npeit.layers import SceneOperators
from npeit.spectrum import solve_spectrum

MINI_SCENE = """
[scene]
outer = circle 0 0 1
inclusion = circle 0 0 0.5
n = 64

[sweep]
count = 4
"""

STAR_SCENE = MINI_SCENE.replace("circle 0 0 0.5", "star 0.05 0 0.4 3:0.05")

TANGENT_LADDER = """
[scene]
outer = circle 0 0 1
inclusion = circle 0 0 0.4
n = 64

[sweep]
count = 3

[stability]
center = 0 0
radius = 0.4
offsets = 0.02 0.05 0.1
"""

#: boundary data whose mean-free part is zero
CONSTANT_DATA = ["const:1", "cos:1:0", "const:2 sin:3:0", "cos:1:1 cos:1:-1"]

REPO = Path(__file__).resolve().parents[1]
#: modules of the solver stack, which config parsing must not load
SOLVER_MODULES = tuple(f"npeit.{name}" for name in (
    "experiments", "green", "layers", "spectrum", "transmission",
    "quadrature", "disk_oracle"))


def heavy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout's sources and
    list the scipy and solver modules loaded at its end."""
    probe = (f"import sys\nsys.path.insert(0, {str(REPO / 'src')!r})\n"
             + code + "\nprint(*sorted(m for m in sys.modules if m == 'scipy'"
             f" or m.startswith('scipy.') or m in {SOLVER_MODULES!r}))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def numpy_or_geometry_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout's sources and
    list the numpy and ``npeit.geometry`` modules loaded at its end."""
    probe = (f"import sys\nsys.path.insert(0, {str(REPO / 'src')!r})\n"
             + code + "\nprint(*sorted(m for m in sys.modules if m == 'numpy'"
             " or m.startswith('numpy.') or m == 'npeit.geometry'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def read_rows(path):
    header, *lines = path.read_text(encoding="utf-8").strip().splitlines()
    return header, [line.split(",") for line in lines
                    if not line.startswith("#")]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_full_round_trip_is_lossless(self):
        config = parse_config(textwrap.dedent("""
            [scene]
            outer = ellipse 0 0 1.5 1
            inclusion = star 0.1 -0.05 0.3 3:0.08
            n = 96

            [physics]
            k0 = 2.5
            f = const:0.5 cos:1:1 sin:3:-0.25

            [sweep]
            base = 2
            ratio = 8
            count = 5

            [spectrum]
            n_modes = 10
            j = 6

            [stability]
            pairs =
                circle 0 0 0.4 ; circle 0.02 0 0.38
                circle 0 0 0.4 ; circle 0 0 0.4

            [output]
            dir = results
        """))
        assert parse_config(config_text(config)) == config

    def test_curve_specs_are_canonicalized(self):
        a = parse_config("[scene]\nouter = circle 0.0 0.0 1.0\n")
        b = parse_config("[scene]\nouter = circle 0 0 1\n")
        assert a == b

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[plotting\]"):
            parse_config("[plotting]\nstyle = dark\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_config("[scene]\nradius = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[scene]\nn = 64\nn = 128\n")

    def test_malformed_curve_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[scene]\nouter = circle 0 0\n")

    @pytest.mark.parametrize("line", ["dir =", "dir =   "])
    def test_empty_output_dir_rejected(self, line):
        with pytest.raises(ConfigError, match=r"^\[output\] dir is empty"):
            parse_config(f"[output]\n{line}\n")

    @pytest.mark.parametrize("term", ["cos:0:1", "tri:1:1", "cos:a:1",
                                      "cos:1", "const", "sin:2:x"])
    def test_malformed_data_term_rejected(self, term):
        with pytest.raises(ConfigError):
            parse_f_terms(term)

    def test_empty_data_rejected(self):
        with pytest.raises(ConfigError):
            parse_f_terms("   ")

    @pytest.mark.parametrize("line", ["n = 63", "n = 6", "n = -8", "n = x"])
    def test_bad_node_count_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(f"[scene]\n{line}\n")

    @pytest.mark.parametrize("section,line", [
        ("physics", "k0 = 0"), ("physics", "k0 = -1"),
        ("sweep", "base = 0"), ("sweep", "ratio = -2"),
        ("sweep", "count = 0"), ("spectrum", "n_modes = 0"),
    ])
    def test_nonpositive_numbers_rejected(self, section, line):
        with pytest.raises(ConfigError):
            parse_config(f"[{section}]\n{line}\n")

    def test_pairs_and_offsets_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("[stability]\npairs =\n    circle 0 0 0.4 ; "
                         "circle 0.1 0 0.3\noffsets = 0.1\n")

    def test_offset_outside_radius_rejected(self):
        with pytest.raises(ConfigError, match="offset"):
            parse_config("[stability]\nradius = 0.4\noffsets = 0.5\n")

    def test_offset_ladder_builds_tangent_pairs(self):
        config = parse_config("[stability]\ncenter = 0.1 0\nradius = 0.4\n"
                              "offsets = 0.05 0.1\n")
        assert len(config.stability_pairs) == 2
        for t, (spec_a, spec_b) in zip([0.05, 0.1], config.stability_pairs):
            ca = [float(tok) for tok in spec_a.split()[1:]]
            cb = [float(tok) for tok in spec_b.split()[1:]]
            assert ca == pytest.approx([0.1, 0.0, 0.4])
            assert cb == pytest.approx([0.1 + t, 0.0, 0.4 - t])
            # internal tangency: center gap equals radius difference
            assert abs(cb[0] - ca[0]) == pytest.approx(ca[2] - cb[2])

    def test_data_vector_evaluates_terms(self):
        config = parse_config("[physics]\nf = const:1 cos:2:0.5 sin:1:-2\n")
        t = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
        expected = 1.0 + 0.5 * np.cos(2 * t) - 2.0 * np.sin(t)
        assert config.data_vector(t) == pytest.approx(expected, abs=1e-15)

    def test_ladder_values(self):
        config = parse_config("[sweep]\nbase = 3\nratio = 2\ncount = 4\n")
        assert config.k_ladder() == [3.0, 6.0, 12.0, 24.0]

    @pytest.mark.parametrize("sweep", [
        "base = 1\nratio = 1e200\ncount = 3",  # ratio**2 raises OverflowError
        "base = 10\nratio = 1e154\ncount = 3",  # base * ratio**2 is inf
        "base = 1\nratio = 1e-200\ncount = 3",  # ratio**2 rounds to 0
    ], ids=["pow-overflow", "product-overflow", "underflow"])
    def test_ladder_outside_the_positive_floats_rejected(self, sweep):
        with pytest.raises(ConfigError, match=r"^\[sweep\] base = .*count"):
            parse_config(f"[sweep]\n{sweep}\n")

    def test_ladder_at_the_float_edges_accepted(self):
        config = parse_config("[sweep]\nbase = 1\nratio = 1e154\ncount = 3\n")
        assert config.k_ladder() == [1.0, 1e154, 1e154**2]
        config = parse_config("[sweep]\nbase = 1\nratio = 1e-160\ncount = 3\n")
        assert config.k_ladder()[-1] == 1e-160**2 > 0.0

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    @given(
        cx=st.floats(-0.2, 0.2), r=st.floats(0.2, 0.45),
        k0=st.floats(0.1, 5.0), amp=st.floats(-10, 10),
        m=st.integers(1, 6), n=st.sampled_from([8, 16, 64]),
        base=st.floats(0.5, 8.0), count=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, cx, r, k0, amp, m, n, base, count):
        assume(m < n // 2)  # the grid resolves the harmonic
        config = parse_config(textwrap.dedent(f"""
            [scene]
            outer = circle 0 0 1
            inclusion = circle {cx!r} 0 {r!r}
            n = {n}

            [physics]
            k0 = {k0!r}
            f = cos:{m}:{amp!r} const:1

            [sweep]
            base = {base!r}
            count = {count}
        """))
        assert parse_config(config_text(config)) == config


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

class TestSweep:
    def test_concentric_sweep_decreases_with_good_slope(self, tmp_path):
        config = parse_config(MINI_SCENE.replace("count = 4", "count = 6"))
        result = run_sweep(config, tmp_path)
        d = result.dist_dirichlet
        assert all(a > b for a, b in zip(d, d[1:]))
        assert result.slope is not None and result.slope <= -0.45
        assert all(r <= 1.0 for r in result.grad_ratio)
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header == SWEEP_HEADER
        assert len(rows) == 6

    def test_single_point_ladder_has_no_slope(self, tmp_path):
        config = parse_config(MINI_SCENE.replace("count = 4", "count = 1"))
        result = run_sweep(config, tmp_path)
        assert result.slope is None
        assert len(result.ks) == 1

    @pytest.mark.parametrize("base", ["1", "2"])
    def test_constant_tail_has_no_slope(self, tmp_path, base):
        # ratio 1 repeats one conductivity, and no line fits a single log k:
        # at base = k0 least squares fails to converge, at base = 2 it warns
        cfg = write_cfg(tmp_path, MINI_SCENE.replace(
            "count = 4", f"base = {base}\nratio = 1\ncount = 3"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(load_config(cfg), tmp_path)
            assert cli.main(["sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "cli")]) == 0
        assert result.slope is None
        assert result.ks == (float(base),) * 3
        assert len(set(result.dist_dirichlet)) == 1
        assert ((tmp_path / "cli" / "sweep.csv").read_bytes()
                == (tmp_path / "sweep.csv").read_bytes())
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header == SWEEP_HEADER
        assert len(rows) == 3 and rows[0] == rows[1] == rows[2]

    def test_net_flux_data_separates_the_two_limits(self, tmp_path):
        config = parse_config("""
[scene]
outer = circle 0 0 1
inclusion = circle 0.3 0 0.35
n = 96

[physics]
f = const:1 cos:1:1

[sweep]
count = 5
""")
        result = run_sweep(config, tmp_path)
        d_con = result.dist_conductor
        assert all(a > b for a, b in zip(d_con, d_con[1:]))
        assert d_con[-1] < 1e-3
        d_dir = result.dist_dirichlet
        # grounded-limit distance stalls at the net-flux gap
        assert d_dir[-1] > 0.1
        assert abs(d_dir[-1] - d_dir[-2]) < 0.01 * d_dir[-1]

    def test_solver_failure_flushes_partial_csv(self, tmp_path, monkeypatch):
        # the ladder is one batched call: poison its columns for k >= 64
        # (k = 64 and 256); the sweep must stop at the first of them
        config = parse_config(MINI_SCENE)
        real = experiments.solve_transmission

        def failing(ops, f, k):
            sol = real(ops, f, k)
            sol.phi[:, np.asarray(k) >= 64.0] = np.nan
            return sol

        monkeypatch.setattr(experiments, "solve_transmission", failing)
        with pytest.raises(SolverError, match="k=64"):
            run_sweep(config, tmp_path)
        text = (tmp_path / "sweep.csv").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert lines[-1].startswith("# aborted: ")
        assert "k=64" in lines[-1]
        assert len(lines) == 2 + 2  # header, two completed rows, marker
        assert [float(line.split(",")[0]) for line in lines[1:3]] == [4.0, 16.0]

    def test_raising_ladder_flushes_header_and_marker(self, tmp_path,
                                                      monkeypatch):
        def raising(ops, f, k):
            raise SolverError("injected failure")

        monkeypatch.setattr(experiments, "solve_transmission", raising)
        with pytest.raises(SolverError, match="injected"):
            run_sweep(parse_config(MINI_SCENE), tmp_path)
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").split("\n")
        assert lines[:2] == [SWEEP_HEADER, "# aborted: injected failure"]


# ---------------------------------------------------------------------------
# spectrum and expansion drivers
# ---------------------------------------------------------------------------

class TestSpectrumExpansion:
    def test_spectrum_row_count_matches_n_modes(self, tmp_path):
        config = parse_config(MINI_SCENE + "\n[spectrum]\nn_modes = 9\n")
        spectrum = run_spectrum(config, tmp_path)
        header, rows = read_rows(tmp_path / "spectrum.csv")
        assert header == SPECTRUM_HEADER
        assert len(rows) == 9 == len(spectrum.modes)
        lams = [abs(float(row[3])) for row in rows]
        # leading concentric eigenvalues r0^(2m), each twice
        assert lams[:4] == pytest.approx([0.25, 0.25, 0.0625, 0.0625],
                                         abs=1e-9)

    def test_expansion_routes_agree_in_csv(self, tmp_path):
        config = parse_config(MINI_SCENE + "\n[spectrum]\nn_modes = 8\nj = 8\n")
        result = run_expansion(config, tmp_path)
        header, rows = read_rows(tmp_path / "expansion.csv")
        assert header == EXPANSION_HEADER
        assert len(rows) == len(result.modes)
        gaps = [float(row[4]) for row in rows]
        assert max(gaps) <= 1e-10
        for row, a_sys, a_proj in zip(rows, result.a_system,
                                      result.a_projection):
            assert float(row[2]) == a_sys
            assert float(row[3]) == a_proj

    @pytest.mark.parametrize("n_modes, j", [(16, 8), (20, 8), (8, 16),
                                            (20, 20)])
    def test_spectrum_of_j_is_the_per_family_truncation(self, n_modes, j):
        # the expansion used to solve max(n_modes, j) modes per family and
        # keep the leading j of each; solving j keeps the same modes
        ops = experiments.build_operators(parse_config(STAR_SCENE))
        wide, seen = [], {}
        for mode in solve_spectrum(ops, max(n_modes, j)).modes:
            seen[mode.family] = seen.get(mode.family, 0) + 1
            if seen[mode.family] <= j:
                wide.append(mode)
        kept = solve_spectrum(ops, j).modes
        assert [(m.family, m.index, m.mu, m.lam, m.residual) for m in kept] \
            == [(m.family, m.index, m.mu, m.lam, m.residual) for m in wide]
        assert all(np.array_equal(a.density, b.density)
                   for a, b in zip(kept, wide))

    def test_expand_solves_no_unused_modes(self, tmp_path, caplog):
        config = parse_config(STAR_SCENE + "\n[spectrum]\nn_modes = 20\nj = 8\n")
        with caplog.at_level("WARNING", logger="npeit.spectrum"):
            run_expansion(config, tmp_path)
            assert caplog.messages == []
            # solving n_modes, as the expansion used to, clips and warns
            solve_spectrum(experiments.build_operators(config), 20)
        assert "exceeds the resolution cap 16" in caplog.messages[0]

    @pytest.mark.parametrize("driver, key", [(run_spectrum, "n_modes"),
                                             (run_expansion, "j")])
    def test_cap_warning_names_the_requested_count(self, tmp_path, caplog,
                                                   driver, key):
        # spectrum clips [spectrum] n_modes, expand clips [spectrum] j: the
        # warning states the count, not a key the user may not have set
        config = parse_config(MINI_SCENE + f"\n[spectrum]\n{key} = 100\n")
        with caplog.at_level("WARNING", logger="npeit.spectrum"):
            driver(config, tmp_path)
        assert caplog.messages == ["100 modes per family requested: that "
                                   "exceeds the resolution cap 16 at n=64; "
                                   "clipping"]


# ---------------------------------------------------------------------------
# what the driver results keep alive
# ---------------------------------------------------------------------------

ELLIPSE_STAR = """
[scene]
outer = ellipse 0 0 1.2 0.9
inclusion = star 0.1 0 0.35 3:0.03
n = 64

[spectrum]
n_modes = 6
"""


def fresh_gram(modes, ops):
    """The energy Gram matrix of ``modes`` evaluated afresh on ``ops``."""
    g = np.column_stack([m.density for m in modes])
    return g.T @ (ops.energy_matrix @ g)


@pytest.fixture
def built_ops(monkeypatch):
    """Weak references to every operator set the drivers build."""
    refs = []
    real = experiments.build_operators

    def recording(*args, **kwargs):
        ops = real(*args, **kwargs)
        refs.append(weakref.ref(ops))
        return ops

    monkeypatch.setattr(experiments, "build_operators", recording)
    return refs


def live(refs) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


class TestResultRetention:
    @pytest.mark.parametrize("driver, text", [
        (run_spectrum, MINI_SCENE + "\n[spectrum]\nn_modes = 9\n"),
        (run_spectrum, ELLIPSE_STAR),
        (run_sweep, MINI_SCENE),
        (run_stability, TANGENT_LADDER)],
        ids=["spectrum", "spectrum-ellipse-star", "sweep", "stability"])
    def test_held_result_pins_no_operator_set(self, tmp_path, built_ops,
                                              driver, text):
        result = driver(parse_config(text), tmp_path)  # held, as a caller would
        assert built_ops and live(built_ops) == 0
        del result

    def test_expansion_result_keeps_its_operator_set(self, tmp_path,
                                                     built_ops):
        # ExpansionResult carries the transmission solution, and with it
        # the operator set the solution's methods evaluate on
        result = run_expansion(parse_config(ELLIPSE_STAR), tmp_path)
        assert live(built_ops) == 1
        assert result.solution.ops is built_ops[0]()

    @pytest.mark.parametrize("path", [*sorted(
        (REPO / "configs").glob("*.cfg")), None],
        ids=lambda p: p.name if p else "ellipse-star")
    def test_stored_gram_is_the_per_call_gram(self, tmp_path, monkeypatch,
                                             path):
        config = load_config(path) if path else parse_config(ELLIPSE_STAR)
        kept, grams = [], []
        real, energy = experiments.build_operators, SceneOperators.energy
        monkeypatch.setattr(experiments, "build_operators",
                            lambda *a: kept.append(real(*a)) or kept[-1])
        monkeypatch.setattr(SceneOperators, "energy",
                            lambda *a: grams.append(a) or energy(*a))
        selected = run_spectrum(config, tmp_path)
        assert len(grams) == 1  # one Gram per run
        (ops,) = kept
        full = solve_spectrum(ops, config.n_modes)
        # the selected modes' Gram is the sub-block of the solve's Gram
        position = {(m.family, m.index): i for i, m in enumerate(full.modes)}
        idx = [position[m.family, m.index] for m in selected.modes]
        for spectrum, expect in (
                (full, fresh_gram(full.modes, ops)),
                (selected, full.gram()[np.ix_(idx, idx)])):
            assert np.array_equal(spectrum.gram(), expect)
            assert np.max(np.abs(spectrum.gram() - fresh_gram(
                spectrum.modes, ops))) <= 1e-13
            assert not spectrum.gram().flags.writeable
            assert spectrum.orthogonality_defect() == float(
                np.max(np.abs(expect - np.eye(len(spectrum.modes)))))
        assert type(ops.green).__name__ == (
            "NumericGreen" if path is None else "DiskGreen")


# ---------------------------------------------------------------------------
# stability driver
# ---------------------------------------------------------------------------

class TestStability:
    def test_tangent_ladder_ranks_with_distance(self, tmp_path):
        config = parse_config(TANGENT_LADDER)
        rows = run_stability(config, tmp_path)
        assert [r.d_h for r in rows] == pytest.approx([0.04, 0.1, 0.2],
                                                      abs=1e-12)
        lams = [r.lam for r in rows]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        header, csv_rows = read_rows(tmp_path / "stability.csv")
        assert header == STABILITY_HEADER
        for row, r in zip(csv_rows, rows):
            ref = float(row[4])
            if 0.0 < r.lam < TRIPLE_LOG_THRESHOLD:
                assert math.isfinite(ref) and ref > 0
            else:
                assert math.isnan(ref)

    def test_identical_pair_gives_zero_row(self, tmp_path):
        config = parse_config("""
[scene]
outer = circle 0 0 1
n = 64

[stability]
pairs =
    circle 0 0 0.4 ; circle 0.0 0.0 0.4
""")
        rows = run_stability(config, tmp_path)
        assert rows[0].d_h == 0.0 and rows[0].d_m == 0.0
        assert rows[0].lam == 0.0
        assert math.isnan(rows[0].reference)
        header, csv_rows = read_rows(tmp_path / "stability.csv")
        assert csv_rows[0][4] == "nan"

    def test_missing_pairs_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_stability(parse_config(MINI_SCENE), tmp_path)

    def test_separated_pair_warns(self, tmp_path, caplog):
        config = parse_config("""
[scene]
outer = circle 0 0 1
n = 64

[sweep]
count = 1

[stability]
pairs =
    circle -0.3 0 0.2 ; circle 0.3 0 0.2
""")
        with caplog.at_level("WARNING", logger="npeit.experiments"):
            run_stability(config, tmp_path)
        assert any("do not touch" in rec.message for rec in caplog.records)

    def test_negative_association_raises_after_csv(self, tmp_path,
                                                   monkeypatch):
        config = parse_config(TANGENT_LADDER)
        gaps = iter([0.3, 0.2, 0.1])  # anti-ordered against d_H
        monkeypatch.setattr(experiments, "_ladder_trace_gap",
                            lambda *a, **kw: next(gaps))
        with pytest.raises(AssertionError, match="Spearman"):
            run_stability(config, tmp_path)
        assert (tmp_path / "stability.csv").exists()

    def test_triple_log_reference_domain(self):
        assert math.isnan(triple_log_reference(0.0))
        assert math.isnan(triple_log_reference(TRIPLE_LOG_THRESHOLD))
        assert math.isnan(triple_log_reference(0.5))
        value = triple_log_reference(1e-12)
        assert math.isfinite(value) and value > 0
        # hand value: 1/ln(ln(12 ln 10))
        assert value == pytest.approx(1.0 / math.log(math.log(
            12.0 * math.log(10.0))), rel=1e-12)

    @given(st.floats(1e-300, 0.98, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_triple_log_reference_finite_iff_below_threshold(self, lam):
        value = triple_log_reference(lam)
        if lam < TRIPLE_LOG_THRESHOLD:
            assert math.isfinite(value) and value > 0
        else:
            assert math.isnan(value)

    @given(st.floats(1e-200, 1e-2), st.floats(1e-200, 1e-2))
    @settings(max_examples=100, deadline=None)
    def test_triple_log_reference_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert triple_log_reference(lo) <= triple_log_reference(hi)


# ---------------------------------------------------------------------------
# oracle self-check driver
# ---------------------------------------------------------------------------

class TestOracleCheck:
    def test_all_checks_pass(self, tmp_path):
        rows = run_oracle_check(ExperimentConfig(), tmp_path)
        assert all(row[3] == "PASS" for row in rows)
        header, csv_rows = read_rows(tmp_path / "oracle.csv")
        assert header == ORACLE_HEADER
        assert len(csv_rows) == len(rows) == 5
        for row in csv_rows:
            assert float(row[1]) <= float(row[2])


# ---------------------------------------------------------------------------
# formatting and determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_full_precision_rendering(self):
        assert format_number(1.0 / 3.0) == "0.33333333333333331"
        assert float(format_number(math.pi)) == math.pi
        assert format_number(float("nan")) == "nan"

    def test_reruns_are_byte_identical(self, tmp_path):
        config = parse_config(MINI_SCENE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        run_sweep(config, out_a)
        run_sweep(config, out_b)
        assert ((out_a / "sweep.csv").read_bytes()
                == (out_b / "sweep.csv").read_bytes())

    def test_stability_reruns_are_byte_identical(self, tmp_path):
        config = parse_config(TANGENT_LADDER)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        run_stability(config, out_a)
        run_stability(config, out_b)
        assert ((out_a / "stability.csv").read_bytes()
                == (out_b / "stability.csv").read_bytes())


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestCli:
    def test_success_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_out_dir_from_config_section(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE + f"""
[output]
dir = {tmp_path / "nested" / "results"}
""")
        assert cli.main(["spectrum", "--config", str(cfg)]) == 0
        assert (tmp_path / "nested" / "results" / "spectrum.csv").exists()

    def test_missing_out_dir_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE)
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    def test_empty_out_dir_exit_two_writes_nothing(self, tmp_path, capsys,
                                                   monkeypatch):
        # an empty [output] dir used to mean the current directory
        cfg = write_cfg(tmp_path, MINI_SCENE + "[output]\ndir =\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli.main(["oracle-check", "--config", str(cfg)]) == 2
        assert "[output] dir" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    def test_empty_out_option_exit_two_writes_nothing(self, tmp_path, capsys,
                                                      monkeypatch):
        # an empty --out used to mean the current directory
        cfg = write_cfg(tmp_path, MINI_SCENE)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli.main(["oracle-check", "--config", str(cfg),
                         "--out", ""]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    def test_overflowing_curve_is_one_error_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "[scene]\nouter = circle 1e308 0 1e308\n")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys\nsys.path.insert(0, {str(REPO / 'src')!r})\n"
             "from npeit.cli import main\nsys.exit(main(sys.argv[1:]))",
             "sweep", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: circle with center [1e+308, 0.0] and parameters "
            "(1e+308,) has non-finite nodes"]
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[scene]\nbogus = 1\n")
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("data, cause", [
        ((MINI_SCENE + "[physics]\nk0 = nan\n").encode(), "k0 = 'nan'"),
        ((MINI_SCENE + "[physics]\nf = cos:1:nan\n").encode(), "'cos:1:nan'"),
        ((MINI_SCENE + "[physics]\nf = cos:1:inf\n").encode(), "'cos:1:inf'"),
        (MINI_SCENE.replace("count = 4", "base = inf").encode(),
         "base = 'inf'"),
        (MINI_SCENE.replace("0 0 0.5", "0 0 nan").encode(),
         "parameters (nan,) has non-finite nodes"),
        (b"[scene]\nn = 64 \xff\n", "exp.cfg"),
    ], ids=["k0-nan", "f-nan", "f-inf", "base-inf", "inclusion-nan",
            "invalid-utf8"])
    def test_nonfinite_or_undecodable_config_exit_two(self, tmp_path, capsys,
                                                      data, cause):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(data)
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("term", ["sin:32:1", "cos:40:1"])
    def test_unresolved_harmonic_exit_two(self, tmp_path, capsys, term):
        # at n = 64, sin:32 samples to zeros and cos:40 aliases to cos:24
        cfg = write_cfg(tmp_path, MINI_SCENE + f"[physics]\nf = {term}\n")
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"'{term}.0'" in err and "n = 64" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_highest_resolved_harmonic_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE + "[physics]\nf = cos:31:1\n")
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        assert len(read_rows(tmp_path / "sweep.csv")[1]) == 4

    def test_missing_config_exit_two(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "no.cfg"),
                         "--out", str(tmp_path)]) == 2

    def test_assertion_failure_exit_two(self, tmp_path, monkeypatch):
        def raiser(config, out_dir):
            raise AssertionError("association violated")

        monkeypatch.setattr(experiments, "run_stability", raiser)
        cfg = write_cfg(tmp_path, TANGENT_LADDER)
        assert cli.main(["stability", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    def test_solver_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        def raiser(config, out_dir):
            raise SolverError("no convergence")

        monkeypatch.setattr(experiments, "run_sweep", raiser)
        cfg = write_cfg(tmp_path, MINI_SCENE)
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "stability"])
    @pytest.mark.parametrize("ratio", ["1e200", "1e-200"],
                             ids=["overflow", "underflow"])
    def test_ladder_leaving_the_floats_exit_two(self, tmp_path, capsys,
                                                command, ratio):
        # 1e200**2 overflows the float pow; 1e-200**2 rounds to k = 0
        cfg = write_cfg(tmp_path, TANGENT_LADDER.replace(
            "count = 3", f"base = 1\nratio = {ratio}\ncount = 3"))
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[sweep]" in err and f"ratio = {float(ratio)!r}" in err
        assert "base = 1.0" in err and "count = 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "expand", "stability"])
    @pytest.mark.parametrize("data", CONSTANT_DATA)
    def test_data_without_mean_free_part_exit_two(self, tmp_path, capsys,
                                                  command, data):
        # sweep used to exit 3 on grad_ratio = 0/0; expand and stability
        # exited 0 with all-zero rows
        cfg = write_cfg(tmp_path, TANGENT_LADDER + f"[physics]\nf = {data}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[physics] f = " in err and "no mean-free part" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, artifact", [
        ("spectrum", "spectrum.csv"), ("oracle-check", "oracle.csv")])
    @pytest.mark.parametrize("data", CONSTANT_DATA)
    def test_constant_data_is_not_read_without_a_solve(self, tmp_path,
                                                       command, artifact,
                                                       data):
        cfg = write_cfg(tmp_path, TANGENT_LADDER + f"[physics]\nf = {data}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / artifact).exists()

    def test_config_error_exits_before_scipy_loads(self, tmp_path):
        cfg = write_cfg(tmp_path, "[scene]\nbogus = 1\n")
        loaded = heavy_modules_after(
            "from npeit.cli import main\n"
            f"code = main(['sweep', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "assert code == 2, code\n")
        assert loaded == []
        assert not (tmp_path / "out").exists()

    def test_oracle_check_loads_no_solver_module(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE)
        loaded = heavy_modules_after(
            "from npeit.cli import main\n"
            f"code = main(['oracle-check', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "assert code == 0, code\n")
        assert loaded == ["npeit.disk_oracle"]
        assert (tmp_path / "out" / "oracle.csv").exists()

    def test_every_subcommand_runs_clean(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_SCENE + TANGENT_LADDER.split("[scene]")[0]
                        + "\n[stability]\noffsets = 0.05\nradius = 0.4\n")
        out = tmp_path / "all"
        for name, artifact in [("spectrum", "spectrum.csv"),
                               ("sweep", "sweep.csv"),
                               ("stability", "stability.csv"),
                               ("expand", "expansion.csv"),
                               ("oracle-check", "oracle.csv")]:
            assert cli.main([name, "--config", str(cfg),
                             "--out", str(out)]) == 0, name
            assert (out / artifact).exists()


# ---------------------------------------------------------------------------
# serial drivers and the rank correlation
# ---------------------------------------------------------------------------

class TestSerialDrivers:
    def test_every_transmission_solve_runs_on_the_main_thread(
            self, tmp_path, monkeypatch):
        real = experiments.solve_transmission
        calls = []

        def recording(ops, f, k):
            calls.append((ops, tuple(np.atleast_1d(k)),
                          threading.current_thread() is threading.main_thread()))
            return real(ops, f, k)

        monkeypatch.setattr(experiments, "solve_transmission", recording)
        sweep = parse_config(MINI_SCENE)
        run_sweep(sweep, tmp_path)
        assert len(calls) == 1
        assert calls[0][1] == tuple(sweep.k_ladder())
        stability = parse_config(TANGENT_LADDER)
        run_stability(stability, tmp_path)
        # three pairs on one reference disk: four distinct inclusions, one
        # ladder each, each on its own operator set
        assert len(calls) == 1 + 4
        assert len({id(ops) for ops, _, _ in calls[1:]}) == 4  # all alive
        assert all(ks == tuple(stability.k_ladder()) for _, ks, _ in calls[1:])
        assert all(on_main for _, _, on_main in calls)


class TestRankCorrelation:
    def test_hand_ranked_cases(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == \
            pytest.approx(1.0, abs=1e-15)
        assert rank_correlation([1, 2, 3], [0.3, 0.2, 0.1]) == \
            pytest.approx(-1.0, abs=1e-15)
        # ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): 4.5 / sqrt(4.5 * 5)
        assert rank_correlation([1, 2, 2, 3], [1, 2, 3, 4]) == \
            pytest.approx(3.0 / math.sqrt(10.0), abs=1e-15)
        # ties on both sides: ranks (4, 1, 2.5, 2.5, 5) against
        # (1.5, 1.5, 3, 4.5, 4.5), centered dot 3.75 over sqrt(9.5 * 9)
        assert rank_correlation([3, 1, 2, 2, 5], [1, 1, 2, 3, 3]) == \
            pytest.approx(3.75 / math.sqrt(85.5), abs=1e-15)

    def test_constant_or_nan_input_is_nan(self):
        assert math.isnan(rank_correlation([1, 1, 1], [1, 2, 3]))
        assert math.isnan(rank_correlation([1, 2, 3], [0.5, 0.5, 0.5]))
        assert math.isnan(rank_correlation([1, 2, math.nan], [1, 2, 3]))

    def test_matches_scipy_spearman(self):
        import scipy.stats
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, 12).astype(float)
        y = x + rng.integers(-2, 3, 12)
        assert rank_correlation(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-14)

    def test_cli_import_leaves_scipy_stats_out(self):
        # the parse-and-validate path of the CLI loads no solver module
        configs = sorted(map(str, (REPO / "configs").glob("*.cfg")))
        assert len(configs) == 3
        loaded = heavy_modules_after(
            "import npeit.cli\n"
            "from npeit.config import load_config\n"
            f"for path in {configs!r}:\n"
            "    load_config(path)\n")
        assert loaded == []

    def test_parse_path_loads_no_numpy(self, tmp_path):
        configs = sorted(map(str, (REPO / "configs").glob("*.cfg")))
        configs.append(str(write_cfg(tmp_path, STAR_SCENE + (
            "[stability]\npairs =\n"
            "    star 0 0 0.4 3:0.02 ; star 0.01 0 0.38 3:0.02 5:-0.01\n"))))
        loaded = numpy_or_geometry_after(
            "import npeit.cli\n"
            "from npeit.config import load_config\n"
            f"for path in {configs!r}:\n"
            "    load_config(path)\n")
        assert loaded == []
