"""Experiment drivers behind the command line.

Each ``run_*`` function takes a validated :class:`ExperimentConfig` and an
output directory, runs one study, writes one CSV file, and returns the
in-memory result.  All numeric CSV output uses full round-trip precision
(17 significant digits) and the files are byte-identical across reruns of
the same config: nothing here is sampled, perturbation ladders are
enumerated, and every ladder is evaluated serially in index order, on
one BLAS thread per OpenBLAS library whatever the machine's core count.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import threading
from dataclasses import dataclass
from functools import cache, wraps
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .disk_oracle import (ORACLE_HEADER, _write_csv, format_number,
                          run_oracle_check)
from .exceptions import ConditioningError, ConfigError, SolverError
from .geometry import InclusionScene, hausdorff_distance, parse_curve_spec
from .green import make_green
from .layers import SceneOperators, build_scene_operators
from .spectrum import NPSpectrum, solve_spectrum
from .transmission import (ExpansionResult, expansion_coefficients,
                           solve_limit, solve_transmission, trace_constant,
                           trace_distance)

__all__ = [
    "SWEEP_HEADER",
    "STABILITY_HEADER",
    "SPECTRUM_HEADER",
    "EXPANSION_HEADER",
    "ORACLE_HEADER",
    "TRIPLE_LOG_THRESHOLD",
    "SweepResult",
    "StabilityRow",
    "blas_threads",
    "build_operators",
    "format_number",
    "rank_correlation",
    "run_expansion",
    "run_oracle_check",
    "run_spectrum",
    "run_stability",
    "run_sweep",
    "triple_log_reference",
]

log = logging.getLogger("npeit.experiments")

SWEEP_HEADER = "k,dist_dirichlet,dist_conductor,grad_ratio"
STABILITY_HEADER = "pair_id,d_H,d_m,Lambda,ref_triple_log"
SPECTRUM_HEADER = "index,family,mu,lambda,residual"
EXPANSION_HEADER = "family,index,A_system,A_projection,gap"

#: traces closer than this admit a finite triple-log reference value
TRIPLE_LOG_THRESHOLD = math.exp(-math.e)
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_pools() -> dict:
    try:
        paths = {line.split(None, 5)[5] for line in
                 Path("/proc/self/maps").read_text().splitlines() if "openblas" in line}
        libs = [(Path(path).name, ctypes.CDLL(path)) for path in sorted(paths)]
    except (OSError, ValueError):  # no such file, or a path that is not text
        return {}
    names = [f"{prefix}openblas_%s_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    get, put = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
    return {file: (get((name % "get", lib)), put((name % "set", lib)))
            for file, lib in libs for name in names if hasattr(lib, name % "set")}


_OPENBLAS = _openblas_pools()  # once: a scan per call grew forked children's RSS
_held_lock, _held = threading.Lock(), {"depth": 0, "counts": {}}


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, by library file name."""
    return {name: get() for name, (get, _) in _OPENBLAS.items()}


def _hold_blas(step: int) -> None:
    with _held_lock:
        if not _held["depth"]:
            _held["counts"] = blas_threads()
        _held["depth"] += step
        for name, count in _held["counts"].items():
            _OPENBLAS[name][1](1 if _held["depth"] else count)


def _one_blas_thread(driver):
    """Run ``driver`` on one thread per loaded OpenBLAS unless a thread
    variable is set (see the README).  Concurrent drivers count in and out
    (``_hold_blas``): the last one out puts back the counts the first found."""
    @wraps(driver)
    def run(config: ExperimentConfig, out_dir):
        if any(map(os.environ.get, _THREAD_VARIABLES)):
            return driver(config, out_dir)
        _hold_blas(+1)
        try:
            return driver(config, out_dir)
        finally:
            _hold_blas(-1)
    return run


def build_operators(config: ExperimentConfig, inclusion_spec: str | None = None,
                    green=None) -> SceneOperators:
    """Assemble the dense operator set for the configured scene (with an
    optional replacement inclusion, used by the stability pairs), on the
    prebuilt outer kernel ``green`` if one is given."""
    outer = green.outer if green else parse_curve_spec(config.outer, config.n)
    inclusion = parse_curve_spec(inclusion_spec or config.inclusion, config.n)
    return build_scene_operators(
        InclusionScene(outer, inclusion, config.k0), green)


# ---------------------------------------------------------------------------
# frequency sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Per-ladder-point distances to the two high-contrast limits and the
    gradient-bound ratio, plus the fitted log-log decay slope of the
    grounded-limit distance (over the last four points)."""

    ks: tuple[float, ...]
    dist_dirichlet: tuple[float, ...]
    dist_conductor: tuple[float, ...]
    grad_ratio: tuple[float, ...]
    slope: float | None


def _fit_tail_slope(ks, dists, tail: int = 4) -> float | None:
    k, d = np.asarray(ks[-tail:]), np.asarray(dists[-tail:])
    keep = d > 0.0
    if len(set(k[keep].tolist())) < 2:  # a line needs two distinct k
        return None
    return float(np.polyfit(np.log(k[keep]), np.log(d[keep]), 1)[0])


@_one_blas_thread
def run_sweep(config: ExperimentConfig, out_dir) -> SweepResult:
    """Sweep the conductivity ladder and measure convergence to the
    high-contrast limits; writes ``sweep.csv``.

    The ladder is one block solve, and the limits share its background.
    ``grad_ratio`` measures the gradient bound with the converged discrete
    Steklov constant of :func:`trace_constant`, with no safety factor.

    A solver failure, or a non-finite result at some ladder point,
    flushes the rows before it with a ``# aborted`` marker line and
    raises.
    """
    ops = build_operators(config)
    outer = ops.scene.outer
    f = config.data_vector(outer.t)
    ks = config.k_ladder()
    path = Path(out_dir) / "sweep.csv"
    rows: list = []
    try:
        sol = solve_transmission(ops, f, ks)
        tr, bg = sol.outer_trace(), sol.background
        grounded = solve_limit(ops, f, "grounded", bg)
        # the mean-free grounded limit up to a constant, which the
        # gradient bound compares against
        conductor = solve_limit(ops, f, "conductor", bg)
        d_dir = trace_distance(outer, tr, grounded.trace[:, None])
        d_con = trace_distance(outer, tr, conductor.trace[:, None])
        ratio = sol.gradient_bound(conductor, trace_constant(ops)).ratio
        for row in zip(ks, d_dir, d_con, ratio):
            if not np.all(np.isfinite(row)):
                raise SolverError(f"non-finite ladder solution at k={row[0]:g}")
            rows.append(tuple(map(format_number, row)))
    except (SolverError, ConditioningError) as exc:
        rows.append(f"# aborted: {exc}")
        _write_csv(path, SWEEP_HEADER, rows)
        log.error("sweep aborted after %d rows: %s", len(rows) - 1, exc)
        raise
    _write_csv(path, SWEEP_HEADER, rows)
    return SweepResult(ks=tuple(ks), dist_dirichlet=tuple(d_dir.tolist()),
                       dist_conductor=tuple(d_con.tolist()),
                       grad_ratio=tuple(ratio.tolist()),
                       slope=_fit_tail_slope(ks, d_dir))


# ---------------------------------------------------------------------------
# spectrum and expansion reports
# ---------------------------------------------------------------------------

@_one_blas_thread
def run_spectrum(config: ExperimentConfig, out_dir) -> NPSpectrum:
    """Report the leading ``n_modes`` eigenpairs (largest ``|lambda|``
    across families); writes ``spectrum.csv``."""
    ops = build_operators(config)
    spectrum = solve_spectrum(ops, config.n_modes)
    ranked = sorted(
        spectrum.modes,
        key=lambda m: (-abs(m.lam), m.family == "-", m.index))
    keep = {id(m) for m in ranked[:config.n_modes]}
    idx = [i for i, m in enumerate(spectrum.modes) if id(m) in keep]
    selected = [spectrum.modes[i] for i in idx]
    rows = [(str(m.index), m.family, format_number(m.mu),
             format_number(m.lam), format_number(m.residual))
            for m in selected]
    _write_csv(Path(out_dir) / "spectrum.csv", SPECTRUM_HEADER, rows)
    return NPSpectrum(selected, gram=spectrum.gram()[np.ix_(idx, idx)])


@_one_blas_thread
def run_expansion(config: ExperimentConfig, out_dir) -> ExpansionResult:
    """Expand the transmission solution at the ladder base conductivity
    over the leading ``j`` modes of each family, reporting both
    coefficient routes and their gap; writes ``expansion.csv``."""
    ops = build_operators(config)
    f = config.data_vector(ops.scene.outer.t)
    result = expansion_coefficients(ops, solve_spectrum(ops, config.j_trunc),
                                    f, config.ladder_base)
    rows = [(mode.family, str(mode.index), format_number(a_sys),
             format_number(a_proj), format_number(abs(a_sys - a_proj)))
            for mode, a_sys, a_proj in zip(result.modes, result.a_system,
                                           result.a_projection)]
    _write_csv(Path(out_dir) / "expansion.csv", EXPANSION_HEADER, rows)
    return result


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityRow:
    """Geometry distances and ladder trace gap for one inclusion pair;
    ``reference`` is the triple-log comparison value (nan when the gap
    is zero or too large for the triple logarithm)."""

    pair_id: int
    d_h: float
    d_m: float
    lam: float
    reference: float


def triple_log_reference(lam: float) -> float:
    """``1 / ln(ln(-ln(lam)))`` where defined (``0 < lam < e^-e``),
    nan elsewhere."""
    if 0.0 < lam < TRIPLE_LOG_THRESHOLD:
        return 1.0 / math.log(math.log(-math.log(lam)))
    return math.nan


def _ladder_trace_gap(outer, tr_a: np.ndarray, tr_b: np.ndarray) -> float:
    return float(np.max(trace_distance(outer, tr_a, tr_b)))


def rank_correlation(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the average
    ranks (ties share their mean rank); nan for constant or nan input."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    ranks = []
    for values in (x, y):
        _, inverse, counts = np.unique(values, return_inverse=True,
                                       return_counts=True)
        r = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
        ranks.append(r - r.mean())
    rx, ry = ranks
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / denom if denom > 0 else math.nan


def _pair_distance(pair_id: int, a, b) -> float:
    """``d_H`` of two curves, which for curves without holes is also
    ``d_m``, from one ``locate`` per direction; warns if they do not touch."""
    located = [q.locate(p.nodes) for p, q in ((a, b), (b, a))]
    gap = min(float(np.min(d)) for d, _, _ in located)
    tol = 3.0 * max(a.max_spacing(), b.max_spacing())
    if gap > tol:
        log.warning(
            "stability pair %d: inclusion boundaries do not touch "
            "(min gap %.3g exceeds %.3g); the contact assumption behind "
            "the stability comparison is violated", pair_id, gap, tol)
    if a.kind == b.kind == "circle":
        return hausdorff_distance(a, b)  # the closed form
    return max(max(0.0, float(np.max(np.where(unsure | inside, 0.0, d))))
               for d, inside, unsure in located)


@_one_blas_thread
def run_stability(config: ExperimentConfig, out_dir) -> list[StabilityRow]:
    """Rank inclusion pairs by their ladder trace gap against geometric
    distances; writes ``stability.csv``.

    Each pair is expected to share a boundary point (checked within node
    tolerance, warned if violated).  Identical pairs short-circuit to a
    zero row with an undefined reference value.  With at least two
    pairs, a non-positive Spearman rank correlation between ``d_H`` and
    the trace gap raises AssertionError (after the CSV is written).
    One outer kernel serves the run, and each distinct inclusion gets one
    operator set and one ladder solve, of which only the traces are kept.
    """
    if not config.stability_pairs:
        raise ConfigError("stability experiment needs [stability] pairs "
                          "or an offset ladder")
    green = make_green(parse_curve_spec(config.outer, config.n))
    f, ks = config.data_vector(green.outer.t), config.k_ladder()

    @cache  # per run: an inclusion's curve and (n, K) ladder outer traces
    def ladder(spec: str) -> tuple:
        ops = build_operators(config, spec, green)
        return ops.curve, solve_transmission(ops, f, ks).outer_trace()

    rows: list[StabilityRow] = []
    for pair_id, (spec_a, spec_b) in enumerate(config.stability_pairs, 1):
        if spec_a == spec_b:
            rows.append(StabilityRow(pair_id, 0.0, 0.0, 0.0, math.nan))
            continue
        (inc_a, tr_a), (inc_b, tr_b) = ladder(spec_a), ladder(spec_b)
        d_h = _pair_distance(pair_id, inc_a, inc_b)
        lam = _ladder_trace_gap(green.outer, tr_a, tr_b)
        rows.append(StabilityRow(pair_id, d_h, d_h, lam,
                                 triple_log_reference(lam)))
    _write_csv(Path(out_dir) / "stability.csv", STABILITY_HEADER,
               [(str(r.pair_id), format_number(r.d_h), format_number(r.d_m),
                 format_number(r.lam), format_number(r.reference))
                for r in rows])
    if len(rows) >= 2:
        rho = rank_correlation([r.d_h for r in rows], [r.lam for r in rows])
        if math.isfinite(rho) and rho <= 0:
            raise AssertionError(
                "stability association violated: Spearman correlation "
                f"between d_H and the trace gap is {rho:.3g} (expected > 0)")
    return rows
