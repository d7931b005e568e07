"""Correctness checks on the output of one item.

Every item is checked against invariants that hold for any geometry, and
the concentric-disk control items also against the closed forms of
``npeit.disk_oracle``.  A check that fails makes the item a failed
operation.  The tolerances are fixed here, well above the errors the
solver reaches on these inputs and far below the size of the quantities
they guard.
"""

from __future__ import annotations

import math

from npeit.config import ExperimentConfig
from npeit.disk_oracle import (oracle_limit_trace_coefficient,
                               oracle_transmission_mode)
from npeit.experiments import (EXPANSION_HEADER, SPECTRUM_HEADER,
                               STABILITY_HEADER, SWEEP_HEADER)

CSV_FILES = {"sweep": "sweep.csv", "spectrum": "spectrum.csv",
             "expand": "expansion.csv", "stability": "stability.csv"}
_HEADERS = {"sweep": SWEEP_HEADER, "spectrum": SPECTRUM_HEADER,
            "expand": EXPANSION_HEADER, "stability": STABILITY_HEADER}

#: spectral residual ``|K* g - mu g|`` in the energy norm, per mode
SPECTRUM_RESIDUAL_TOL = 1e-8
#: largest entry of ``G - I`` for the Gram matrix of the reported modes
ORTHOGONALITY_TOL = 1e-8
#: largest gap between the two expansion coefficient routes
ROUTE_GAP_TOL = 1e-8
#: agreement of control items with the closed forms, relative to the
#: reference value plus this absolute floor
ORACLE_REL_TOL = 1e-8
ORACLE_ABS_TOL = 1e-11


def check_item(config: ExperimentConfig, control: dict | None,
               csv: dict[str, str], results: dict | None = None) -> list[str]:
    """Problems found in one item's CSV files (keyed by driver name) and,
    when the drivers ran in this process, in their return values."""
    problems = []
    for driver, text in csv.items():
        lines = text.splitlines()
        if not lines or lines[0] != _HEADERS[driver]:
            problems.append(f"{CSV_FILES[driver]}: wrong header")
            continue
        if any(line.startswith("#") for line in lines):
            problems.append(f"{CSV_FILES[driver]}: aborted")
            continue
        rows = [line.split(",") for line in lines[1:]]
        check = {"sweep": _check_sweep, "spectrum": _check_spectrum,
                 "expand": _check_expansion,
                 "stability": _check_stability}[driver]
        problems += check(config, control, rows)
    if results and "spectrum" in results:
        defect = results["spectrum"].orthogonality_defect()
        if not defect <= ORTHOGONALITY_TOL:
            problems.append(f"spectrum: orthogonality defect {defect:.3g}")
    return problems


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= (ORACLE_ABS_TOL
                                      + ORACLE_REL_TOL * abs(reference))


def _check_sweep(config, control, rows):
    problems = []
    if len(rows) != config.ladder_count:
        problems.append(f"sweep.csv: {len(rows)} rows for "
                        f"{config.ladder_count} ladder points")
    for k, d_dir, d_con, ratio in ((float(x) for x in row) for row in rows):
        if not all(map(math.isfinite, (d_dir, d_con, ratio))):
            problems.append(f"sweep.csv: non-finite row at k={k!r}")
        elif not ratio <= 1.0:
            problems.append(f"sweep.csv: grad_ratio {ratio!r} > 1 at k={k!r}")
        elif control is not None:
            # concentric disk: the trace of a pure cos(m t) load is
            # c(k) cos(m t), both limits share c_lim, and the net flux only
            # adds a constant, so both distances are sqrt(pi) |c(k) - c_lim|
            m, v, r0, k0 = (control[key] for key in ("m", "v", "r0", "k0"))
            c_k = oracle_transmission_mode(m, k, k0, r0, f_c=v).trace_coeff
            c_lim = oracle_limit_trace_coefficient(m, k0, r0, f_c=v)
            ref = math.sqrt(math.pi) * abs(c_k - c_lim)
            if not (_close(d_dir, ref) and _close(d_con, ref)):
                problems.append(f"sweep.csv: control off the closed form at "
                                f"k={k!r}: {d_dir!r}, {d_con!r} vs {ref!r}")
    return problems[:3]


def _check_spectrum(config, control, rows):
    problems = []
    for index, family, mu, _lam, residual in rows:
        mu, residual = float(mu), float(residual)
        if not abs(mu) < 0.5:
            problems.append(f"spectrum.csv: |mu| = {abs(mu)!r} >= 1/2 "
                            f"(mode {family}{index})")
        if not residual <= SPECTRUM_RESIDUAL_TOL:
            problems.append(f"spectrum.csv: residual {residual!r} "
                            f"(mode {family}{index})")
    return problems[:3]


def _check_expansion(config, control, rows):
    gap = max((float(row[4]) for row in rows), default=math.nan)
    if not gap <= ROUTE_GAP_TOL:
        return [f"expansion.csv: route gap {gap!r}"]
    return []


def _check_stability(config, control, rows):
    problems = []
    if len(rows) != len(config.stability_pairs):
        problems.append(f"stability.csv: {len(rows)} rows for "
                        f"{len(config.stability_pairs)} pairs")
    for row in rows:
        pair, (d_h, d_m, lam) = row[0], (float(x) for x in row[1:4])
        if not d_m <= d_h:
            problems.append(f"stability.csv: pair {pair}: d_m {d_m!r} > "
                            f"d_H {d_h!r}")
        if not (math.isfinite(lam) and lam > 0.0):
            problems.append(f"stability.csv: pair {pair}: Lambda {lam!r}")
    if control is not None:
        # concentric disk pairs: d_H = d_m = the radius gap, and Lambda is
        # the largest closed-form trace gap over the ladder
        m, v, r0, k0 = (control[key] for key in ("m", "v", "r0", "k0"))
        for row, t in zip(rows, control["offsets"]):
            r1 = r0 - t
            gap = max(abs(oracle_transmission_mode(m, k, k0, r0, f_c=v)
                          .trace_coeff
                          - oracle_transmission_mode(m, k, k0, r1, f_c=v)
                          .trace_coeff) for k in config.k_ladder())
            ref = (r0 - r1, r0 - r1, math.sqrt(math.pi) * gap)
            got = tuple(float(x) for x in row[1:4])
            if not all(map(_close, got, ref)):
                problems.append(f"stability.csv: control pair {row[0]} off "
                                f"the closed form: {got!r} vs {ref!r}")
    return problems[:3]
