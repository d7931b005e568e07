"""The traced run: each driver's public calls, made serially, with spans.

For one item this module makes the calls that ``run_sweep``,
``run_spectrum``, ``run_expansion`` and ``run_stability`` make, in the same
order, and records a span around each call into a layer.  The drivers run
their ladders on thread pools; here every call is serial, so that each span
covers exactly one call.  Nothing in ``src/`` is touched: the spans are
taken from outside the program.

The health values (flux matching residual, route gap, spectral residual)
are computed after the item's root span has closed, so they do not count
in the traced time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from npeit.config import ExperimentConfig
from npeit.geometry import (InclusionScene, distance_to_boundary,
                            hausdorff_distance, modified_distance,
                            parse_curve_spec)
from npeit.green import make_green
from npeit.layers import build_scene_operators
from npeit.spectrum import NPSpectrum, solve_spectrum
from npeit.transmission import (expansion_coefficients, gradient_bound,
                                solve_limit, solve_transmission,
                                trace_constant, trace_distance)


class Tracer:
    """Spans of one item, kept in memory: name, start, end and parent."""

    def __init__(self, item: str):
        self.item = item
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.health: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "item": self.item, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def note_max(self, name: str, value: float) -> None:
        self.health[name] = max(self.health.get(name, 0.0), float(value))


def run_traced(config: ExperimentConfig, drivers, tracer: Tracer) -> dict:
    """Run the item's drivers as traced replicas; returns the CSV row count,
    the traced time and the scenes each operator build was for."""
    state = {"rows": 0, "scenes": [], "solutions": [], "spectra": [],
             "expansions": []}
    replicas = {"sweep": _sweep, "spectrum": _spectrum,
                "expand": _expansion, "stability": _stability}
    with tracer.span("item") as root:
        for driver in drivers:
            with tracer.span(f"experiments.{driver}"):
                replicas[driver](config, tracer, state)
    for sol in state["solutions"]:
        tracer.note_max("transmission.flux_residual_max",
                        sol.flux_matching_residual())
    for spectrum in state["spectra"]:
        tracer.note_max("spectrum.max_residual", spectrum.max_residual())
        tracer.note_max("spectrum.orthogonality_defect",
                        spectrum.orthogonality_defect())
    for expansion in state["expansions"]:
        tracer.note_max("transmission.route_gap_max",
                        expansion.max_route_gap())
    return {"rows": state["rows"], "traced_s": root["end"] - root["start"],
            "scenes": state["scenes"]}


def _build(config: ExperimentConfig, tracer: Tracer, state: dict,
           inclusion_spec: str | None = None):
    """``experiments.build_operators``, with the outer kernel built by
    ``make_green`` in its own span and handed to the operator build."""
    spec = inclusion_spec or config.inclusion
    with tracer.span("geometry.curve"):
        outer = parse_curve_spec(config.outer, config.n)
    with tracer.span("geometry.curve"):
        inclusion = parse_curve_spec(spec, config.n)
    with tracer.span("geometry.scene"):
        scene = InclusionScene(outer, inclusion, config.k0)
    with tracer.span("green.build"):
        green = make_green(outer)
    with tracer.span("layers.build"):
        ops = build_scene_operators(scene, green=green)
    tracer.note_max("layers.correction_defect", ops.correction_defect)
    state["scenes"].append([config.outer, spec, config.n, config.k0])
    return ops


def _sweep(config, tracer, state):
    ops = _build(config, tracer, state)
    outer = ops.scene.outer
    f = config.data_vector(outer.t)
    with tracer.span("transmission.limit"):
        grounded = solve_limit(ops, f, "grounded")
    with tracer.span("transmission.limit"):
        conductor = solve_limit(ops, f, "conductor")
    if grounded.beta == 0.0:
        bound_limit = grounded
    else:
        with tracer.span("transmission.limit"):
            bound_limit = solve_limit(ops, grounded.background.f, "grounded")
    with tracer.span("transmission.trace_constant"):
        c0 = trace_constant(ops)
    for k in config.k_ladder():
        with tracer.span("transmission.solve"):
            sol = solve_transmission(ops, f, k)
            tr = sol.outer_trace()
        state["solutions"].append(sol)
        with tracer.span("transmission.distance"):
            trace_distance(outer, tr, grounded.trace)
        with tracer.span("transmission.distance"):
            trace_distance(outer, tr, conductor.trace)
        with tracer.span("transmission.gradient_bound"):
            gradient_bound(ops, f, k, limit=bound_limit, c0=c0)
        state["rows"] += 1


_FAMILY_RANK = {"+": 0, "-": 1, "0": 2}


def _spectrum(config, tracer, state):
    ops = _build(config, tracer, state)
    with tracer.span("spectrum.solve"):
        spectrum = solve_spectrum(ops, config.n_modes)
    ranked = sorted(spectrum.modes, key=lambda m: (
        -abs(m.lam), _FAMILY_RANK[m.family], m.index))
    keep = {id(m) for m in ranked[:config.n_modes]}
    selected = NPSpectrum([m for m in spectrum.modes if id(m) in keep], ops)
    state["spectra"].append(selected)
    state["rows"] += len(selected)


def _expansion(config, tracer, state):
    ops = _build(config, tracer, state)
    with tracer.span("spectrum.solve"):
        spectrum = solve_spectrum(ops, max(config.n_modes, config.j_trunc))
    counts: dict[str, int] = {}
    selected = []
    for mode in spectrum.modes:
        if counts.get(mode.family, 0) < config.j_trunc:
            selected.append(mode)
            counts[mode.family] = counts.get(mode.family, 0) + 1
    f = config.data_vector(ops.scene.outer.t)
    with tracer.span("transmission.expansion"):
        result = expansion_coefficients(ops, NPSpectrum(selected, ops), f,
                                        config.ladder_base)
    state["solutions"].append(result.solution)
    state["expansions"].append(result)
    state["rows"] += len(result.modes)


def _stability(config, tracer, state):
    ks = config.k_ladder()
    for spec_a, spec_b in config.stability_pairs:
        state["rows"] += 1
        if spec_a == spec_b:
            continue
        ops_a = _build(config, tracer, state, spec_a)
        ops_b = _build(config, tracer, state, spec_b)
        inc_a, inc_b = ops_a.scene.inclusion, ops_b.scene.inclusion
        # the contact check of run_stability: one distance per node
        with tracer.span("geometry.contact") as span:
            min(min(distance_to_boundary(inc_b, x) for x in inc_a.nodes),
                min(distance_to_boundary(inc_a, x) for x in inc_b.nodes))
            span["calls"] = inc_a.n + inc_b.n
        f = config.data_vector(ops_a.scene.outer.t)
        outer = ops_a.scene.outer
        for k in ks:
            with tracer.span("transmission.solve"):
                sol_a = solve_transmission(ops_a, f, k)
                tr_a = sol_a.outer_trace()
            with tracer.span("transmission.solve"):
                sol_b = solve_transmission(ops_b, f, k)
                tr_b = sol_b.outer_trace()
            state["solutions"] += [sol_a, sol_b]
            with tracer.span("transmission.distance"):
                trace_distance(outer, tr_a, tr_b)
        with tracer.span("geometry.hausdorff"):
            hausdorff_distance(inc_a, inc_b)
        with tracer.span("geometry.hausdorff"):
            modified_distance(inc_a, inc_b)
