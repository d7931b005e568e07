"""The library names the benchmark under ``perfbench/`` calls.

``perfbench/replica.py`` replays each driver's public calls with spans,
and ``perfbench/checks.py`` checks the drivers' CSV files and return
values.  Both import from ``npeit`` directly, so a renamed or deleted
name the drivers no longer use (``NPSpectrum.__len__``, the module-level
``transmission.gradient_bound``, ``ExpansionResult.solution``, ...)
breaks every traced or checked item of the benchmark while the rest of
the suite passes.  Here item 1 (seed 1) of each workload runs through
both, as the benchmark's children run it.
"""

import sys
from pathlib import Path

import pytest

from npeit import experiments
from npeit.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import replica  # noqa: E402
import workloads  # noqa: E402

DRIVERS = {"sweep": experiments.run_sweep,
           "spectrum": experiments.run_spectrum,
           "expand": experiments.run_expansion,
           "stability": experiments.run_stability}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def item(request):
    return workloads.make_item(request.param, 1, 1)


def test_traced_replica_runs(item):
    tracer = replica.Tracer(item.name)
    info = replica.run_traced(parse_config(item.config), item.drivers,
                              tracer)
    assert info["rows"] > 0
    assert tracer.spans and all(span["end"] is not None
                                for span in tracer.spans)


def test_driver_output_passes_the_checks(item, tmp_path):
    config = parse_config(item.config)
    results = {driver: DRIVERS[driver](config, tmp_path)
               for driver in item.drivers}
    csv = {driver: (tmp_path / checks.CSV_FILES[driver]).read_text(
        encoding="utf-8") for driver in item.drivers}
    assert checks.check_item(config, item.control, csv, results) == []
    assert sum(len(text.splitlines()) - 1 for text in csv.values()) > 0
