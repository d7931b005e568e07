"""The solver drivers' BLAS thread policy.

Pinned behavior:
  * inside ``run_sweep``, ``run_spectrum``, ``run_expansion`` and
    ``run_stability`` every loaded OpenBLAS reports one thread, and the
    caller's counts are back afterwards, also when the driver raises
  * a set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` leaves the counts as the caller has them
  * drivers running at once in several threads keep the pools at one
    thread until the last of them returns, which puts the caller's counts
    back
  * CSV bytes with the thread variables unset equal those with
    ``OPENBLAS_NUM_THREADS=1``, whatever the machine's core count
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from npeit import experiments
from npeit.config import parse_config
from npeit.exceptions import ConfigError, SolverError

REPO = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")
#: the count every pool is set to outside the drivers in these tests
OUTSIDE = 2
#: seconds any wait in these tests may take before it counts as a hang
WAIT_S = 30.0

pytestmark = pytest.mark.skipif(not experiments.blas_threads(),
                                reason="no OpenBLAS library in this process")

SCENE = """
[scene]
outer = circle 0 0 1
inclusion = star 0.05 0 0.4 3:0.05
n = 64

[sweep]
count = 3
"""

PAIRS = SCENE + """
[stability]
center = 0 0
radius = 0.4
offsets = 0.02 0.05
"""

DRIVERS = {"run_sweep": SCENE, "run_spectrum": SCENE,
           "run_expansion": SCENE, "run_stability": PAIRS}


def _set_counts(counts: dict) -> None:
    for name, count in counts.items():
        experiments._OPENBLAS[name][1](count)


@pytest.fixture
def pools(monkeypatch):
    """Every pool at OUTSIDE threads and no thread variable set; the
    process's own counts come back afterwards."""
    for key in THREAD_VARIABLES:
        monkeypatch.delenv(key, raising=False)
    before = experiments.blas_threads()
    _set_counts(dict.fromkeys(before, OUTSIDE))
    yield dict.fromkeys(before, OUTSIDE)
    _set_counts(before)


def _record_inside(monkeypatch) -> list:
    """Record the pools' counts at each operator build of a driver."""
    seen, real = [], experiments.build_operators

    def recording(*args, **kwargs):
        seen.append(experiments.blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_operators", recording)
    return seen


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_runs_on_one_thread_per_library(driver, pools, monkeypatch,
                                               tmp_path):
    seen = _record_inside(monkeypatch)
    getattr(experiments, driver)(parse_config(DRIVERS[driver]), tmp_path)
    assert seen and all(counts == dict.fromkeys(pools, 1) for counts in seen)
    assert experiments.blas_threads() == pools


def test_counts_come_back_when_the_driver_raises(pools, tmp_path):
    with pytest.raises(ConfigError, match="pairs"):
        experiments.run_stability(parse_config(SCENE), tmp_path)
    assert experiments.blas_threads() == pools


def test_counts_come_back_when_a_stage_raises(pools, monkeypatch, tmp_path):
    seen = []

    def failing(*args, **kwargs):
        seen.append(experiments.blas_threads())
        raise SolverError("stage failed")

    monkeypatch.setattr(experiments, "build_operators", failing)
    with pytest.raises(SolverError, match="stage failed"):
        experiments.run_sweep(parse_config(SCENE), tmp_path)
    assert seen == [dict.fromkeys(pools, 1)]
    assert experiments.blas_threads() == pools


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_set_thread_variable_leaves_the_pools_alone(variable, pools,
                                                    monkeypatch, tmp_path):
    monkeypatch.setenv(variable, "2")
    seen = _record_inside(monkeypatch)
    experiments.run_sweep(parse_config(SCENE), tmp_path)
    assert seen == [pools]
    assert experiments.blas_threads() == pools


def _join(threads) -> None:
    for thread in threads:
        thread.join(WAIT_S)
        assert not thread.is_alive(), "a driver thread hung"


def test_concurrent_drivers_keep_the_callers_counts(pools, monkeypatch,
                                                    tmp_path):
    # A enters first and leaves first while B is still inside: a plain
    # save and restore would let B, which saved A's one thread, restore 1
    both_inside = threading.Barrier(2, timeout=WAIT_S)
    a_inside, a_done = threading.Event(), threading.Event()
    seen, errors = {}, []

    def held(config, *args, **kwargs):
        name = threading.current_thread().name
        if name == "A":
            a_inside.set()
        both_inside.wait()
        if name == "B":
            assert a_done.wait(WAIT_S)
        seen[name] = experiments.blas_threads()
        raise SolverError(f"{name} held")

    def drive():
        try:
            experiments.run_sweep(parse_config(SCENE), tmp_path)
        except SolverError:
            pass
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    monkeypatch.setattr(experiments, "build_operators", held)
    a = threading.Thread(target=drive, name="A")
    b = threading.Thread(target=drive, name="B")
    a.start()
    assert a_inside.wait(WAIT_S)
    b.start()
    _join([a])
    a_done.set()
    _join([b])
    assert not errors
    assert seen == {"A": dict.fromkeys(pools, 1), "B": dict.fromkeys(pools, 1)}
    assert experiments.blas_threads() == pools


def test_many_concurrent_drivers_keep_the_callers_counts(pools, monkeypatch,
                                                         tmp_path):
    # more threads than cores, switching often: a lost update of the
    # driver count would leave the pools at one thread, or restore early
    config, calls, inside = parse_config(SCENE), 25, []

    def quick(*args, **kwargs):
        inside.append(experiments.blas_threads())
        raise SolverError("quick")

    def drive():
        for _ in range(calls):
            with pytest.raises(SolverError):
                experiments.run_sweep(config, tmp_path)

    monkeypatch.setattr(experiments, "build_operators", quick)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive) for _ in range(4)]
        for thread in threads:
            thread.start()
        _join(threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(inside) == 4 * calls
    assert all(counts == dict.fromkeys(pools, 1) for counts in inside)
    assert experiments.blas_threads() == pools


def _cli_csv(subcommand: str, out: Path, **env) -> bytes:
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    clean["PYTHONPATH"] = str(REPO / "src")
    subprocess.run(
        [sys.executable, "-m", "npeit.cli", subcommand, "--config",
         str(REPO / "configs" / "adjudication.cfg"), "--out", str(out)],
        env={**clean, **env}, capture_output=True, check=True,
        timeout=120)
    (csv,) = out.glob("*.csv")
    return csv.read_bytes()


@pytest.mark.parametrize("subcommand", ["sweep", "expand"])
def test_cli_csv_bytes_do_not_depend_on_the_thread_variable(subcommand,
                                                            tmp_path):
    unset = _cli_csv(subcommand, tmp_path / "unset")
    one = _cli_csv(subcommand, tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    assert unset == one
