"""np-eit benchmark: seeded workloads, crash-isolated items, traced layers.

Run from the root of an np-eit checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``cold_cli_s``, ``item_s.p50``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of a separate traced run.  Every item's output is
checked, and every item runs with the drivers' ladder pools pinned to
one thread (``pin_pool``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric by name with its unit
and sample count, the error rate, every failed item with its seed and
cause, and where the run's full record was written.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import isolate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: at least this many fresh interpreters are timed per run for setup_s,
#: one before each cold CLI process; the median is reported
SETUP_REPS = 5
#: share of the measured time spent on cold CLI processes and their setup
#: probes; warm items get the rest
COLD_SHARE = 1 / 3
#: the item the cold CLI processes run: the workload's first item, which
#: is the concentric-disk control where a workload has one
COLD_ITEM = 0
#: ``python -X importtime`` probes per traced run
IMPORT_REPS = 3
#: no new process is started after this many seconds into a run, and one
#: still running at RUN_LIMIT_S is killed, so that a run ends within the
#: 180 s it may take; the cold CLI runs stop at COLD_CAP_S, which leaves
#: the warm items time for several attempts when items abort
RUN_CAP_S = 150.0
RUN_LIMIT_S = 172.0
COLD_CAP_S = 80.0
#: a process that takes this long (items take 15 s at most) is killed and
#: counted as failed, since heap corruption can hang as well as abort
ITEM_TIMEOUT_S = 60.0

#: worker threads of the drivers' ladder pools (``_MAX_WORKERS`` in
#: ``npeit.experiments``, 8 at the parent commit); see ``pin_pool``
POOL_WORKERS = 1
#: a cold CLI process: ``np-eit`` with its pool pinned first;
#: argv is ``<workers> <subcommand> --config <cfg> --out <dir>``
CLI_LAUNCHER = ("import sys\n"
                "import npeit.experiments as experiments\n"
                "workers = int(sys.argv[1])\n"
                "if workers and hasattr(experiments, '_MAX_WORKERS'):\n"
                "    experiments._MAX_WORKERS = workers\n"
                "from npeit.cli import main\n"
                "sys.exit(main(sys.argv[2:]))\n")

SETUP_PROBE = ("import sys\n"
               "import npeit.cli\n"
               "from npeit.config import load_config\n"
               "for path in sys.argv[1:]:\n"
               "    load_config(path)\n")
#: items whose configs the setup probe parses
SETUP_CONFIGS = 4

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

#: per-layer metrics of the traced run: name -> unit
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "config.parse_s": "s",
    "geometry.curve_s": "s",
    "geometry.scene_s": "s",
    "geometry.hausdorff_s": "s",
    "geometry.contact_s": "s",
    "geometry.calls": "count",
    "green.build_s": "s",
    "layers.build_s": "s",
    "layers.build_calls": "count",
    "layers.unique_build_ratio": "ratio",
    "layers.correction_defect": "1",
    "spectrum.solve_s": "s",
    "spectrum.calls": "count",
    "spectrum.max_residual": "1",
    "spectrum.orthogonality_defect": "1",
    "transmission.solve_s": "s",
    "transmission.solve_calls": "count",
    "transmission.gradient_bound_s": "s",
    "transmission.trace_constant_s": "s",
    "transmission.limit_s": "s",
    "transmission.distance_s": "s",
    "transmission.expansion_s": "s",
    "transmission.flux_residual_max": "1",
    "transmission.route_gap_max": "1",
    "experiments.driver_s": "s",
    "experiments.unattributed_s": "s",
    "experiments.csv_rows": "count",
    "trace.overhead_s": "s",
}
#: span name -> (time metric, call-count metric)
SPAN_METRICS = {
    "geometry.curve": ("geometry.curve_s", "geometry.calls"),
    "geometry.scene": ("geometry.scene_s", "geometry.calls"),
    "geometry.hausdorff": ("geometry.hausdorff_s", "geometry.calls"),
    "geometry.contact": ("geometry.contact_s", "geometry.calls"),
    "green.build": ("green.build_s", None),
    "layers.build": ("layers.build_s", "layers.build_calls"),
    "spectrum.solve": ("spectrum.solve_s", "spectrum.calls"),
    "transmission.solve": ("transmission.solve_s",
                           "transmission.solve_calls"),
    "transmission.gradient_bound": ("transmission.gradient_bound_s", None),
    "transmission.trace_constant": ("transmission.trace_constant_s", None),
    "transmission.limit": ("transmission.limit_s", None),
    "transmission.distance": ("transmission.distance_s", None),
    "transmission.expansion": ("transmission.expansion_s", None),
}


class BenchError(Exception):
    """The run cannot produce its metrics; no result is printed."""


def _no_core_dumps() -> None:
    # an item that aborts must not leave a core file in the
    # checkout (this lowers a limit of the benchmark's own processes only)
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class Run:
    """The bookkeeping of one run: attempts, failures and samples."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 work: Path, pool_workers: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.pool_workers = pool_workers
        self.work = work
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[dict] = []
        self.correct = True
        self._items: dict[int, workloads.Item] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return max(1.0, min(ITEM_TIMEOUT_S, RUN_LIMIT_S - self.elapsed()))

    def item(self, index: int) -> workloads.Item:
        if index not in self._items:
            item = workloads.make_item(self.workload, self.seed, index)
            (self.work / f"{index}.cfg").write_text(item.config)
            self._items[index] = item
        return self._items[index]

    def config_path(self, index: int) -> Path:
        self.item(index)
        return self.work / f"{index}.cfg"

    def attempt(self, item, phase: str, failure: str | None,
                detail: str = "", wrong: bool = False) -> bool:
        """Count one operation; a failure is recorded, never retried."""
        self.attempted += 1
        if failure is None:
            return True
        self.failures.append({"item": item.name, "seed": item.seed,
                              "phase": phase, "failure": failure,
                              "detail": detail})
        if wrong:
            self.correct = False
        return False


# ---------------------------------------------------------------------------
# the parts of a run
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _timed_process(argv, run: Run):
    """Run a process to its end; returns its seconds, its failure (None
    on exit code 0) and the last line of its stderr."""
    start = time.perf_counter()
    timeout = run.timeout()
    try:
        proc = subprocess.run(argv, env=_env(), cwd=run.work,
                              capture_output=True, text=True,
                              timeout=timeout, preexec_fn=_no_core_dumps)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"timeout after {timeout:.0f} s", ""
    seconds = time.perf_counter() - start
    lines = proc.stderr.strip().splitlines()
    tail = lines[-1][:200] if lines else ""
    if proc.returncode == 0:
        return seconds, None, tail
    if proc.returncode < 0:
        sig = signal.Signals(-proc.returncode).name
        return seconds, f"signal {-proc.returncode} ({sig})", tail
    return seconds, f"exit {proc.returncode}", tail


def setup_probe(run: Run) -> float:
    """A fresh interpreter imports npeit.cli and parses the configs."""
    paths = [str(run.config_path(i)) for i in range(SETUP_CONFIGS)]
    seconds, failure, tail = _timed_process(
        [sys.executable, "-c", SETUP_PROBE, *paths], run)
    if failure is not None:
        raise BenchError(f"the setup probe failed ({failure}): {tail}")
    return seconds


def cold_cli(run: Run, rep: int, checks):
    """One ``np-eit <subcommand>`` process per driver of COLD_ITEM, from
    interpreter start to CSV written; returns the seconds or None."""
    item = run.item(COLD_ITEM)
    out = run.work / "cold" / str(rep)
    total = 0.0
    for driver in item.drivers:
        seconds, failure, tail = _timed_process(
            [sys.executable, "-c", CLI_LAUNCHER, str(run.pool_workers),
             driver, "--config", str(run.config_path(COLD_ITEM)), "--out", str(out)],
            run)
        total += seconds
        if failure is not None:
            run.attempt(item, "cold", failure, tail)
            return None
    from npeit.config import parse_config
    problems = checks.check_item(parse_config(item.config), item.control,
                                 _read_csv(out, item.drivers, checks))
    if not run.attempt(item, "cold", _check_failure(problems),
                       "; ".join(problems), wrong=True):
        return None
    return total


def _check_failure(problems) -> str | None:
    return f"check: {problems[0]}" if problems else None


def _read_csv(out: Path, drivers, checks) -> dict[str, str]:
    return {d: (out / checks.CSV_FILES[d]).read_text(encoding="utf-8")
            for d in drivers}


def _untraced_item(job) -> dict:
    """Child: run the item's drivers as the CLI would, then check them."""
    item, out, pool_workers = job
    import checks
    from npeit.config import parse_config
    pin_pool(pool_workers)
    from npeit.experiments import (run_expansion, run_spectrum,
                                   run_stability, run_sweep)
    drivers = {"sweep": run_sweep, "spectrum": run_spectrum,
               "expand": run_expansion, "stability": run_stability}
    config = parse_config(item.config)
    warm_blas(config.n)
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    start = time.perf_counter()
    for driver in item.drivers:
        results[driver] = drivers[driver](config, out)
    seconds = time.perf_counter() - start
    csv = _read_csv(out, item.drivers, checks)
    return {"seconds": seconds,
            "problems": checks.check_item(config, item.control, csv, results)}


def _traced_item(job) -> dict:
    """Child: the item's public calls, serially, with spans."""
    item, _, _ = job
    import replica
    from npeit.config import parse_config
    config = parse_config(item.config)
    warm_blas(config.n)
    tracer = replica.Tracer(item.name)
    info = replica.run_traced(config, item.drivers, tracer)
    return {"spans": tracer.spans, "health": tracer.health, **info}


def in_child(run: Run, fn, index: int, phase: str, rss: list):
    """Run one item in a forked child; returns its result or None."""
    item = run.item(index)
    log = run.work / f"{index}-{phase}.log"
    outcome = isolate.run_in_child(
        fn, (item, run.work / phase / str(index), run.pool_workers),
        str(log), run.timeout())
    rss.append(outcome.peak_rss_mb)
    if not outcome.ok:
        run.attempt(item, phase, outcome.failure, outcome.log_tail)
        return None
    problems = outcome.value.get("problems", [])
    if not run.attempt(item, phase, _check_failure(problems),
                       "; ".join(problems), wrong=True):
        return None
    return outcome.value


def pin_pool(workers: int) -> None:
    """Give the drivers' ladder pools ``workers`` threads (0: as found).

    ``run_sweep`` and ``run_stability`` solve their ladder points on a
    pool of ``_MAX_WORKERS`` threads (8 at the parent commit).  Those
    threads call ``scipy.linalg.lu_solve`` on one shared factorization at
    once, and the heap corruption that follows aborts about half of the
    64-point ladder items (see README.md).  The benchmark pins the pools
    to POOL_WORKERS threads, so that no item fails and each ladder point
    runs the drivers' own code in order; on a 2-core machine 8 pool
    threads would also time the scheduler.  ``--pool-as-found`` runs the
    pools as found and shows the aborts."""
    import npeit.experiments as experiments
    if workers and hasattr(experiments, "_MAX_WORKERS"):
        experiments._MAX_WORKERS = workers


def warm_blas(n: int) -> None:
    """Make the first calls of the dense kernels an item uses, untimed.

    This keeps BLAS first-call costs out of the item's time.  It also
    restarts OpenBLAS's workers, which stop at ``fork``, from the child's
    main thread: with the pools as found (``--pool-as-found``) and the
    restart left to the pool threads of ``run_sweep``, 13 of 15 forked
    ladder items aborted in trials on a 2-core x86-64 machine, against 4
    of 10 with this call and 7 of 14 fresh ``np-eit`` processes."""
    import numpy as np
    import scipy.linalg
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    scipy.linalg.eigh(spd, spd + np.eye(n))
    scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), spd)
    scipy.linalg.solve(spd, a)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(run: Run, checks) -> tuple[dict, dict]:
    """Cold CLI processes of the workload's first item and warm items,
    interleaved through the run so that both see the same drift of
    machine speed.

    The cold runs repeat COLD_ITEM as planned samples and get COLD_SHARE
    of the time; each follows a setup probe.  Every repeat counts as an
    attempt, and the first completed one is the reference for the
    byte-identical check.  The warm worker runs item 0 (the control, where
    the workload has one) first, its time discarded, then items 1, 2, ...
    The run goes on for --seconds and until both kinds have completed.
    """
    setup, cold, timed, rss = [], [], [], []
    cold_spent = warm_spent = 0.0
    cold_reps = warm_index = 0
    while run.elapsed() < RUN_CAP_S:
        if cold and timed and cold_spent + warm_spent >= run.seconds:
            break
        if not cold and run.elapsed() >= COLD_CAP_S:
            break
        start = time.perf_counter()
        if not cold or (
                timed and cold_spent < COLD_SHARE * (cold_spent + warm_spent)):
            setup.append(setup_probe(run))
            seconds = cold_cli(run, cold_reps, checks)
            if seconds is not None:
                if cold:
                    _compare_repeat(run, "cold", cold_reps, cold[0][0])
                cold.append((cold_reps, seconds))
            cold_reps += 1
            cold_spent += time.perf_counter() - start
            continue
        value = in_child(run, _untraced_item, warm_index, "warm", rss)
        if value is not None:
            if warm_index == COLD_ITEM:
                _compare_repeat(run, "warm", COLD_ITEM, cold[0][0])
            if warm_index > 0:
                timed.append((warm_index, value["seconds"]))
        warm_index += 1
        warm_spent += time.perf_counter() - start
    if not cold:
        raise BenchError("no cold CLI process completed the first item")
    if not timed:
        raise BenchError("no warm item completed")
    while len(setup) < SETUP_REPS:
        setup.append(setup_probe(run))

    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "cold_cli_s": (statistics.median(s for _, s in cold), "s", len(cold)),
        "item_s.p50": (statistics.median(s for _, s in timed), "s",
                       len(timed)),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }
    samples = {"setup_s": setup, "cold_cli_s": cold, "item_s": timed,
               "peak_rss_mb": rss}
    return metrics, samples


def _compare_repeat(run: Run, phase: str, rep, reference: int) -> None:
    """A repeat of COLD_ITEM must write the bytes of its first cold run."""
    item = run.item(COLD_ITEM)
    first = run.work / "cold" / str(reference)
    again = run.work / phase / str(rep)
    for path in sorted(first.iterdir()):
        if (again / path.name).read_bytes() != path.read_bytes():
            run.attempt(item, "repeat", f"check: {path.name} differs from "
                        f"the first cold run ({phase} run {rep})",
                        wrong=True)
            return
    run.attempt(item, "repeat", None)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def import_times(run: Run) -> tuple[list[float], list[float]]:
    """``python -X importtime -c "import npeit.cli"``: cumulative import
    time of npeit.cli and of scipy.stats, in seconds."""
    cli, stats = [], []
    for _ in range(IMPORT_REPS):
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import npeit.cli"],
                env=_env(), cwd=run.work, capture_output=True, text=True,
                timeout=run.timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("import probe timed out") from exc
        if proc.returncode != 0:
            raise BenchError("import probe failed: "
                             + proc.stderr.strip()[-300:])
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(.*)$",
                             line)
            if match:
                cumulative[match.group(2).strip()] = int(match.group(1)) / 1e6
        cli.append(cumulative["npeit.cli"])
        stats.append(cumulative.get("scipy.stats", 0.0))
    return cli, stats


def item_layers(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer values of one item from its spans."""
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    attributed = 0.0
    for span in traced["spans"]:
        metric = SPAN_METRICS.get(span["name"])
        if metric is None:
            continue
        seconds = span["end"] - span["start"]
        attributed += seconds
        values[metric[0]] += seconds
        if metric[1] is not None:
            values[metric[1]] += span.get("calls", 1)
    values.update(traced["health"])
    builds = traced["scenes"]
    if builds:
        values["layers.unique_build_ratio"] = (
            len({json.dumps(s) for s in builds}) / len(builds))
    values["experiments.driver_s"] = untraced["seconds"]
    values["experiments.unattributed_s"] = untraced["seconds"] - attributed
    values["experiments.csv_rows"] = traced["rows"]
    values["trace.overhead_s"] = traced["traced_s"] - untraced["seconds"]
    return values


def traced(run: Run, checks) -> tuple[dict, dict]:
    cli, stats = import_times(run)
    from npeit.config import parse_config

    per_item, spans, parse_s = [], [], []
    rss: list[float] = []
    window = time.perf_counter()
    # item 0 is the control or the cold item of the end-to-end run; the
    # traced run, like the timed items, starts at item 1
    for index in itertools.count(1):
        if run.elapsed() >= RUN_CAP_S:
            break
        if per_item and time.perf_counter() - window >= run.seconds:
            break
        text = run.item(index).config
        parse_s.append(statistics.median(
            _time(parse_config, text) for _ in range(3)))
        plain = in_child(run, _untraced_item, index, "untraced", rss)
        layered = in_child(run, _traced_item, index, "traced", rss)
        if layered is not None:
            spans += layered["spans"]
        if plain is not None and layered is not None:
            per_item.append(item_layers(plain, layered))
    if not per_item:
        raise BenchError("no item completed both its untraced and its "
                         "traced run")

    metrics = {name: (statistics.median(v[name] for v in per_item), unit,
                      len(per_item))
               for name, unit in LAYER_METRICS.items()}
    metrics["cli.import_s"] = (statistics.median(cli), "s", len(cli))
    metrics["cli.import_scipy_stats_s"] = (statistics.median(stats), "s",
                                           len(stats))
    metrics["config.parse_s"] = (statistics.median(parse_s), "s",
                                 len(parse_s))
    return metrics, {"per_item": per_item, "spans": spans}


def _time(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def provenance(seed: int, pool_workers: int) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps[key] for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError):  # numpy without the dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "pool_workers": pool_workers or "as found",
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None  # not a git checkout


def report(run: Run, metrics: dict, prov: dict, record_path: Path) -> dict:
    print(f"perfbench {run.workload} seed={run.seed} "
          f"elapsed={run.elapsed():.1f}s")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={count}")
    rate = len(run.failures) / run.attempted
    print(f"  {'error_rate':34s} {rate:14.6g} {'1':6s} "
          f"n={run.attempted} ({len(run.failures)} failed)")
    for fail in run.failures:
        print(f"  FAILED {fail['item']} seed={fail['seed']} "
              f"[{fail['phase']}] {fail['failure']}"
              + (f": {fail['detail']}" if fail["detail"] else ""))
    print(f"  provenance: nproc={prov['nproc']} cpu={prov['cpu']!r} "
          f"python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} "
          f"threads={ {k: v for k, v in prov['thread_env'].items() if v} } "
          f"pool_workers={prov['pool_workers']} "
          f"commit={prov['commit']}")
    print(f"  record: {record_path}")
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          pool_workers: int) -> dict:
    sys.path.insert(0, str(SRC))
    import checks
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        run = Run(workload, seed, seconds, work, pool_workers)
        prov = provenance(seed, pool_workers)
        measure = traced if trace else end_to_end
        metrics, samples = measure(run, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record_path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps({
        "workload": workload, "trace": trace, "seconds": seconds,
        "provenance": prov, "elapsed_s": run.elapsed(),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "attempted": run.attempted, "failures": run.failures,
        "correct": run.correct, "samples": samples,
    }, indent=1))
    return report(run, metrics, prov, record_path.relative_to(ROOT)
                  if record_path.is_relative_to(ROOT) else record_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-as-found", action="store_true",
                        help="leave the drivers' ladder pools as found "
                             "instead of pinning them to one thread; the "
                             "runs then show the lu_solve abort")
    args = parser.parse_args(argv)
    if not (SRC / "npeit" / "cli.py").is_file():
        print(f"perfbench: no np-eit sources under {SRC}; run it from the "
              "root of an np-eit checkout", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    results = {}
    try:
        for name in names:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace),
                                  0 if args.pool_as_found else POOL_WORKERS)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}:{name}": value
                        for wl, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
