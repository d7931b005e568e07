"""Time the start of fresh np-eit processes: imports, config parsing and
cold CLI runs on the shipped configs.

Three kinds of probe each run in a fresh interpreter, timed from outside
with the stdlib clock, from process start to exit:

* ``import npeit.cli``;
* that import plus ``load_config`` on every ``configs/*.cfg``;
* ``np-eit <subcommand> --config <cfg> --out <dir>`` for each shipped
  config and each subcommand it supports (``stability`` needs pairs).

The probes of one repeat run back to back, so all of them see the same
drift of machine speed.  The script writes the medians, the repeat count,
the machine and the library versions to a JSON record::

    python bench/startup.py                    # 5 repeats
    python bench/startup.py --repeats 1 --out /tmp/BENCH_startup.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ladder import ROOT, environment  # also puts ROOT/src on sys.path

from npeit.cli import _COMMANDS
from npeit.config import load_config

CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
LOAD_CONFIGS = ("import sys\n"
                "from npeit.config import load_config\n"
                "for path in sys.argv[1:]:\n"
                "    load_config(path)\n")
CLI = ("import sys\n"
       "from npeit.cli import main\n"
       "sys.exit(main(sys.argv[1:]))\n")


def probes(out: Path) -> dict[str, list[str]]:
    """Probe name -> the arguments of its interpreter."""
    runs = {"import npeit.cli": ["-c", "import npeit.cli"],
            "import npeit.cli + load_config": [
                "-c", "import npeit.cli\n" + LOAD_CONFIGS,
                *map(str, CONFIGS)]}
    for path in CONFIGS:
        config = load_config(path)
        for command in _COMMANDS:
            if command == "stability" and not config.stability_pairs:
                continue
            runs[f"np-eit {command} {path.name}"] = [
                "-c", CLI, command, "--config", str(path),
                "--out", str(out / path.stem)]
    return runs


def time_process(args: list[str]) -> float:
    """Wall time of one fresh interpreter, which must exit with 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"probe {args[2:]} exited {proc.returncode}: "
                         + proc.stderr.strip()[-300:])
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_startup.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as out:
        runs = probes(Path(out))
        samples = {name: [] for name in runs}
        for _ in range(args.repeats):
            for name, probe in runs.items():
                samples[name].append(time_process(probe))
    results = {}
    for name, values in samples.items():
        results[name] = {"median_s": statistics.median(values),
                         "min_s": min(values), "max_s": max(values)}
        print(f"{name}: median {results[name]['median_s']:.4f} s")
    record = {
        "benchmark": "fresh np-eit processes: import npeit.cli, config "
                     "parsing, cold CLI runs on configs/*.cfg",
        "repeats": args.repeats,
        "results": results,
        **environment(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
