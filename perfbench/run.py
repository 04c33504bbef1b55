"""The polytutte benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run does three things, each in fresh interpreters:

1. gen.py writes the workload's input files for the seed (untimed);
2. with ``--trace 0``, ``setup_s`` is the median time of
   ``import polytutte.cli`` over several fresh interpreters, after one
   import that fills the bytecode cache;
3. workload.py feeds the inputs through ``polytutte.cli.main`` for
   ``--seconds`` and checks every output.

Workloads (the reasons are in BENCHMARK.json):

  basis-files       40 basis-vector JSON files, n = 5..8, 100-150 bases,
                    half of them translated to negative coordinates;
                    tutte, interior and exterior with --method both, coeffs
  rank-files        36 rank-table JSON files, n = 8..10, 1e3-5e3 bases;
                    tutte, interior and exterior with the default dc method
  hypergraph-files  25 hypergraph JSON files, E = 9..11 hyperedges, at most
                    8 vertices, 30-1000 hypertrees; connectivity, exterior
                    --method both, interior, coeffs
  suite             polytutte --seed N suite, the nine acceptance criteria

Each workload is single-threaded and a closed loop: a command starts when
the previous one has returned.  Times are corrected for other load on the
machine (speed.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced: wall_s, op_s_p50, op_s_p90 (see
workload.py), setup_s, peak_rss_mb (the workload process's ru_maxrss) and
ok_share (the share of commands, or on the suite of criteria, whose output
checked out).  With ``--trace 1`` they are the per-layer ones of
tracer.py.  The line before it carries the input statistics, pass and
sample counts, and any check failures.

Exit status: 0 when every output checked out; 1 when a check failed (the
result line is still printed); 2 when the run could not be made, e.g. in a
tree without ``src/polytutte`` (nothing is printed on stdout).

For the default seed every command's stdout must also match the sha256
stored in expected.json; ``--record`` stores them instead.  ``--size tiny``
and ``--expected`` serve selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("basis-files", "rank-files", "hypergraph-files", "suite")
DEFAULT_SEED = 1
SETUP_IMPORTS = 11
DEADLINE_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

_IMPORT = (
    "import time; t = time.perf_counter(); import polytutte.cli; "
    "print(time.perf_counter() - t); print(polytutte.cli.__file__)"
)


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _python(args: list[str], deadline: float) -> str:
    """Run a fresh interpreter on the checkout's sources; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def measure_setup(deadline: float) -> float:
    times = []
    for k in range(SETUP_IMPORTS + 1):
        seconds, path = _python(["-c", _IMPORT], deadline).split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RunError(f"polytutte was imported from {path}, not from {SRC}")
        if k:  # the first import writes the bytecode cache
            times.append(float(seconds))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--record", action="store_true",
                        help="store the default seed's stdout digests in --expected")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "polytutte" / "cli.py").is_file():
            raise RunError(f"no polytutte sources under {SRC}")
        if args.record and args.seed != DEFAULT_SEED:
            raise RunError(f"--record stores digests of the default seed {DEFAULT_SEED} only")
        # Keep only this run's files of the workload; a traced suite run
        # leaves tens of megabytes of spans.
        for old in (HERE / "work").glob(f"{args.workload}-*"):
            shutil.rmtree(old)
        work = HERE / "work" / f"{args.workload}-{args.seed}-{args.size}"
        work.mkdir(parents=True)
        _python([str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                 "--out", str(work), "--size", args.size], deadline)
        setup_s = None if args.trace else measure_setup(deadline)
        cmd = [str(HERE / "workload.py"), "--manifest", str(work / "manifest.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(work / "result.json")]
        if args.record:
            cmd.append("--record")
        elif args.seed == DEFAULT_SEED:
            cmd += ["--expected", str(args.expected)]
        _python(cmd, deadline)
        result = json.loads((work / "result.json").read_text())
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    if args.record:
        expected = json.loads(args.expected.read_text()) if args.expected.exists() else {}
        expected[f"{args.workload}@{args.size}"] = {"seed": args.seed, "digests": result["digests"]}
        args.expected.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        units = {name: unit for name, unit, _ in METRICS}
    else:
        units = END_TO_END_UNITS
        result["metrics"].update(setup_s=setup_s, ok_share=1 - failed / attempted)
    info = {k: result[k] for k in ("inputs", "passes", "commands", "pass_s", "raw_pass_s", "probe_median_s", "problems", "absent") if k in result}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
