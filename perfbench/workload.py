"""Runs one generated workload through the polytutte CLI, in-process.

    python3 perfbench/workload.py --manifest M --seconds S --trace 0|1 --result OUT
                                  [--expected FILE] [--record]

Each pass calls ``polytutte.cli.main(argv)`` once per command of the
manifest, one after another (a closed loop with one client), with stdout
and stderr captured.  ``recursion.clear_caches()`` runs before every
command, so each starts with a cold memo as a separate CLI process would.
Passes repeat while another one still fits into ``--seconds``; at least one
runs.  Every pass is checked after it ends.  Times are scaled to a fixed
machine speed (see speed.py).  A command's time is its median over the
passes; ``wall_s`` is their sum and ``op_s_p50``/``op_s_p90`` are their
percentiles.  The suite is one command, so there all three are equal.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones (see tracer.py); the per-layer metrics come from
the traced passes, as plain wall time per pass, and
``trace.overhead_share`` compares the two halves' corrected times.

The result (metrics, check failures, input statistics) is written as JSON
to ``--result``; run.py turns it into the benchmark's output line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from polytutte import cli, recursion
from polytutte.bipoly import BiPoly, parse
from polytutte.errors import PolytutteError

from speed import SpeedProbe
from tracer import CRITERIA_COUNT, Tracer

# Criterion lines end in a time that differs from run to run.
_ELAPSED = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)


def digest(stdout: str) -> str:
    return hashlib.sha256(_ELAPSED.sub("", stdout).encode()).hexdigest()


def run_pass(commands: list[dict]) -> tuple[list[tuple[float, float]], list[tuple]]:
    """Run every command once; returns each command's (start, end) and output."""
    intervals, outputs = [], []
    for cmd in commands:
        recursion.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(cmd["argv"])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failure
            code = f"raised {type(exc).__name__}: {exc}"
        intervals.append((start, perf_counter()))
        outputs.append((code, out.getvalue(), err.getvalue()))
    return intervals, outputs


def per_command(speed: SpeedProbe, passes: list[list[tuple[float, float]]]) -> list[float]:
    """Each command's median time over the passes, at the nominal speed."""
    corrected = [[speed.corrected(start, end) for start, end in p] for p in passes]
    return [statistics.median(times) for times in zip(*corrected)]


# -- output checks ---------------------------------------------------------------


def _polys(stdout: str) -> list[BiPoly]:
    """Polynomials printed by tutte/interior/exterior, direct and dc alike."""
    lines = [ln for ln in stdout.splitlines() if ln not in ("MATCH", "MISMATCH")]
    return [parse(ln.split(": ", 1)[-1]) for ln in lines]


def _check_command(cmd: dict, code, stdout: str) -> str | None:
    name = cmd["name"]
    lines = stdout.splitlines()
    if code != 0:
        return f"exit {code}"
    if cmd["argv"][-2:] == ["--method", "both"] and lines[-1:] != ["MATCH"]:
        return "direct and dc differ"
    if name == "coeffs":
        rows = lines[:-1]
        if not rows or not all(r.endswith("[OK]") for r in rows) or lines[-1] != f"{len(rows)}/{len(rows)} match":
            return "coefficient rows mismatch"
    if name == "connectivity":
        for ln in lines[1:]:
            actual, ceiling = ln.split(": ", 1)[1].split(" = ")
            if actual != ceiling:
                return f"ceiling row {ln!r}"
    return None


def _check_group(name_to_out: dict[str, str], bases: int) -> str | None:
    """T(1,1) = I(1) = X(1) = |B| across the commands of one input file;
    the connectivity rows must repeat the exterior coefficients."""
    values = set()
    for name in ("tutte", "interior", "exterior"):
        if name in name_to_out:
            values.update(p.evaluate(1, 1) for p in _polys(name_to_out[name]))
    if values != {bases}:
        return f"T(1,1), I(1), X(1) give {sorted(values)}, expected {bases}"
    if "connectivity" in name_to_out and "exterior" in name_to_out:
        x = _polys(name_to_out["exterior"])[0]
        for ln in name_to_out["connectivity"].splitlines()[1:]:
            power, actual = ln.split(": ", 1)[0], ln.split(": ", 1)[1].split(" = ")[0]
            if x.coeff(0, int(power[2:])) != int(actual):
                return f"connectivity row {ln!r} disagrees with the exterior polynomial"
    return None


def _check_suite(code, stdout: str) -> int:
    """Number of criteria that failed, out of the nine."""
    passed = sum(ln.startswith("[PASS]") for ln in stdout.splitlines())
    failed = max(CRITERIA_COUNT - passed, 0)
    if not failed and (code != 0 or not stdout.endswith(f"{passed}/{CRITERIA_COUNT} criteria passed\n")):
        failed = 1
    return failed


def check_pass(manifest: dict, outputs: list[tuple], digests: dict | None) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems) for one pass."""
    commands = manifest["commands"]
    if manifest["workload"] == "suite":
        code, stdout, stderr = outputs[0]
        failed = _check_suite(code, stdout)
        problems = [f"suite: {failed} criteria failed: {stdout}{stderr}"] if failed else []
        if digests is not None and digests.get("suite.suite") != digest(stdout):
            problems.append("suite: stdout digest differs from the stored one")
            failed = max(failed, 1)
        return CRITERIA_COUNT, failed, problems
    bad: dict[str, str] = {}
    by_group: dict[str, dict[str, str]] = {}
    for cmd, (code, stdout, stderr) in zip(commands, outputs):
        try:
            problem = _check_command(cmd, code, stdout)
        except (ValueError, IndexError, PolytutteError) as exc:
            problem = f"unreadable output: {exc}"
        if problem is None and digests is not None and digests.get(cmd["id"]) != digest(stdout):
            problem = "stdout digest differs from the stored one"
        if problem:
            bad[cmd["id"]] = f"{problem} {stderr.strip()}".strip()
        by_group.setdefault(cmd["group"], {})[cmd["name"]] = stdout
    for group, outs in by_group.items():
        try:
            problem = _check_group(outs, manifest["groups"][group]["bases"])
        except (ValueError, IndexError, PolytutteError) as exc:
            problem = f"unreadable output: {exc}"
        if problem:
            for cmd in commands:
                if cmd["group"] == group:
                    bad.setdefault(cmd["id"], problem)
    return len(commands), len(bad), [f"{k}: {v}" for k, v in bad.items()]


# -- main ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--expected", type=Path)
    parser.add_argument("--record", action="store_true", help="store digests instead of checking")
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    commands = manifest["commands"]
    digests = None
    if args.expected is not None and not args.record:
        entry = json.loads(args.expected.read_text()).get(f"{manifest['workload']}@{manifest['size']}")
        if entry is None or entry["seed"] != manifest["seed"]:
            raise SystemExit(f"no stored digests for {manifest['workload']} at seed {manifest['seed']}")
        digests = entry["digests"]

    tracer = Tracer() if args.trace else None
    phases = [("untraced", args.seconds / 2), ("traced", args.seconds)] if tracer else [("untraced", args.seconds)]
    # Per phase, one list per pass of each command's (start, end).
    command_spans: dict[str, list] = {"untraced": [], "traced": []}
    raw_walls: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    outputs: list[tuple] = []
    start = perf_counter()
    with SpeedProbe() as speed:
        for phase, until in phases:
            if phase == "traced":
                tracer.install()
            while True:
                intervals, outputs = run_pass(commands)
                raw_walls.append(intervals[-1][1] - intervals[0][0])
                command_spans[phase].append(intervals)
                done, bad, why = check_pass(manifest, outputs, digests)
                attempted += done
                failed += bad
                problems.extend(why)
                if perf_counter() - start + raw_walls[-1] > until:
                    break

    ops = per_command(speed, command_spans["untraced"])
    wall_s = sum(ops)
    result: dict = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": {k: len(v) for k, v in command_spans.items() if v},
        "inputs": manifest["stats"],
        "commands": len(ops),
        "raw_pass_s": raw_walls,
        "pass_s": {k: [sum(speed.corrected(a, b) for a, b in p) for p in v] for k, v in command_spans.items() if v},
        "probe_median_s": statistics.median(speed.durations),
    }
    if args.record:
        result["digests"] = {cmd["id"]: digest(out[1]) for cmd, out in zip(commands, outputs)}
    if tracer is None:
        result["metrics"] = {
            "wall_s": wall_s,
            "op_s_p50": statistics.median(ops),
            # The suite has one command, which is its own percentile.
            "op_s_p90": statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = tracer.layer_metrics(len(command_spans["traced"]))
        metrics["trace.overhead_share"] = sum(per_command(speed, command_spans["traced"])) / wall_s - 1
        result["metrics"] = metrics
        result["absent"] = tracer.absent
        tracer.write_spans(args.result.with_name("spans.tsv"))
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
