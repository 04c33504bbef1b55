"""Seeded input generator for the polytutte benchmark.

    python3 perfbench/gen.py --workload rank-files --seed 1 --out DIR [--size full|tiny]

Writes the workload's input files into DIR together with ``manifest.json``:
the CLI commands to run (argv lists, paths relative to the checkout root),
what to check in each command's output, and the input statistics.  The same
seed always gives the same files.

Inputs come from the package's own seeded generators
(``formulas.random_rank_table`` with a raised size budget and
``hypergraph.random_hypergraph``).  Each workload is a fixed list of slots,
one per file: a ground-set size and a window for the basis count.  A draw
that falls outside every open window of its size is discarded.  Fixing the
slots keeps the total work of a workload nearly the same for every seed, so
that runs with different seeds can be compared.

This runs in its own process, before and apart from the measured one, so
that generation neither costs measured time nor sets the measured memory
high-water mark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from polytutte.core import Polymatroid, RankTable, enumerate_bases
from polytutte.errors import SizeLimitExceeded
from polytutte.formulas import random_rank_table
from polytutte.hypergraph import hypergraph_rank, random_hypergraph

ROOT = Path(__file__).resolve().parent.parent

# Slots per workload: (ground-set size, lowest |B|, highest |B|, files).
# "full" is the measured size; "tiny" is for the self-test.  Narrow windows
# keep each seed's work close to every other seed's.
SLOTS = {
    "basis-files": {
        # Draws with n = 8 rarely have 130 to 200 bases.
        "full": [
            *((n, lo, hi, k) for n in (5, 6, 7) for lo, hi, k in ((100, 115, 4), (115, 130, 3), (130, 150, 3))),
            *((8, lo, hi, k) for lo, hi, k in ((100, 110, 4), (110, 120, 3), (120, 130, 3))),
        ],
        "tiny": [(5, 20, 60, 1), (6, 20, 60, 1)],
    },
    "rank-files": {
        "full": [
            (n, lo, hi, 3)
            for n in (8, 9, 10)
            for lo, hi in ((1000, 1500), (1500, 2200), (2200, 3300), (3300, 5000))
        ],
        "tiny": [(6, 20, 200, 1), (7, 20, 200, 1)],
    },
    "hypergraph-files": {
        # RankTable.validate is O(4^E), so files with E = 11 are few.
        "full": [
            (e, lo, hi, k)
            for e, ks in ((9, (5, 5, 4)), (10, (3, 3, 2)), (11, (1, 1, 1)))
            for (lo, hi), k in zip(((30, 120), (120, 400), (400, 1000)), ks)
        ],
        "tiny": [(5, 3, 60, 1), (6, 3, 60, 1)],
    },
    "suite": {"full": [], "tiny": []},
}

MAX_DRAWS_PER_FILE = 400


def _fill(slots, draw, rng: Random) -> list[tuple[int, object, int]]:
    """Draw objects per ground-set size until every slot window is full.

    ``draw(rng, n, limit)`` returns (object, basis count), or None for a
    draw with more than ``limit`` bases.  Returns (n, object, basis count)
    in slot order.
    """
    out = []
    for n in sorted({s[0] for s in slots}):
        want = [[lo, hi, k] for m, lo, hi, k in slots if m == n]
        limit = max(hi for _, hi, _ in want)
        budget = MAX_DRAWS_PER_FILE * sum(k for _, _, k in want)
        while any(k for _, _, k in want):
            budget -= 1
            if budget < 0:
                raise RuntimeError(f"could not fill the slots for size {n}")
            got = draw(rng, n, limit)
            if got is None:
                continue
            obj, count = got
            for w in want:
                if w[2] and w[0] <= count < w[1]:
                    w[2] -= 1
                    out.append((n, obj, count))
                    break
    return out


def _draw_table(rng: Random, n: int, limit: int):
    table = random_rank_table(
        rng, n, size_budget=10**7, max_weight=3, max_universe=6, allow_translation=False
    )
    try:
        p = enumerate_bases(table, limit)
    except SizeLimitExceeded:
        return None
    return (table, p), len(p)


def _draw_hypergraph(rng: Random, e: int, limit: int):
    h = random_hypergraph(rng, max_vertices=8, max_edges=e)
    if h.num_edges != e or h.num_vertices < 3:
        return None
    values = [hypergraph_rank(h, [k + 1 for k in range(e) if mask >> k & 1]) for mask in range(1 << e)]
    try:
        p = enumerate_bases(RankTable(e, values, validate=False), limit)
    except SizeLimitExceeded:
        return None
    return h, len(p)


def _translate_negative(rng: Random, p: Polymatroid) -> Polymatroid:
    """Shift every coordinate so that its smallest value is -1 or -2."""
    shift = [-min(col) - rng.randint(1, 2) for col in zip(*p.bases)]
    return p.translate(shift)


def _write(out: Path, name: str, data: dict) -> str:
    path = out / name
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return str(path.relative_to(ROOT))


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    rng = Random(f"polytutte-bench/{workload}/{seed}")
    slots = SLOTS[workload][size]
    commands: list[dict] = []
    groups: dict[str, dict] = {}
    stats: dict = {}

    def add(group: str, name: str, argv: list[str]) -> None:
        commands.append({"id": f"{group}.{name}", "group": group, "name": name, "argv": argv})

    if workload == "basis-files":
        drawn = _fill(slots, _draw_table, rng)
        for k, (n, (_, p), count) in enumerate(drawn):
            if k % 2:
                p = _translate_negative(rng, p)
            group = f"b{k:02d}"
            path = _write(out, f"{group}.json", p.to_json())
            groups[group] = {"n": n, "bases": count}
            for cmd in ("tutte", "interior", "exterior"):
                add(group, cmd, [cmd, path, "--method", "both"])
            add(group, "coeffs", ["coeffs", path])
        stats["negative_files"] = len(drawn) // 2
    elif workload == "rank-files":
        drawn = _fill(slots, _draw_table, rng)
        for k, (n, (table, _), count) in enumerate(drawn):
            group = f"r{k:02d}"
            path = _write(out, f"{group}.json", table.to_json())
            groups[group] = {"n": n, "bases": count}
            for cmd in ("tutte", "interior", "exterior"):
                add(group, cmd, [cmd, path])
    elif workload == "hypergraph-files":
        drawn = _fill(slots, _draw_hypergraph, rng)
        for k, (e, h, count) in enumerate(drawn):
            group = f"h{k:02d}"
            path = _write(out, f"{group}.json", h.to_json())
            groups[group] = {"n": e, "bases": count, "vertices": h.num_vertices}
            add(group, "connectivity", ["connectivity", path])
            add(group, "exterior", ["exterior", path, "--method", "both"])
            add(group, "interior", ["interior", path])
            add(group, "coeffs", ["coeffs", path])
        stats["vertices"] = _span(g["vertices"] for g in groups.values())
    else:
        groups["suite"] = {}
        add("suite", "suite", ["--seed", str(seed), "suite"])

    if workload != "suite":
        stats.update(
            files=len(groups),
            n=_span(g["n"] for g in groups.values()),
            bases=_span(g["bases"] for g in groups.values()),
            bases_total=sum(g["bases"] for g in groups.values()),
        )
        if workload == "hypergraph-files":
            stats["E"] = stats.pop("n")
    stats["commands"] = len(commands)
    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "commands": commands,
        "groups": groups,
        "stats": stats,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def _span(values) -> list[int]:
    values = list(values)
    return [min(values), max(values)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    generate(args.workload, args.seed, args.out.resolve(), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
