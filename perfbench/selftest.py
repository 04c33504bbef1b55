"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py with ``--size tiny``,
untraced and traced, and checks that the result line names every
end-to-end or per-layer metric with its unit.  It then checks that a
corrupted stored digest makes a run fail, and that a tree holding only the
benchmark makes run.py fail without printing a result.  Takes about a
minute, most of it in the suite, which has no tiny size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work" / "selftest"


def run(workload: str, trace: int, *extra: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(workload: str, trace: int, wanted: list[dict]) -> None:
    code, lines = run(workload, trace)
    assert code == 0, (workload, trace, code, lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}, (workload, trace, printed)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def check_corrupted_digest() -> None:
    expected = json.loads((HERE / "expected.json").read_text())
    digests = expected["rank-files@tiny"]["digests"]
    first = sorted(digests)[0]
    digests[first] = "0" * 64
    corrupted = WORK / "expected.json"
    corrupted.write_text(json.dumps(expected))
    code, lines = run("rank-files", 0, "--expected", str(corrupted))
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1, (code, lines)


def check_bare_tree() -> None:
    bare = WORK / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    code, lines = run("rank-files", 0, root=bare)
    assert code != 0 and not lines, (code, lines)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(workload, 0, bench["end_to_end"])
        check_metrics(workload, 1, bench["per_layer"])
        print(f"ok: {workload} prints every metric with its unit")
    check_corrupted_digest()
    print("ok: a corrupted digest fails the run")
    check_bare_tree()
    print("ok: a tree without the program fails without a result")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
