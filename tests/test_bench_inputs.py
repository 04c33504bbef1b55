"""The benchmark's tiny inputs reproduce their stored output digests.

``perfbench/gen.py`` draws its inputs with the package's seeded generators,
and ``perfbench/expected.json`` stores the sha256 of every command's stdout.
Running the tiny size at seed 1 through ``cli.main`` must give those
digests, so a change to a generator or to one printed byte fails here, not
only in a benchmark run.  Every name that ``perfbench/tracer.py`` wraps must
still exist, or its per-layer metric would read 0.  Nothing is written
under ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polytutte import cli, recursion

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def gen(monkeypatch, tmp_path):
    """perfbench/gen.py, writing into tmp_path and run from there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.chdir(tmp_path)
    return module


@pytest.mark.parametrize("workload", ["basis-files", "rank-files", "hypergraph-files"])
def test_tiny_inputs_reproduce_stored_digests(gen, tmp_path, capsys, workload):
    stored = json.loads((BENCH / "expected.json").read_text())[f"{workload}@tiny"]
    assert stored["seed"] == 1
    manifest = gen.generate(workload, 1, tmp_path, "tiny")
    got = {}
    for cmd in manifest["commands"]:
        recursion.clear_caches()
        code = cli.main(cmd["argv"])
        out = capsys.readouterr().out
        assert code == 0, cmd
        got[cmd["id"]] = hashlib.sha256(out.encode()).hexdigest()
    assert got == stored["digests"]


def test_every_traced_name_exists(tmp_path):
    # install() rebinds module attributes, so it runs in a process of its own
    paths = [str(BENCH.parent / "src"), str(BENCH), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               PYTHONDONTWRITEBYTECODE="1")
    code = "from tracer import Tracer; t = Tracer(); t.install(); print(t.absent)"
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # the root memo is a plain dict, so the tracer's memo counter, a wrapper
    # on the former LRUCache.get, is the one name the program no longer has;
    # every other traced name must exist
    assert run.stdout == "['recursion.LRUCache.get']\n"
