"""Tests of the benchmark itself, on the tiny ``--smoke`` size of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def _bench(cwd: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("seed", [3, 11])
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace, seed):
    proc = _bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "paper_chain", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_seed(tmp_path):
    sizes = run.WORKLOADS["paper_chain"].smoke
    for name in ("a", "b"):
        run.gen.write_text_inputs(tmp_path / name, 5, sizes)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
    assert files_a == sorted(
        p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
    for rel in files_a:
        if (tmp_path / "a" / rel).is_file():
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
