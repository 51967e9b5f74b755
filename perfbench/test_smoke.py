"""The benchmark's own tests, so the harness cannot rot silently.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import CLI_WORKLOADS, draw, load_goldens

HERE = Path(__file__).resolve().parent


def bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    script = cwd / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_mode_checks_every_workload():
    proc = bench("--smoke", cwd=HERE.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 4


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census-csv", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_changed_output_counts_as_failed():
    run.check_checkout()
    goldens = load_goldens()
    workload = run.CliWorkload("census-json", True, goldens)
    _, failed = workload.run()
    assert failed == 0
    workload.golden = dict(workload.golden, sha256="0" * 64)
    _, failed = workload.run()
    assert failed == 1


def test_draw_depends_only_on_the_seed():
    assert draw(3, 0, 5) == draw(3, 0, 5)
    assert draw(3, 0, 5) != draw(4, 0, 5)
    assert len(set(draw(3, 0, 5))) == 30


def test_goldens_cover_every_cli_workload():
    goldens = load_goldens()
    assert set(goldens["cli"]) == set(goldens["smoke_cli"]) == set(CLI_WORKLOADS)
    assert goldens["cli"]["census-json"]["mismatches"] == 4171
