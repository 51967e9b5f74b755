"""The benchmark harness still runs on this tree.

perfbench/run.py --smoke runs every workload once, plain and traced, and
checks each output against perfbench/goldens.json and that the traced
run called analyze.  A src/ change that breaks the harness (a renamed
function it traces, a census that stops calling analyze, a changed
output) fails here, in the default test run, not only in the
benchmark's own tests.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = re.findall(r"^# smoke (\S+): ok$", proc.stdout, flags=re.M)
    assert sorted(ok) == ["analyze-random", "census-csv", "census-json", "verify-default"]
