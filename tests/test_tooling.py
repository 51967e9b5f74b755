"""The test tooling itself: failure reports and the mutation check."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_property_prints_its_example(tmp_path):
    # under the repo's filterwarnings = ["error"], Hypothesis's failure
    # report must not die on a third-party warning as it is written
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_fails(x):
                assert x < 10
            """
        )
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_fails(" in out and "x=10," in out, out
    assert "INTERNALERROR" not in out, out


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_check_kills_a_known_mutant(tmp_path):
    # the flipped comparison in clause A, run against the clause lemma only;
    # the unmutated copy must pass the same tests, or every mutant would die
    mutate = load_mutate()
    path = "src/richgit/criteria.py"
    source = (ROOT / path).read_text(encoding="utf-8").splitlines()
    line = source.index("        if b[j] > x + 1 and x >= a[j]:") + 1
    [mutant] = [m for m in mutate.mutants(ROOT, path) if m.line == line and m.old == ">="]
    assert mutant.new == ">"
    copy = mutate.copy_checkout(ROOT, tmp_path)
    tests = ["tests/test_criteria.py::TestClauses"]
    assert mutate.run(copy, None, tests, timeout=120) == "survived"
    assert mutate.run(copy, mutant, tests, timeout=120) == "killed"
    assert (copy / path).read_bytes() == (ROOT / path).read_bytes()
