import csv
import hashlib
import json
from pathlib import Path

import pytest

from richgit import GrassCtx, census
from richgit.cli import main, to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinimal:
    def test_text_golden(self, capsys):
        code, out, err = run_cli(capsys, "minimal", "-k", "4", "-n", "9")
        assert code == 0
        assert out == "w_min = (3,5,7,9)  v_min = (1,3,5,7)\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "minimal", "-k", "2", "-n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"k": 2, "n": 5, "w_min": [3, 5], "v_min": [1, 3], "a": [3, 5]}


class TestAnalyze:
    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9",
            "--v", "1,2,3,5", "--w", "3,5,7,9", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "SINGULAR"
        assert data["smooth_by_components"] is False
        assert data["smooth_by_pattern"] is False
        assert data["has_semistable"] is True
        assert {
            "k", "n", "v", "w", "nonempty", "has_semistable", "dimension",
            "components", "smooth_by_components", "smooth_by_pattern", "verdict",
        } == set(data)
        assert all(
            set(c) == {"v", "w", "source", "has_semistable"} for c in data["components"]
        )

    def test_not_coprime_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "6", "--v", "1,2,3,4", "--w", "3,4,5,6",
        )
        assert code == 2
        assert out == ""
        assert "error: k=4 and n=6 are not coprime" in err

    def test_invalid_tuple_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9", "--v", "3,5,5,9", "--w", "3,5,7,9",
        )
        assert code == 2
        assert "position 3" in err

    def test_empty_pair_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9", "--v", "4,5,6,7", "--w", "3,5,7,9",
        )
        assert code == 2
        assert "empty" in err

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9",
            "--v", "2,4,5,7", "--w", "3,5,7,9", "--format", "json",
        )
        assert to_json(json.loads(out)) == out

    def test_unparseable_tuple_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "-k", "4", "-n", "9", "--v", "1,2,x", "--w", "3,5,7,9"])
        assert exc.value.code == 2


class TestRenderAndSingular:
    def test_render_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "-k", "4", "-n", "9", "--v", "2,4,5,7", "--w", "3,5,7,9"
        )
        assert code == 0
        assert out == "vvv##\nvv##.\nvv#..\nv#...\n"

    def test_singular_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "singular", "-k", "4", "-n", "9", "--v", "2,4,5,7", "--w", "3,5,7,9"
        )
        assert code == 0
        assert "SCHUBERT_SIDE v=(2,4,5,7) w=(3,4,5,9)" in out
        assert "OPPOSITE_SIDE v=(2,4,7,8) w=(3,5,7,9)" in out

    def test_singular_works_without_coprimality(self, capsys):
        # the diagram machinery has no gcd precondition
        code, out, _ = run_cli(
            capsys, "singular", "-k", "4", "-n", "6", "--v", "1,2,3,4", "--w", "3,4,5,6"
        )
        assert code == 0
        assert "smooth" in out


class TestCensus:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "k,n,v,w,dimension,has_semistable,smooth\n"
            '2,3,"1,2","2,3",2,true,true\n'
        )

    def test_csv_lexicographic_order(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,n,v,w,dimension,has_semistable,smooth"
        rows = [line.split(",", 2)[2] for line in lines[1:]]
        assert rows == sorted(rows)
        assert len(rows) == 4

    @pytest.mark.parametrize("k,n", [(3, 8), (4, 9)])
    def test_csv_rows_match_census(self, capsys, k, n):
        code, out, _ = run_cli(capsys, "census", "-k", str(k), "-n", str(n), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        rep = census(GrassCtx(k, n))
        assert len(rows) == rep.total_pairs
        assert sum(row["smooth"] == "true" for row in rows) == rep.smooth_count
        pairs = [
            (tuple(map(int, row["v"].split(","))), tuple(map(int, row["w"].split(","))))
            for row in rows
        ]
        assert pairs == sorted(set(pairs))

    def test_csv_not_coprime(self, capsys):
        code, out, err = run_cli(capsys, "census", "-k", "2", "-n", "4", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "not coprime" in err

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "census", "-k", "4", "-n", "9", "--format", "json")
        assert to_json(json.loads(out)) == out

    def test_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "5")
        assert code == 0
        assert out == (
            "census of G(2,5):\n"
            "  total_pairs: 4\n"
            "  smooth_count: 4\n"
            "  singular_count: 0\n"
            "  pattern mismatches: 0\n"
            "  oracle mismatches: 0\n"
        )

    def test_full_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "-k", "4", "-n", "9", "--full"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --full" in capsys.readouterr().err


class TestVerify:
    def test_clean_context_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "4,9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert len(data["examples"]) == 4

    def test_divergent_context_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "3,8")
        assert code == 1
        assert "passed: false" in out

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "2,3", "--ctx", "2,5")
        assert code == 0
        assert "G(2,3): pairs=1 smooth=1 singular=0 [ok]" in out
        assert "passed: true" in out


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["minimal", "-k", "4", "-n", "9", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["w_min"] == [3, 5, 7, 9]

    def test_unwritable_target_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "minimal", "-k", "4", "-n", "9", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()
        assert not target.parent.exists()


SMOKE_GOLDENS = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "goldens.json").read_text()
)["smoke_cli"]


@pytest.mark.parametrize("name", sorted(SMOKE_GOLDENS))
def test_smoke_golden_bytes(capsys, name):
    # the benchmark checks these same digests; this keeps them in tier-1
    golden = SMOKE_GOLDENS[name]
    code, out, _ = run_cli(capsys, *golden["argv"])
    data = out.encode("utf-8")
    assert code == golden["exit"]
    assert len(data) == golden["bytes"]
    assert hashlib.sha256(data).hexdigest() == golden["sha256"]
