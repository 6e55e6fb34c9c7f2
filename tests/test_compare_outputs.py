"""tools/compare_outputs.py against records it wrote itself: two runs of one
operation list compare bit-identical, a plane moved in one record is the
worst plane_gap where it was moved, a residual raised in one record is that
side's largest where it was raised, and a changed count exits 1."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def _report(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[Path]:
    """Two records of the exact workload's seed-1 list, each written by its
    own process."""
    out = tmp_path_factory.mktemp("records")
    paths = [out / "first.jsonl", out / "second.jsonl"]
    for path in paths:
        proc = _run("write", "--workload", "exact", "--seed", 1, "--out", path)
        assert proc.returncode == 0, proc.stderr
    return paths


def _edited(path: Path, out: Path, edit) -> tuple[Path, dict]:
    """A copy of the record at path with edit applied to its first 3I6 line
    that has planes; that line, edited."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(r for r in recs if r["label"] == "3I6" and r["count"] > 0)
    edit(rec)
    out.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return out, rec


def test_two_runs_are_identical(records):
    proc = _run("compare", *records)
    assert proc.returncode == 0, proc.stdout
    report = _report(proc)
    assert report["records"] == report["identical_records"] == 940
    assert report["mismatches"] == 0 and report["planes"][0] == report["planes"][1]
    assert report["identical_planes"] == report["planes"][0]
    assert report["worst_plane_gap"] == 0.0 and report["worst_at"] is None
    first, second = report["residual_max_at"]
    assert first == second and first is not None


def test_moved_plane_is_the_worst_gap(records, tmp_path):
    def move(rec):
        rec["planes"][0][3] = float.hex(float.fromhex(rec["planes"][0][3]) + 1e-6)

    moved, rec = _edited(records[1], tmp_path / "moved.jsonl", move)
    proc = _run("compare", records[0], moved)
    assert proc.returncode == 0, proc.stdout
    report = _report(proc)
    assert report["identical_records"] == 939 and report["mismatches"] == 0
    assert report["identical_planes"] == report["planes"][0] - 1
    # the normals agree bit for bit, so the gap is the offsets' difference
    assert abs(report["worst_plane_gap"] - 1e-6) < 1e-12
    assert report["worst_at"] == f"{rec['i']} 3I6"


def test_raised_residual_is_its_sides_largest(records, tmp_path):
    def raise_residual(rec):
        rec["residuals"][0] = float.hex(1e-3)

    raised, rec = _edited(records[1], tmp_path / "raised.jsonl", raise_residual)
    proc = _run("compare", records[0], raised)
    assert proc.returncode == 0, proc.stdout
    report = _report(proc)
    assert report["residual_max"][1] == 1e-3 and report["residual_max"][0] < 1e-3
    first, second = report["residual_max_at"]
    assert second == f"{rec['i']} 3I6" and first != second
    assert f"max 0.001 at {rec['i']} 3I6" in proc.stdout


def test_changed_count_exits_1(records, tmp_path):
    def recount(rec):
        rec["count"] += 1

    changed, rec = _edited(records[1], tmp_path / "changed.jsonl", recount)
    proc = _run("compare", records[0], changed)
    assert proc.returncode == 1
    assert _report(proc)["mismatches"] == 1
    assert f"MISMATCH {rec['i']} 3I6" in proc.stdout
