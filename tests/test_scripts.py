"""Smoke tests of the experiment scripts: each runs as a program, exits 0
and writes its outputs where --out points."""

import csv
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def script(name, *args, cwd):
    # the scripts put src/ on sys.path themselves
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_bound_check_demo(tmp_path):
    proc = script("bound_check_demo.py", "--epochs", "2", "--out", str(tmp_path / "b"),
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("all bound inequalities hold") == 2
    for speed in ("v0", "v30"):
        with open(tmp_path / "b" / speed / "bound_report.csv") as f:
            assert len(list(csv.reader(f))) == 1 + 2
        assert (tmp_path / "b" / speed / "bound_summary.json").exists()


def test_full_scale_run(tmp_path):
    proc = script("full_scale_run.py", "--epochs", "2", "--out", str(tmp_path / "f"),
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "f" / "metrics.csv") as f:
        assert len(list(csv.reader(f))) == 1 + 2 * 10
    assert (tmp_path / "f" / "checkpoint.bin").exists()


@pytest.mark.slow
def test_speed_sweep(tmp_path):
    proc = script("speed_sweep.py", "--speeds", "0,30", "--seeds", "1",
                  "--out", str(tmp_path / "s"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "s" / "sweep.csv") as f:
        assert [r[:2] for r in list(csv.reader(f))[1:]] == [["0.0", "1"], ["30.0", "1"]]
    for name in ("sweep_summary.csv", "sweep_manifest.json"):
        assert (tmp_path / "s" / name).exists()
