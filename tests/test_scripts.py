"""Smoke tests of the experiment scripts: each runs as a program, exits 0
and writes its outputs where --out points. The mutation script is only
checked for stale entries, and the output-equality script through its
runner on one small case; CI runs both in full."""

import csv
import importlib.util
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


TINY = """
[dataset]
classes = 3
dim = 4
samples_per_class = 20
[partition]
vehicles = 4
[mobility]
side_length = 200.0
[hfl]
tau_l = 2
tau_e = 2
cloud_epochs = 2
batch_size = 5
"""


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


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_smoke_texts_occur_once():
    # the mutation runs themselves are a CI job of their own; here only
    # every entry's old text is checked, which is cheap
    module = load("mutation_smoke")
    assert len(module.MUTATIONS) >= 8
    assert module.text_problems() == []


def test_same_outputs_runner(tmp_path):
    # one small case under two variants: equal, until one byte of one
    # side's output is flipped
    same = load("same_outputs")
    case = same.Case("tiny", ("run",), TINY, 3, same.RUN.outputs)
    config = same.write_configs([case], tmp_path)[TINY]
    src = os.path.join(SCRIPTS, os.pardir, "src")
    first = same.run(case, config, tmp_path / "first", src)
    other = same.run(case, config, tmp_path / "threads", src, same.VARIANTS["threads"])
    assert first["exit"] == b"0" and first["metrics.csv"]
    assert same.differences(first, other) == []
    flipped = bytearray(other["checkpoint.bin"])
    flipped[-1] ^= 1
    assert same.differences(first, {**other, "checkpoint.bin": bytes(flipped)}) \
        == ["checkpoint.bin"]


def test_same_outputs_missing_file_fails(monkeypatch, capsys):
    # a listed file that no run writes is a failure, though every run
    # agrees that it is absent
    same = load("same_outputs")
    for outputs, code in ((same.RUN.outputs, 0), (("metrics.csv", "never.csv"), 1)):
        case = same.Case("tiny", ("run",), TINY, 3, outputs, variants=("repeat",))
        monkeypatch.setattr(same, "CASES", [case])
        assert same.main([]) == code
    out = capsys.readouterr().out
    assert "same tiny [repeat]" in out and "BAD tiny: exit 0, expected 0; no never.csv" in out


def test_same_outputs_cases_are_well_formed():
    same = load("same_outputs")
    assert len({c.name for c in same.CASES}) == len(same.CASES)
    assert all(c.variants and set(c.variants) <= set(same.VARIANTS) for c in same.CASES)
