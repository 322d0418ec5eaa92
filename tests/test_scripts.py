"""The config catalog and the scripts. Every catalog file runs, at two
cloud epochs, the command its first line gives. The mutation script is
only checked for stale entries, and the output-equality script through
its runner on one small case; CI runs both in full."""

import ast
import csv
import importlib.util
import os
import shlex
from glob import glob

import pytest

from hflsim import cli, config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")
CATALOG = sorted(glob(os.path.join(ROOT, "configs", "*.cfg")))


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


def rows(path):
    with open(path) as f:
        return list(csv.reader(f))


@pytest.mark.parametrize("path", CATALOG, ids=os.path.basename)
def test_catalog_file_runs_its_command(path, tmp_path, capsys):
    # the first line is the command README lists; here it runs on the file
    # with cloud_epochs cut to 2 and --out in tmp_path
    with open(path) as f:
        command = f.readline().removeprefix("# ").strip()
    with open(os.path.join(ROOT, "README.md")) as f:
        assert command in f.read()
    name, *argv = shlex.split(command)
    assert name == "hflsim"
    at = argv.index("--config") + 1
    assert argv[at] == "configs/" + os.path.basename(path)
    cfg = config.load_config(path)
    config.validate(cfg)
    K = cfg.hfl.cloud_epochs = min(cfg.hfl.cloud_epochs, 2)
    argv[at] = str(tmp_path / "small.cfg")
    (tmp_path / "small.cfg").write_text(config.serialize_config(cfg))
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    if argv[0] == "run":
        assert len(rows(out / "metrics.csv")) == 1 + K * cfg.hfl.tau_e
        assert (out / "checkpoint.bin").exists()
    elif argv[0] == "verify-bounds":
        assert capsys.readouterr().out.count("all bound inequalities hold") == 1
        assert len(rows(out / "bound_report.csv")) == 1 + K
        assert (out / "bound_summary.json").exists()
    else:
        assert argv[0] == "sweep-speed"
        speeds, seeds = (argv[argv.index(o) + 1].split(",") for o in ("--speeds", "--seeds"))
        assert [r[:2] for r in rows(out / "sweep.csv")[1:]] \
            == [[str(float(v)), s] for v in speeds for s in seeds]
        for name in ("sweep_summary.csv", "sweep_manifest.json"):
            assert (out / name).exists()


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


def test_mutation_smoke_nodes_resolve():
    # every entry's node names a class or def of its test file, so a
    # renamed test shows here and not only in a full mutation run
    module = load("mutation_smoke")
    missing = []
    for m in module.MUTATIONS:
        path, *names = m.node.split("::")
        with open(os.path.join(ROOT, path)) as f:
            body = ast.parse(f.read()).body
        for name in names:
            name = name.split("[")[0]  # a parametrized node's id
            node = next((d for d in body if isinstance(d, (ast.ClassDef, ast.FunctionDef))
                         and d.name == name), None)
            if node is None:
                missing.append(m.node)
                break
            body = node.body
    assert missing == []


def test_same_outputs_runner(tmp_path):
    # one small case under two variants: equal, until one byte of one
    # side's output is flipped
    same = load("same_outputs")
    case = same.Case("tiny", ("run",), TINY, 3, same.RUN.outputs)
    config = same.write_configs([case], tmp_path)[TINY]
    src = os.path.join(ROOT, "src")
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
