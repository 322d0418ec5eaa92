#!/usr/bin/env python3
"""Output equality: every hflsim command in CASES must write the same bytes
under each of its VARIANTS, and with --base, the same bytes as commit REV.

    python3 scripts/same_outputs.py
    python3 scripts/same_outputs.py --base REV

A case is one command: its config (a perfbench workload's, written as
perfbench writes it, or config text, read from a file in configs/), seed,
flags, expected exit code and output files. Where perfbench runs the
command, the flags and the output files are the workload's. Each case
first runs as `python -m hflsim` under one OpenBLAS thread; each of its
variants changes one thing in that run, and everything the run leaves
must be byte-identical to the first: the exit code, stdout and every
output file. The variants are two OpenBLAS threads, the installed
`hflsim` script (not run when no `hflsim` is on PATH), `--parallel 2` for
a sweep, and a plain repeat.

With --base, the src/ of commit REV is unpacked from `git archive` into a
temporary directory (nothing is added to the repository or its worktree
list), every case runs there once as well, and every difference is
reported. Both sides run under the caller's environment: the OpenBLAS
kernel (OPENBLAS_CORETYPE, or the one picked for the CPU) changes output
bytes, so it is not a variant, and a sha256 table holds for one kernel.

The last lines are that table: each output's 12-hex sha256 prefix and
each exit code, on this tree (and on REV). The exit code is 0 when every
comparison is equal and every first run exited as its case expects and
wrote every output file, 1 when not, and 2 when REV is not a commit.
"""

import argparse
import hashlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600



def perfbench_workloads():
    """perfbench/run.py's WORKLOADS: each one's config template, command
    and output files."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it pins the BLAS threads when imported
        spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = perfbench_workloads()
RUN, VERIFY, SWEEP = (WORKLOADS[name] for name in
                      ("train_mlp1_mobile", "verify_bounds_shared", "sweep_speed_paired"))
# the one command perfbench never runs
PARTITION = ("partition-report", "--rounds", "60")
PARTITION_FILES = ("partition.csv", "mobility_trace.csv")

# No perfbench workload verifies a logistic model: the probes' broadcast
# softmax path on a small mobile config with two shard sizes.
LOGISTIC = (ROOT / "configs/logistic.cfg").read_text()

# No perfbench sweep is convex or recorded: the ceiling is the optimum's
# accuracy, and every distinct cell estimates divergence constants.
LOGISTIC_SWEEP = (LOGISTIC.replace("[dataset]\n", "[dataset]\nseparation = 1.0\n")
                  .replace("[hfl]\n", "[hfl]\nrecord_virtual = true\n"))

# No other case runs a convex family's shuffling group: batches of 5 from
# shards of 13 and 14 rows, under both convex families.
LOGISTIC_MINIBATCH = LOGISTIC.replace("[hfl]\n", "[hfl]\nbatch_size = 5\n")
QUADRATIC_MINIBATCH = LOGISTIC_MINIBATCH.replace("family = multinomial_logistic",
                                                 "family = quadratic")

# No other case records a minibatch run: the recording beside a shuffling
# group, on a road with p_turn = 0.3.
RECORDED_MINIBATCH = LOGISTIC_MINIBATCH.replace("[hfl]\n", "[hfl]\nrecord_virtual = true\n")

# No other case splits a round's snapshots: at dim 16, P = 64 and a chunk
# holds 3 of the 5 in-round snapshots, so every round is measured as 3 + 2.
VERIFY_WIDE = VERIFY.template.replace("dim = 8", "dim = 16").format(
    epochs=VERIFY.epochs, out="out")

# The same config with no road: one edge, so partition-report writes no
# mobility trace and every edge id is 0.
LOGISTIC_STATIC = LOGISTIC.replace("edges = 4", "edges = 1")

# No perfbench config mixes shuffling and whole-shard vehicles: the shards
# hold 13 and 12 rows in turn under batch 12, so the step runs both kinds
# of group, and neither group's ids are a run, so both take the copy path.
INTERLEAVED = (ROOT / "configs/interleaved.cfg").read_text()

# On perfbench's verify config epsilon clamps to 1e-12 and the gap bound
# never applies; here all of its conditions hold (the acceptance suite's A4).
GAP_BOUND = (ROOT / "configs/gap_bound.cfg").read_text()
# The same at speed 30, where vehicles change edges and the bound still applies.
GAP_BOUND_30 = GAP_BOUND.replace("speed = 0.0", "speed = 30.0")


# No other case verifies shards of different feature spread: a shard's
# smoothness is 3.6 times the union's, which the recursion check must read.
NON_SHARED = """[dataset]
classes = 4
dim = 4
samples_per_class = 40
seed = 2

[partition]
regime = local_noniid
classes_per_unit = 1
vehicles = 8

[mobility]
edges = 4
side_length = 200.0
intersection_zone = 10.0
speed = 60.0

[hfl]
eta = 0.015
tau_l = 2
tau_e = 3
cloud_epochs = 2

[model]
family = quadratic
l2_reg = 0.05
"""


@dataclass(frozen=True)
class Case:
    name: str
    command: tuple          # subcommand, then its flags
    config: str             # a perfbench workload's name or config text
    seed: int
    outputs: tuple = ()     # files the command writes in --out
    exit: int = 0
    variants: tuple = ("threads",)


@dataclass(frozen=True)
class Variant:
    env: dict = field(default_factory=dict)
    script: bool = False    # the installed hflsim script, not python -m hflsim
    args: tuple = ()


VARIANTS = {
    "threads": Variant(env={"OPENBLAS_NUM_THREADS": "2"}),
    "entry": Variant(script=True),
    "parallel": Variant(args=("--parallel", "2")),  # the last --parallel counts
    "repeat": Variant(),
}

SCALED = ("--debug-scale-delta", "0.5")
NAN_SCALE = ("--debug-scale-delta", "nan")
CASES = [
    # both entry points freeze the import-time objects out of the collector
    Case("run-train-1", RUN.command, RUN.name, 1, RUN.outputs, variants=("entry", "threads")),
    Case("run-train-7", RUN.command, RUN.name, 7, RUN.outputs),
    # record_virtual = true: the trace the bound files are built from
    Case("run-verify-1", RUN.command, VERIFY.name, 1, RUN.outputs + ("virtual_trace.csv",)),
    Case("run-verify-7", RUN.command, VERIFY.name, 7, RUN.outputs + ("virtual_trace.csv",)),
    Case("run-sweep-1", RUN.command, SWEEP.name, 1, RUN.outputs),
    Case("run-sweep-7", RUN.command, SWEEP.name, 7, RUN.outputs),
    Case("verify-1", VERIFY.command, VERIFY.name, 1, VERIFY.outputs),
    Case("verify-7", VERIFY.command, VERIFY.name, 7, VERIFY.outputs),
    # the scaled divergences must fail the checker the same way every time
    Case("verify-scaled-1", [*VERIFY.command, *SCALED], VERIFY.name, 1, VERIFY.outputs,
         exit=5),
    Case("verify-nan", [*VERIFY.command, *NAN_SCALE], VERIFY.name, 1, exit=2,
         variants=("repeat",)),
    Case("verify-logistic-1", VERIFY.command, LOGISTIC, 1, VERIFY.outputs),
    Case("verify-gap-1", VERIFY.command, GAP_BOUND, 1, VERIFY.outputs),
    Case("verify-gap-30-1", VERIFY.command, GAP_BOUND_30, 1, VERIFY.outputs),
    Case("verify-non-shared-1", VERIFY.command, NON_SHARED, 1, VERIFY.outputs,
         variants=("threads", "repeat")),
    # the sweep config has a duplicate pair (speed 0 under edge_noniid), so
    # the pool's one-run-per-schedule grouping meets the serial loop
    Case("sweep-1", SWEEP.command, SWEEP.name, 1, SWEEP.outputs, variants=("parallel",)),
    Case("sweep-7", SWEEP.command, SWEEP.name, 7, SWEEP.outputs, variants=("parallel",)),
    Case("sweep-train-1", SWEEP.command, RUN.name, 1, SWEEP.outputs, variants=("parallel",)),
    Case("sweep-train-7", SWEEP.command, RUN.name, 7, SWEEP.outputs, variants=("parallel",)),
    Case("sweep-logistic-1", SWEEP.command, LOGISTIC_SWEEP, 1, SWEEP.outputs,
         variants=("parallel",)),
    Case("partition-train-1", PARTITION, RUN.name, 1, PARTITION_FILES, variants=("repeat",)),
    Case("partition-train-7", PARTITION, RUN.name, 7, PARTITION_FILES, variants=("repeat",)),
    Case("partition-sweep-1", PARTITION, SWEEP.name, 1, PARTITION_FILES, variants=("repeat",)),
    Case("partition-sweep-7", PARTITION, SWEEP.name, 7, PARTITION_FILES, variants=("repeat",)),
    # uniform placement of an iid fleet that does not divide over the
    # edges, with corner turns: partition.csv's edge ids are the time-0 row
    Case("partition-logistic-1", PARTITION, LOGISTIC, 1, PARTITION_FILES, variants=("repeat",)),
    # the shared-input layout, each vehicle pinned to its edge's side
    Case("partition-verify-1", PARTITION, VERIFY.name, 1, PARTITION_FILES, variants=("repeat",)),
    Case("partition-static-1", PARTITION, LOGISTIC_STATIC, 1, PARTITION_FILES[:1],
         variants=("repeat",)),
    Case("run-interleaved-1", RUN.command, INTERLEAVED, 1, RUN.outputs),
    Case("run-interleaved-7", RUN.command, INTERLEAVED, 7, RUN.outputs),
    Case("run-logistic-minibatch-1", RUN.command, LOGISTIC_MINIBATCH, 1, RUN.outputs),
    Case("run-quadratic-minibatch-1", RUN.command, QUADRATIC_MINIBATCH, 1, RUN.outputs),
    Case("run-recorded-minibatch-1", RUN.command, RECORDED_MINIBATCH, 1,
         RUN.outputs + ("virtual_trace.csv",)),
    Case("run-verify-wide-1", RUN.command, VERIFY_WIDE, 1, RUN.outputs + ("virtual_trace.csv",)),
]


def write_configs(cases, work):
    """One config file per distinct config of cases, under work; returns
    {case.config: path}."""
    paths = {}
    for c in cases:
        if c.config not in paths:
            wl = WORKLOADS.get(c.config)
            paths[c.config] = work / f"config_{len(paths)}.cfg"
            paths[c.config].write_text(
                wl.template.format(epochs=wl.epochs, out=work / "out") if wl else c.config)
    return paths


def run(case, config_path, out, src, variant=Variant()):
    """Run case once with the hflsim of src under variant; returns what it
    left: {"exit": code, "stdout": bytes, file: bytes, or None if absent}.
    A file absent from one run only is a difference."""
    entry = [shutil.which("hflsim")] if variant.script else [sys.executable, "-m", "hflsim"]
    argv = [*entry, case.command[0], "--config", str(config_path), "--seed", str(case.seed),
            "--out", str(out), *case.command[1:], *variant.args]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **variant.env, "PYTHONPATH": path}
    out.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True,
                          timeout=RUN_TIMEOUT_S)
    got = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout}
    for name in case.outputs:
        got[name] = (out / name).read_bytes() if (out / name).exists() else None
    if proc.returncode != case.exit:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return got


def differences(a, b):
    """The names (exit, stdout, files) whose bytes differ between two runs."""
    return [name for name in a if a[name] != b[name]]


def shown(name, value):
    """An exit code as itself, anything else as its 12-hex sha256 prefix."""
    if name == "exit":
        return value.decode()
    return "-" if value is None else hashlib.sha256(value).hexdigest()[:12]


def unpack_src(rev, dest):
    """src/ of commit rev into dest; False when rev names no commit."""
    git = ["git", "-C", str(ROOT)]
    if subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                      capture_output=True).returncode != 0:
        return False
    tar = subprocess.run([*git, "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", metavar="REV", help="also compare against this commit")
    args = ap.parse_args(argv)
    have_script = shutil.which("hflsim") is not None
    compared, differ, bad_runs = 0, 0, 0
    table = [("case", "output", "this tree", *([args.base] if args.base else []))]
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = Path(tmp)
        if args.base and not unpack_src(args.base, work / "base"):
            print(f"error: {args.base!r} is not a commit", file=sys.stderr)
            return 2
        configs = write_configs(CASES, work)
        for case in CASES:
            def once(label, src=ROOT / "src", variant=Variant()):
                return run(case, configs[case.config], work / case.name / label, src, variant)

            first = once("first")
            missing = [name for name in case.outputs if first[name] is None]
            if first["exit"] != str(case.exit).encode() or missing:
                bad_runs += 1
                print(f"BAD {case.name}: exit {first['exit'].decode()}, expected {case.exit}"
                      + "".join(f"; no {name}" for name in missing))
            others = {}
            for name in case.variants:
                if VARIANTS[name].script and not have_script:
                    print(f"not run {case.name} [{name}]: no hflsim script on PATH")
                else:
                    others[name] = once(name, variant=VARIANTS[name])
            if args.base:
                others["base " + args.base] = once("base", src=work / "base" / "src")
            for name, other in others.items():
                compared += 1
                diff = differences(first, other)
                differ += bool(diff)
                print(f"DIFF {case.name} [{name}]: {', '.join(diff)}" if diff
                      else f"same {case.name} [{name}]")
            sides = [first, others["base " + args.base]] if args.base else [first]
            table += [(case.name, name, *(shown(name, side[name]) for side in sides))
                      for name in first]
    print(f"{compared} comparisons, {differ} differ; "
          f"{bad_runs} first runs with an unexpected exit code or a missing file")
    for row in table:
        print("  ".join(f"{c:<{w}}" for c, w in zip(row, (18, 20, 12, 12))).rstrip())
    return 1 if differ or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
