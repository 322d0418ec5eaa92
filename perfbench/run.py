#!/usr/bin/env python3
"""hflsim benchmark: whole `hflsim` commands on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its src/. Each workload writes its config
(the given seed overrides every section seed), then:

  --trace 0  times a fresh interpreter through `import hflsim.cli` plus
             experiments.build_instance (setup_s), and repeats the command
             in a child process for --seconds, checking every output. It
             reports the medians of the end-to-end metrics in
             BENCHMARK.json.
  --trace 1  runs the command a few times untraced, then repeats it under
             perfbench/tracer.py for the rest of --seconds, checks that the
             traced outputs are byte-identical to the untraced ones, and
             reports the per-layer metrics in BENCHMARK.json.

Times are in seconds at a reference speed (see REFERENCE_CAL_S): the
host's speed drifts, and a fixed calibration loop run next to every child
measures the drift. The process and its children are pinned to one CPU.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every output check passed; 2 when
the program or BENCHMARK.json is missing. See perfbench/README.md for
why these workloads and what each layer metric should move.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# The benchmark loads one core from one process: BLAS is pinned to one
# thread in this process and in every child, before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning above)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# The host's speed drifts by tens of percent over minutes, and the drift
# slows every process alike. Each child is therefore bracketed by a fixed
# calibration loop, and its times are scaled to seconds at a reference
# speed: raw seconds * REFERENCE_CAL_S / (mean of the two calibrations).
# REFERENCE_CAL_S is close to the loop's typical time on the 2-core Xeon
# reference host, so reference seconds read close to raw ones there.
CAL_ITERS = 25000
REFERENCE_CAL_S = 0.15

SETUP_REPS = 7              # timed setup interpreters per run (after one warm-up)
MIN_REPS = 3                # command repetitions even when --seconds is short
UNTRACED_REPS_IN_TRACE = 3  # reference runs for byte identity and trace overhead
COMMAND_TIMEOUT_S = 120

RUN_CONFIG = """
[dataset]
classes = 4
dim = 8
samples_per_class = 500
separation = 4.0
clusters_per_class = 2

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 32

[mobility]
edges = 4
side_length = 1000.0
speed = 30.0

[hfl]
eta = 0.1
tau_l = 6
tau_e = 10
cloud_epochs = {epochs}
batch_size = 20

[model]
family = mlp1
l2_reg = 0.0
hidden_width = 16

[output]
directory = {out}
"""

VERIFY_CONFIG = """
[dataset]
classes = 4
dim = 8

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 32
shared_input = true
shared_samples_per_shard = 40

[mobility]
edges = 4
speed = 30.0

[hfl]
eta = 0.05
tau_l = 6
tau_e = 10
cloud_epochs = {epochs}
full_batch = true
record_virtual = true

[model]
family = quadratic
l2_reg = 0.05

[output]
directory = {out}
"""

SWEEP_CONFIG = """
[dataset]
classes = 4
dim = 8
samples_per_class = 500
separation = 4.0
clusters_per_class = 2

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 32

[mobility]
edges = 4
side_length = 200.0
intersection_zone = 10.0

[hfl]
eta = 0.1
tau_l = 6
tau_e = 10
cloud_epochs = {epochs}
batch_size = 20

[model]
family = mlp1
l2_reg = 0.0
hidden_width = 16

[output]
directory = {out}
"""

SWEEP_SPEEDS = (0.0, 30.0)
SWEEP_SEEDS = (1, 2)

SETUP_CODE = """
import sys
import hflsim.cli
from hflsim import config, experiments
cfg = config.load_config(sys.argv[1])
seed = int(sys.argv[2])
cfg.dataset.seed = cfg.partition.seed = cfg.mobility.seed = cfg.hfl.seed = seed
experiments.build_instance(cfg)
"""


@dataclass
class Workload:
    name: str
    template: str
    epochs: int
    command: list           # hflsim subcommand and its fixed arguments
    outputs: tuple          # files the command writes, compared byte for byte
    fleet_runs: int = 1     # training runs of the whole fleet per command
    ceiling_runs: int = 0   # single-vehicle centralized runs per command


WORKLOADS = {
    # scripts/full_scale_run.py: mlp1 minibatch training with mobility
    "train_mlp1_mobile": Workload(
        "train_mlp1_mobile", RUN_CONFIG, 12, ["run"],
        ("metrics.csv", "checkpoint.bin")),
    # scripts/bound_check_demo.py: full-batch shared-input quadratic + bound suite
    "verify_bounds_shared": Workload(
        "verify_bounds_shared", VERIFY_CONFIG, 12, ["verify-bounds"],
        ("bound_report.csv", "bound_summary.json")),
    # scripts/speed_sweep.py: paired speeds x seeds plus the centralized ceiling
    "sweep_speed_paired": Workload(
        "sweep_speed_paired", SWEEP_CONFIG, 5,
        ["sweep-speed", "--speeds", ",".join(f"{v:g}" for v in SWEEP_SPEEDS),
         "--seeds", ",".join(str(s) for s in SWEEP_SEEDS), "--parallel", "1"],
        ("sweep.csv", "sweep_summary.csv", "sweep_manifest.json"),
        fleet_runs=len(SWEEP_SPEEDS) * len(SWEEP_SEEDS), ceiling_runs=1),
}


@dataclass
class Child:
    rc: int
    raw_wall_s: float
    scale: float    # reference seconds per raw second while the child ran
    rss_mb: float

    @property
    def wall_s(self):
        return self.raw_wall_s * self.scale


def calibrate():
    """Seconds for a fixed loop of small numpy calls and Python arithmetic,
    the same kind of work as the simulator's inner loops. It runs no hflsim
    code, so no change to the program can move it."""
    a = np.linspace(-1.0, 1.0, 160).reshape(20, 8)
    b = np.linspace(-1.0, 1.0, 128).reshape(8, 16)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        acc += float(np.tanh(a @ b).sum()) + 0.5 * i
    return time.perf_counter() - t0


class ReferenceClock:
    """Calibrations between children; scale() brackets the child just run."""

    def __init__(self):
        calibrate()  # warm-up
        self.readings = [calibrate()]

    def scale(self):
        self.readings.append(calibrate())
        return REFERENCE_CAL_S / statistics.fmean(self.readings[-2:])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems += [f"{what}: {e}" for e in errors]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path, clock):
    """Run a child to completion; wall time, exit code and its own peak RSS."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, clock.scale(), usage.ru_maxrss / 1024.0)


def digest(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        p = out_dir / name
        h.update(name.encode())
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


# --- output checks: hold for any seed -------------------------------------

def check_run(ctx, out):
    cfg = ctx.cfg
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    errs = []
    if len(rows) != cfg.hfl.cloud_epochs * cfg.hfl.tau_e:
        errs.append(f"{len(rows)} metrics rows, expected {cfg.hfl.cloud_epochs * cfg.hfl.tau_e}")
    for r in rows:
        for col in ("train_loss", "test_accuracy"):
            if r[col] == "" or not math.isfinite(float(r[col])):
                errs.append(f"edge round {r['edge_round']}: {col} = {r[col]!r}")
    state, _ = ctx.engine.read_checkpoint(out / "checkpoint.bin")
    if state.tau != ctx.iterations:
        errs.append(f"checkpoint tau {state.tau}, expected {ctx.iterations}")
    return errs


def check_verify(ctx, out):
    errs = []
    with open(out / "bound_report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != ctx.cfg.hfl.cloud_epochs or any(r["satisfied"] != "true" for r in rows):
        errs.append("bound_report.csv does not hold one satisfied row per cloud epoch")
    with open(out / "bound_summary.json") as f:
        delta = json.load(f)["delta"]
    if abs(delta - ctx.exact_delta) > 1e-10:
        errs.append(f"delta {delta!r} differs from the exact {ctx.exact_delta!r}")
    return errs


def check_sweep(ctx, out):
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    errs = []
    cells = sorted((float(r["speed"]), int(r["seed"])) for r in rows)
    if cells != sorted((v, s) for v in SWEEP_SPEEDS for s in SWEEP_SEEDS):
        errs.append(f"sweep cells {cells}")
    for r in rows:
        if not 0.0 <= float(r["max_test_accuracy"]) <= 1.0:
            errs.append(f"max_test_accuracy {r['max_test_accuracy']} outside [0, 1]")
    return errs


CHECKS = {"train_mlp1_mobile": check_run, "verify_bounds_shared": check_verify,
          "sweep_speed_paired": check_sweep}


class Context:
    """One workload at one seed: its config file, parsed config and checks."""

    def __init__(self, wl, seed):
        from hflsim import analysis, config, engine, experiments
        self.wl, self.seed, self.engine = wl, seed, engine
        self.clock = ReferenceClock()
        self.dir = WORK / wl.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.cfg_path = self.dir / "experiment.cfg"
        self.cfg_path.write_text(wl.template.format(epochs=wl.epochs, out=self.out))
        cfg = config.load_config(str(self.cfg_path))
        cfg.dataset.seed = cfg.partition.seed = cfg.mobility.seed = cfg.hfl.seed = seed
        self.cfg = cfg
        self.iterations = cfg.hfl.cloud_epochs * cfg.hfl.tau_l * cfg.hfl.tau_e
        self.vehicle_steps = (wl.fleet_runs * cfg.partition.vehicles + wl.ceiling_runs) * self.iterations
        if wl.name == "verify_bounds_shared":
            shards = experiments.build_instance(cfg).shards
            sizes = [s.size for s in shards]
            self.exact_delta_m = [float(d) for d in analysis.shared_input_delta_m(shards)]
            self.exact_delta = sum(n / sum(sizes) * d for n, d in zip(sizes, self.exact_delta_m))
        self.reference = None  # digest of the first untraced outputs

    def argv(self, *extra):
        return [*self.wl.command, "--config", str(self.cfg_path), "--seed", str(self.seed), *extra]

    def command(self, tally, prefix, label):
        """One repetition: clean outputs, run, check, compare to the reference."""
        shutil.rmtree(self.out, ignore_errors=True)
        child = spawn(prefix + self.argv(), self.dir / f"{label}.log", self.clock)
        errs = [] if child.rc == 0 else [f"exit code {child.rc}"]
        if not errs:
            try:
                errs = CHECKS[self.wl.name](self, self.out)
            except (OSError, ValueError, KeyError) as e:
                errs = [f"unreadable output: {e!r}"]
            d = digest(self.out, self.wl.outputs)
            if self.reference is None:
                self.reference = d
            elif d != self.reference:
                errs.append("outputs differ from the first untraced run at this seed")
        tally.record(label, errs)
        return child

    def extra_checks(self, tally):
        if self.wl.name == "verify_bounds_shared":
            child = spawn([sys.executable, "-m", "hflsim", *self.argv(
                "--debug-scale-delta", "0.5", "--out", str(self.dir / "scaled"))],
                self.dir / "scaled.log", self.clock)
            tally.record("--debug-scale-delta 0.5",
                         [] if child.rc == 5 else [f"exit code {child.rc}, expected 5"])


def measure_untraced(ctx, seconds, tally):
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(ctx.cfg_path), str(ctx.seed)]
    setups = []
    for i in range(SETUP_REPS + 1):  # the first fills bytecode and page caches
        child = spawn(setup_argv, ctx.dir / "setup.log", ctx.clock)
        tally.record("setup", [] if child.rc == 0 else [f"exit code {child.rc}"])
        if i:
            setups.append(child.wall_s)
    runs = []
    t0 = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - t0 < seconds:
        runs.append(ctx.command(tally, [sys.executable, "-m", "hflsim"], f"rep{len(runs)}"))
    ctx.extra_checks(tally)
    print(f"raw wall_s median {statistics.median(r.raw_wall_s for r in runs):.6g} s; "
          f"calibration median {statistics.median(ctx.clock.readings):.6g} s "
          f"(reference {REFERENCE_CAL_S} s)")
    return {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "vehicle_steps_per_s": statistics.median(ctx.vehicle_steps / r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }, len(runs)


# --- traced runs ------------------------------------------------------------

PERCENTILE_SCALE = {"us": 1e6, "ms": 1e3}


def load_spans(path, scale):
    """Per-name calls and self time of one traced run, in reference seconds."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        nid, parent = z["span_name"], z["span_parent"]
        dur = (z["end"] - z["start"]) * scale
        meta = json.loads(z["meta"].item())
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    rep = {"calls": dict(zip(names, np.bincount(nid, minlength=len(names)).tolist())),
           "self_s": dict(zip(names, np.bincount(nid, weights=self_t, minlength=len(names)).tolist())),
           "durations": {n: dur[nid == i] for i, n in enumerate(names)},
           "counters": dict(meta["counters"], **{"trace.spans": int(dur.size)}),
           "delta_m": meta["delta_m"]}
    return rep


def layer_metric(name, reps, overhead):
    """Value of one per-layer metric named in BENCHMARK.json; 0 where the
    layer never ran on this workload."""
    if name == "trace.overhead_s":
        return overhead
    if name in reps[0]["counters"]:
        return statistics.median(r["counters"][name] for r in reps)
    layer, stat = name.rsplit(".", 1)
    if stat in ("calls", "self_s"):
        return statistics.median(r[stat].get(layer, 0) for r in reps)
    if stat.startswith("call_"):
        unit, pct = stat[len("call_"):].split("_p")
        pooled = np.concatenate([r["durations"].get(layer, np.empty(0)) for r in reps])
        return float(np.percentile(pooled, float(pct))) * PERCENTILE_SCALE[unit] if pooled.size else 0.0
    raise ValueError(f"per-layer metric {name!r} has no known form")


def measure_traced(ctx, seconds, tally, per_layer):
    untraced = [ctx.command(tally, [sys.executable, "-m", "hflsim"], f"untraced{i}")
                for i in range(UNTRACED_REPS_IN_TRACE)]
    tracer = [sys.executable, str(HERE / "tracer.py")]
    reps, walls = [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        spans = ctx.dir / f"spans{len(walls)}.npz"
        child = ctx.command(tally, tracer + [str(spans)], f"traced{len(walls)}")
        walls.append(child.wall_s)
        if not spans.exists():  # the tracer failed before the command ran
            continue
        reps.append(load_spans(spans, child.scale))
        if ctx.wl.name == "verify_bounds_shared":
            estimated = reps[-1]["delta_m"][:1]
            worst = max((abs(a - b) for a, b in zip(*estimated, ctx.exact_delta_m)), default=math.inf)
            tally.record("delta_m exactness",
                         [] if worst <= 1e-10 else [f"max |delta_m - exact| = {worst}"])
    ctx.extra_checks(tally)
    overhead = statistics.median(walls) - statistics.median(c.wall_s for c in untraced)
    if not reps:
        return {m["name"]: 0.0 for m in per_layer}, 0
    return {m["name"]: layer_metric(m["name"], reps, overhead) for m in per_layer}, len(reps)


# --- reporting --------------------------------------------------------------

def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "blas_thread_vars": list(THREAD_VARS), "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "commit": commit}


def run_workload(name, seed, seconds, trace, spec, tally):
    ctx = Context(WORKLOADS[name], seed)
    if trace:
        values, reps = measure_traced(ctx, seconds, tally, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, reps = measure_untraced(ctx, seconds, tally)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"workload {name}: seed {seed}, {reps} {'traced' if trace else 'timed'} repetitions, "
          f"{ctx.vehicle_steps} vehicle-steps each")
    for k, u in units.items():
        print(f"  {k:44s} {values[k]:>16.6g} {u}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    # one CPU for this process, its calibrations and every child
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hflsim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: needs {SRC / 'hflsim'} and {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    tally = Tally()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    for name in names:
        got = run_workload(name, args.seed, args.seconds, args.trace, spec, tally)
        metrics.update(got if len(names) == 1 else {f"{name}.{k}": v for k, v in got.items()})
    for p in tally.problems:
        print(f"CHECK FAILED {p}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} failed)")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
