"""Command-line entry point.

Subcommands: run, sweep-speed, verify-bounds, partition-report. All file
outputs go through a temp-file-plus-rename protocol so an interrupted
command never leaves a partially written artifact.

Exit codes: 0 success, 2 configuration error (including a non-convex
family passed to verify-bounds), 3 training divergence, 4 I/O error,
5 bound-inequality violation.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import datasets, experiments
from .config import ConfigError, load_config, serialize_config, validate
from .engine import DivergenceError, config_hash, write_checkpoint
from .models import UnsupportedModelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_VIOLATION = 5


@contextmanager
def _replacing(path):
    """A fresh temp file beside path, with the mode open() would give it,
    for the block to write. A clean exit renames it onto path; any failure
    unlinks it, so path is only ever absent, old or whole."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        umask = os.umask(0)  # reading the umask means setting it; put it back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _cell(v):
    """The one cell rule of every CSV file: a float (numpy scalars
    included) as its repr, which reads back exact; NaN and None as an
    empty cell; a bool as true/false; anything else as str."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "" if v != v else repr(float(v))
    return str(v)


def atomic_write_csv(path, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(_cell, row) for row in rows)
    atomic_write_text(path, buf.getvalue())


def to_json(obj):
    """Strict JSON: a non-finite float is written as null, via a round trip
    that parses NaN/Infinity to None and reads every finite float back exact."""
    tree = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.dataset.seed = cfg.partition.seed = cfg.mobility.seed = cfg.hfl.seed = args.seed
    if args.out is not None:
        cfg.output.directory = args.out
    validate(cfg)
    return cfg


def cmd_run(args):
    cfg = _load(args)
    out = cfg.output.directory
    res = experiments.run_instance(experiments.build_instance(cfg))
    for row in res.metrics:
        if row.edge_round % cfg.hfl.tau_e == 0:
            acc = "" if row.test_accuracy != row.test_accuracy else f" acc={row.test_accuracy:.4f}"
            print(f"cloud epoch {row.cloud_epoch}: loss={row.train_loss:.6f}{acc}")
    rows = [["cloud_epoch", "edge_round", "iteration", "train_loss", "test_accuracy",
             "u_vtilde_gap", "edge_membership_counts"]]
    rows += [[r.cloud_epoch, r.edge_round, r.iteration, r.train_loss, r.test_accuracy,
              r.u_vtilde_gap, ";".join(map(str, r.membership_counts))] for r in res.metrics]
    atomic_write_csv(os.path.join(out, "metrics.csv"), rows)
    tr = res.trace
    if tr is not None:
        rows = [["iteration", "gap_u_vtilde", "gap_u_v", "s_vehicle", "s_edge"]]
        rows += zip(range(tr.total_iterations + 1), tr.gap_u_vtilde, tr.gap_u_v,
                    tr.s_vehicle, tr.s_edge)
        atomic_write_csv(os.path.join(out, "virtual_trace.csv"), rows)
    # the hash names the experiment, not where its files were written
    cfg_hash = config_hash(serialize_config(cfg, exclude=("output",)))
    with _replacing(os.path.join(out, "checkpoint.bin")) as tmp:
        write_checkpoint(tmp, res.final_state, cfg_hash)
    return EXIT_OK


def _parse_list(text, typ, option):
    try:
        return [typ(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError([f"{option} expects comma-separated {typ.__name__} values, "
                           f"got {text!r}"]) from None


def cmd_sweep_speed(args):
    cfg = _load(args)
    speeds = _parse_list(args.speeds, float, "--speeds")
    seeds = _parse_list(args.seeds, int, "--seeds")
    out = cfg.output.directory
    manifest_path = os.path.join(out, "sweep_manifest.json")
    done = []

    def on_cell(cell):
        done.append({"speed": cell.speed, "seed": cell.seed,
                     "max_test_accuracy": cell.max_test_accuracy})
        atomic_write_text(manifest_path, to_json({"completed": done}))
        print(f"speed={cell.speed:g} seed={cell.seed}: "
              f"max_acc={cell.max_test_accuracy:.4f}")

    result = experiments.sweep_speed(cfg, speeds, seeds, parallel=args.parallel,
                                     on_cell=on_cell)
    rows = [["speed", "seed", "max_test_accuracy",
             *(f"rounds_to_{f:g}x" for f in result.target_fractions),
             "delta_first_quarter_mean", "delta_last_quarter_mean"]]
    rows += [[c.speed, c.seed, c.max_test_accuracy, *c.rounds_to_target,
              c.delta_first_quarter, c.delta_last_quarter] for c in result.cells]
    atomic_write_csv(os.path.join(out, "sweep.csv"), rows)
    rows = [["speed", "mean_max_accuracy", "std_max_accuracy"]]
    rows += [[v, result.mean_max_accuracy(v),
              np.std([c.max_test_accuracy for c in result.cells if c.speed == v])]
             for v in result.speeds]
    atomic_write_csv(os.path.join(out, "sweep_summary.csv"), rows)
    meta = {"ceiling": result.ceiling, "targets": result.targets,
            "target_fractions": result.target_fractions, "completed": done}
    atomic_write_text(manifest_path, to_json(meta))
    return EXIT_OK


def cmd_verify_bounds(args):
    cfg = _load(args)
    suite = experiments.verify_bounds(cfg, delta_scale=args.debug_scale_delta)
    out = cfg.output.directory
    uk = suite.central
    rows = [["k", "U_k", "measured_gap_u_vtilde", "satisfied"]]
    rows += [[k, *row] for k, row in enumerate(zip(uk.bound, uk.measured, uk.satisfied), 1)]
    atomic_write_csv(os.path.join(out, "bound_report.csv"), rows)
    gr = suite.gap_report
    atomic_write_text(os.path.join(out, "bound_summary.json"), to_json({
        "beta": suite.inputs.beta, "rho": suite.inputs.rho, "delta": suite.estimates.delta,
        "epsilon": gr.epsilon, "phi": gr.phi,
        "bound": gr.bound if gr.applicable else None,
        "measured_final_gap": gr.measured_gap,
        "applicable": gr.applicable,
        "conditions": [{"name": k, "holds": v} for k, v in gr.conditions.items()],
        "note": gr.note,
    }))
    print(f"beta={suite.inputs.beta:.6g} rho={suite.inputs.rho:.6g} "
          f"delta={suite.estimates.delta:.6g} epsilon={suite.inputs.epsilon:.6g}")
    if gr.applicable:
        print(f"gap bound {gr.bound:.6g}, measured {gr.measured_gap:.6g}")
    else:
        why = gr.note or ", ".join(k for k, v in gr.conditions.items() if not v)
        print(f"gap bound not applicable ({why}); measured {gr.measured_gap:.6g}")
    if suite.violations:
        print(f"{len(suite.violations)} bound violations; first: {suite.violations[0]}")
        return EXIT_VIOLATION
    print("all bound inequalities hold")
    return EXIT_OK


def cmd_partition_report(args):
    cfg = _load(args)
    if args.rounds is not None and args.rounds < 0:
        raise ConfigError([f"--rounds must be >= 0, got {args.rounds}"])
    out = cfg.output.directory
    rounds = args.rounds if args.rounds is not None else cfg.hfl.cloud_epochs * cfg.hfl.tau_e
    inst = experiments.build_instance(cfg)
    # the schedule a run of that many rounds uses; edge_id is its time-0
    # row, the association the run starts from
    positions, edge_of = experiments.schedule(inst, rounds)
    rows = [["vehicle_id", "edge_id", "shard_size", "label_histogram"]]
    rows += [[m, edge_of[0, m], s.size, ";".join(map(str, s.label_histogram()))]
             for m, s in enumerate(inst.shards)]
    atomic_write_csv(os.path.join(out, "partition.csv"), rows)
    if positions is not None:
        # one row per vehicle per 1-second edge round
        rows = [["time_s", "vehicle_id", "arc_position_m", "edge_id"]]
        rows += [(float(j), m, positions[j, m], int(edge_of[j, m]))
                 for j in range(rounds + 1) for m in range(len(inst.shards))]
        atomic_write_csv(os.path.join(out, "mobility_trace.csv"), rows)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="hflsim",
                                description="hierarchical federated learning simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None,
                        help="override every section seed")

    sp = sub.add_parser("run", help="single training run")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep-speed", help="paired-seed speed sweep")
    common(sp)
    sp.add_argument("--speeds", required=True, help="comma-separated speeds (m/s)")
    sp.add_argument("--seeds", required=True, help="comma-separated seeds")
    sp.add_argument("--parallel", type=int, default=1, help="concurrent sweep cells")
    sp.set_defaults(func=cmd_sweep_speed)

    sp = sub.add_parser("verify-bounds", help="run and check every bound inequality")
    common(sp)
    sp.add_argument("--debug-scale-delta", type=float, default=1.0,
                    help="test hook: scale the estimated divergences")
    sp.set_defaults(func=cmd_verify_bounds)

    sp = sub.add_parser("partition-report", help="emit partition and mobility traces")
    common(sp)
    sp.add_argument("--rounds", type=int, default=None,
                    help="mobility trace length in edge rounds")
    sp.set_defaults(func=cmd_partition_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedModelError, datasets.InfeasiblePartitionError,
            datasets.CsvFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

