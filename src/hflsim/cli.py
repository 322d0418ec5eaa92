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
import os
import sys
import tempfile

from . import analysis, datasets, experiments
from .config import ConfigError, load_config, serialize_config, validate
from .engine import DivergenceError, config_hash, write_checkpoint
from .models import UnsupportedModelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_VIOLATION = 5


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_csv(path, rows):
    import io
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.dataset.seed = args.seed
        cfg.partition.seed = args.seed
        cfg.mobility.seed = args.seed
        cfg.hfl.seed = args.seed
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
    atomic_write_csv(os.path.join(out, "metrics.csv"), res.metrics_csv_rows())
    if res.trace is not None:
        rows = [["iteration", "gap_u_vtilde", "gap_u_v", "s_vehicle", "s_edge"]]
        tr = res.trace
        for t in range(tr.total_iterations + 1):
            rows.append([str(t), repr(float(tr.gap_u_vtilde[t])), repr(float(tr.gap_u_v[t])),
                         repr(float(tr.s_vehicle[t])), repr(float(tr.s_edge[t]))])
        atomic_write_csv(os.path.join(out, "virtual_trace.csv"), rows)
    ckpt = os.path.join(out, "checkpoint.bin")
    os.makedirs(out, exist_ok=True)
    tmp = ckpt + ".tmp"
    try:
        # the hash names the experiment, not where its files were written
        cfg_hash = config_hash(serialize_config(cfg, exclude=("output",)))
        write_checkpoint(tmp, res.final_state, cfg_hash)
        os.replace(tmp, ckpt)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
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
    if len(speeds) < 1:
        raise ConfigError(["sweep-speed needs at least one speed"])
    if len(seeds) < 1:
        raise ConfigError(["sweep-speed needs at least one seed"])
    out = cfg.output.directory
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "sweep_manifest.json")
    done = []

    def on_cell(cell):
        done.append({"speed": cell.speed, "seed": cell.seed,
                     "max_test_accuracy": cell.max_test_accuracy})
        atomic_write_text(manifest_path, experiments.to_json({"completed": done}))
        print(f"speed={cell.speed:g} seed={cell.seed}: "
              f"max_acc={cell.max_test_accuracy:.4f}")

    result = experiments.sweep_speed(cfg, speeds, seeds, parallel=args.parallel,
                                     on_cell=on_cell)
    atomic_write_csv(os.path.join(out, "sweep.csv"), result.csv_rows())
    atomic_write_csv(os.path.join(out, "sweep_summary.csv"), result.summary_rows())
    meta = {"ceiling": result.ceiling, "targets": result.targets,
            "target_fractions": result.target_fractions,
            "completed": done}
    atomic_write_text(manifest_path, experiments.to_json(meta))
    return EXIT_OK


def cmd_verify_bounds(args):
    cfg = _load(args)
    suite = experiments.verify_bounds(cfg, delta_scale=args.debug_scale_delta)
    out = cfg.output.directory
    atomic_write_csv(os.path.join(out, "bound_report.csv"), suite.drift_report.csv_rows())
    atomic_write_text(os.path.join(out, "bound_summary.json"), experiments.to_json(
        suite.gap_report.to_json_dict(suite.inputs, suite.estimates)))
    ident = analysis.convex_combination_residuals(suite.estimates)
    print(f"beta={suite.inputs.beta:.6g} rho={suite.inputs.rho:.6g} "
          f"delta={suite.estimates.delta:.6g} epsilon={suite.inputs.epsilon:.6g}")
    print(f"convex-combination residual: {ident:.3g}")
    gr = suite.gap_report
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
    inst = experiments.build_instance(cfg)
    rows = [["vehicle_id", "edge_id", "shard_size", "label_histogram"]]
    rows += [list(map(str, r)) for r in
             datasets.partition_report_rows(inst.shards, inst.edge_map)]
    atomic_write_csv(os.path.join(out, "partition.csv"), rows)
    if cfg.mobility.edges == 4:
        rounds = args.rounds if args.rounds is not None else \
            cfg.hfl.cloud_epochs * cfg.hfl.tau_e
        trace = [["time_s", "vehicle_id", "arc_position_m", "edge_id"]]
        trace += [[repr(float(t)), str(m), repr(float(p)), str(e)]
                  for t, m, p, e in experiments.mobility_trace(inst, rounds)]
        atomic_write_csv(os.path.join(out, "mobility_trace.csv"), trace)
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


if __name__ == "__main__":
    sys.exit(main())
