import concurrent.futures
import copy
import csv
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hflsim import analysis, cli, config, datasets, engine, experiments, mobility, models, rng
from hflsim.config import ConfigError, ExperimentConfig, parse_config, serialize_config, validate
from hflsim.engine import InternalInvariantError, read_checkpoint
from test_datasets import write_csv


MINI = """
[dataset]
kind = synthetic
classes = 4
dim = 8
samples_per_class = 50
separation = 3.0
seed = 1
test_fraction = 0.2

[partition]
regime = iid
vehicles = 1
seed = 2

[mobility]
edges = 1
speed = 0.0

[hfl]
eta = 0.1
tau_l = 5
tau_e = 10
cloud_epochs = 2
batch_size = 20
seed = 4

[model]
family = multinomial_logistic
l2_reg = 0.01

[output]
directory = {out}
"""

BOUNDS = """
[dataset]
classes = 4
dim = 8

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 32
seed = 2
shared_input = true
shared_samples_per_shard = 40

[mobility]
edges = 4
speed = 0.0

[hfl]
eta = 0.05
tau_l = 6
tau_e = 10
cloud_epochs = 3
seed = 4

[model]
family = quadratic
l2_reg = 0.05

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "out"))
    return str(p)


class TestConfigFormat:
    def test_round_trip_identity(self):
        cfg = parse_config(MINI.format(out="/tmp/x"))
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_all_violations_reported_at_once(self):
        bad = """
[dataset]
classes = 1
separation = -1

[hfl]
eta = 0
tau_l = 0
"""
        cfg = parse_config(bad)
        with pytest.raises(ConfigError) as e:
            validate(cfg)
        msg = str(e.value)
        assert "classes" in msg and "separation" in msg
        assert "eta" in msg and "tau_l" in msg
        assert len(e.value.problems) >= 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[hfl]\nknob = 3\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[wheels]\nn = 4\n")

    def test_type_errors_named(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config("[hfl]\neta = fast\n")

    @pytest.mark.parametrize("section, key, raw", [
        ("hfl", "eta", "nan"), ("mobility", "speed", "nan"), ("mobility", "speed", "inf"),
        ("dataset", "separation", "-inf"), ("model", "l2_reg", "nan")])
    def test_non_finite_floats_rejected(self, section, key, raw):
        # NaN passes every range comparison, and an infinite speed would
        # never finish a mobility step
        cfg = parse_config(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as e:
            validate(cfg)
        assert f"[{section}] {key} must be finite" in e.value.problems

    def test_negative_speed_rejected(self):
        cfg = parse_config("[mobility]\nspeed = -1\n")
        with pytest.raises(ConfigError) as e:
            validate(cfg)
        assert "[mobility] speed must be >= 0" in e.value.problems

    def test_cross_section_rules(self):
        cfg = parse_config(MINI.format(out="/tmp/x"))
        cfg.partition.regime = "edge_noniid"
        cfg.partition.vehicles = 6
        cfg.mobility.edges = 4
        with pytest.raises(ConfigError, match="divisible"):
            validate(cfg)


class TestCmdRun:
    def test_smoke_and_outputs(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINI)
        rc = cli.main(["run", "--config", path])
        assert rc == 0
        out = tmp_path / "out"
        with open(out / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2 * 10  # header + K*tau_e
        assert rows[0][0] == "cloud_epoch"
        assert (out / "checkpoint.bin").exists()
        printed = capsys.readouterr().out
        assert "cloud epoch 1" in printed and "cloud epoch 2" in printed

    def test_rerun_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, MINI)
        assert cli.main(["run", "--config", path]) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert cli.main(["run", "--config", path]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_no_temp_files_left(self, tmp_path):
        path = write_cfg(tmp_path, MINI)
        cli.main(["run", "--config", path])
        leftovers = [p for p in (tmp_path / "out").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_outputs_take_the_umask(self, tmp_path):
        path = write_cfg(tmp_path, MINI)
        old = os.umask(0o027)
        try:
            assert cli.main(["run", "--config", path]) == 0
        finally:
            os.umask(old)
        for name in ("metrics.csv", "checkpoint.bin"):
            assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o640

    def test_failed_text_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out" / "summary.json"
        cli.atomic_write_text(path, "old")
        with pytest.raises(UnicodeEncodeError):
            cli.atomic_write_text(path, "\ud800")  # a lone surrogate has no UTF-8 form
        assert path.read_text() == "old"
        assert [p.name for p in path.parent.iterdir()] == ["summary.json"]

    def test_failed_checkpoint_leaves_nothing(self, tmp_path, monkeypatch):
        def broken(path, state, cfg_hash):
            with open(path, "wb") as f:
                f.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_checkpoint", broken)
        path = write_cfg(tmp_path, MINI)
        assert cli.main(["run", "--config", path]) == 4
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["metrics.csv"]

    def test_checkpoint_hash_names_the_experiment(self, tmp_path):
        # the same experiment written to two directories gives the same
        # bytes; a changed [hfl] value or --seed gives another hash
        path = write_cfg(tmp_path, MINI)
        other = write_cfg(tmp_path, MINI.replace("eta = 0.1", "eta = 0.09"), name="other.cfg")
        runs = {"a": [path], "b": [path], "eta": [other], "seed": [path, "--seed", "99"]}
        for d, args in runs.items():
            assert cli.main(["run", "--config", *args, "--out", str(tmp_path / d)]) == 0
        ckpt = {d: tmp_path / d / "checkpoint.bin" for d in runs}
        assert ckpt["a"].read_bytes() == ckpt["b"].read_bytes()
        hashes = {d: read_checkpoint(p)[1] for d, p in ckpt.items()}
        assert hashes["eta"] != hashes["a"] and hashes["seed"] != hashes["a"]
        cfg = config.load_config(path)
        assert hashes["a"] == engine.config_hash(serialize_config(cfg, exclude=("output",)))

    def test_invalid_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[hfl]\neta = -1\n[output]\ndirectory = x\n")
        assert cli.main(["run", "--config", str(p)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_exit_3(self, tmp_path):
        text = MINI.replace("eta = 0.1", "eta = 1e160")
        text = text.replace("family = multinomial_logistic", "family = quadratic")
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", "--config", path]) == 3

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_one_vehicle_divergence_exit_3(self, tmp_path, monkeypatch, capsys):
        # only vehicle 2's data is scaled up, so only vehicle 2 diverges
        text = MINI.replace("vehicles = 1", "vehicles = 4").replace("edges = 1", "edges = 4")
        text = text.replace("family = multinomial_logistic", "family = quadratic")
        path = write_cfg(tmp_path, text)
        real = experiments.build_instance

        def scaled(*args, **kwargs):
            inst = real(*args, **kwargs)
            d = inst.shards[2].data
            inst.shards[2] = datasets.Shard(2, datasets.LabeledDataset(
                d.features * 1e20, d.labels, d.class_count))
            inst.union = datasets.union_of_shards(inst.shards)
            return inst

        monkeypatch.setattr(experiments, "build_instance", scaled)
        assert cli.main(["run", "--config", path]) == 3
        assert "divergence: non-finite parameters at vehicle 2 iteration" in capsys.readouterr().err

    def test_nan_eta_is_a_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINI.replace("eta = 0.1", "eta = nan"))
        assert cli.main(["run", "--config", path]) == 2
        assert "[hfl] eta must be finite" in capsys.readouterr().err

    def test_missing_config_exit_4(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

    @pytest.mark.parametrize("corrupt", [lambda e: e + 4, lambda e: e[:-1]])
    def test_bad_association_not_exit_2(self, tmp_path, monkeypatch, corrupt):
        text = MINI.replace("vehicles = 1", "vehicles = 4").replace("edges = 1", "edges = 4")
        path = write_cfg(tmp_path, text)
        real = mobility.schedule

        def broken(*args):
            positions, edge_of = real(*args)
            return positions, corrupt(edge_of)

        monkeypatch.setattr(mobility, "schedule", broken)
        with pytest.raises(InternalInvariantError):
            cli.main(["run", "--config", path])


def csv_config(tmp_path, classes, per_class=20):
    # a CSV dataset with edge-skewed data and [dataset] classes left at its
    # default of 8, which does not describe the file
    write_csv(datasets.generate_synthetic(classes, 3, per_class, 3.0, 1), tmp_path / "d.csv")
    return write_cfg(tmp_path, f"""
[dataset]
kind = csv
csv_path = {tmp_path / "d.csv"}

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 4

[mobility]
edges = 4

[hfl]
tau_l = 2
tau_e = 2
cloud_epochs = 1

[output]
directory = {{out}}
""")


class TestCsvClassCoverage:
    def test_four_class_csv_runs(self, tmp_path):
        assert cli.main(["run", "--config", csv_config(tmp_path, 4)]) == 0

    def test_eight_class_csv_rejected_by_the_partition(self, tmp_path, capsys):
        assert cli.main(["run", "--config", csv_config(tmp_path, 8)]) == 2
        assert "edge_noniid needs l*N >= C (1*4 < 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_feature_rejected(self, tmp_path, capsys, bad):
        # 200 rows, 4 classes, one feature of row 7 not finite: a
        # configuration error, not a training divergence
        path = csv_config(tmp_path, 4, per_class=50)
        lines = (tmp_path / "d.csv").read_text().splitlines()
        cells = lines[6].split(",")
        cells[1] = bad
        lines[6] = ",".join(cells)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["run", "--config", path]) == 2
        assert "row 7: non-finite feature" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdVerifyBounds:
    def test_clean_exit_0(self, tmp_path):
        path = write_cfg(tmp_path, BOUNDS)
        assert cli.main(["verify-bounds", "--config", path]) == 0
        out = tmp_path / "out"
        with open(out / "bound_report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["k", "U_k", "r_term", "mobility_term",
                           "measured_gap_u_vtilde", "satisfied"]
        assert len(rows) == 1 + 3
        summary = json.loads((out / "bound_summary.json").read_text())
        assert {"beta", "rho", "delta", "epsilon", "phi", "bound",
                "measured_final_gap", "conditions"} <= set(summary)

    def test_no_test_accuracy_computed(self, tmp_path, monkeypatch):
        # no bound reads one; a plain run on the same config computes one
        # per edge round
        calls = []
        real = models.EvalWorkspace.accuracy
        monkeypatch.setattr(models.EvalWorkspace, "accuracy",
                            lambda *a: calls.append(a) or real(*a))
        path = write_cfg(tmp_path, MOBILE)
        assert cli.main(["verify-bounds", "--config", path]) == 0
        assert calls == []
        assert cli.main(["run", "--config", path]) == 0
        assert len(calls) == 2 * 10

    def test_corrupted_delta_exit_5(self, tmp_path):
        path = write_cfg(tmp_path, BOUNDS)
        rc = cli.main(["verify-bounds", "--config", path,
                       "--debug-scale-delta", "0.5"])
        assert rc == 5

    def test_stdout_lines(self, tmp_path, capsys):
        # every line verify-bounds prints, the values read from its summary
        path = write_cfg(tmp_path, BOUNDS)
        for scale, rc in (("1", 0), ("0.5", 5)):
            assert cli.main(["verify-bounds", "--config", path, "--debug-scale-delta", scale]) == rc
            s = json.loads((tmp_path / "out" / "bound_summary.json").read_text())
            failed = ", ".join(c["name"] for c in s["conditions"] if not c["holds"])
            assert not s["applicable"] and failed == "positive_margin"
            lines = capsys.readouterr().out.splitlines()
            assert lines[:2] == [
                f"beta={s['beta']:.6g} rho={s['rho']:.6g} delta={s['delta']:.6g} "
                f"epsilon={s['epsilon']:.6g}",
                f"gap bound not applicable ({failed}); measured {s['measured_final_gap']:.6g}"]
            assert len(lines) == 3
            if rc == 0:
                assert lines[2] == "all bound inequalities hold"
            else:
                assert re.fullmatch(r"[1-9]\d* bound violations; first: \w+ violated at .+",
                                    lines[2])

    @pytest.mark.parametrize("scale", ["nan", "inf", "1e308", "-0.5", "1.5"])
    def test_scale_outside_unit_interval_exit_2(self, tmp_path, capsys, monkeypatch, scale):
        # rejected before the data is built, so before any training
        monkeypatch.setattr(experiments, "build_instance",
                            lambda cfg: pytest.fail("the instance was built"))
        path = write_cfg(tmp_path, BOUNDS)
        rc = cli.main(["verify-bounds", "--config", path, "--debug-scale-delta", scale])
        assert rc == 2
        assert "--debug-scale-delta" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, rc", [("0", 5), ("1", 0)])
    def test_scale_at_the_interval_ends(self, tmp_path, scale, rc):
        path = write_cfg(tmp_path, BOUNDS)
        assert cli.main(["verify-bounds", "--config", path, "--debug-scale-delta", scale]) == rc

    def test_each_epoch_loss_once(self, tmp_path, monkeypatch):
        # F(vtilde) and F(u) at each of the 3 cloud instants, each computed
        # once and read by both choose_epsilon and check_gap_bound; without
        # shared inputs the two differ, so every read is pinned
        text = BOUNDS.replace("shared_input = true", "shared_input = false")
        values, real = [], analysis.loss

        def counted(*args):
            values.append(real(*args))
            return values[-1]

        monkeypatch.setattr(analysis, "loss", counted)
        suite = experiments.verify_bounds(config.load_config(write_cfg(tmp_path, text)))
        gap = suite.gap_report
        assert len(values) == 2 * 3 and len(set(values)) == 6
        f_star = suite.inputs.f_star
        assert gap.measured_gap == values[-1] - f_star
        eps = min(min(values[0::2]) - f_star, min(values[1::2]))
        assert suite.inputs.epsilon == max(eps, 1e-12)

    def test_nonconvex_exit_2(self, tmp_path):
        text = BOUNDS.replace("family = quadratic", "family = mlp1")
        text = text.replace("l2_reg = 0.05", "l2_reg = 0.0\nhidden_width = 4")
        text = text.replace("shared_input = true", "shared_input = false")
        path = write_cfg(tmp_path, text)
        assert cli.main(["verify-bounds", "--config", path]) == 2

    def test_homogeneous_holds(self, tmp_path):
        # iid split of one dataset: near-zero heterogeneity, all bounds hold
        text = BOUNDS.replace("shared_input = true", "shared_input = false")
        text = text.replace("regime = edge_noniid", "regime = iid")
        text = text.replace("eta = 0.05", "eta = 0.1")
        path = write_cfg(tmp_path, text)
        assert cli.main(["verify-bounds", "--config", path]) == 0


def strict_json(path):
    """Parse a JSON file, rejecting the NaN/Infinity tokens strict parsers refuse."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestStrictJson:
    def test_non_finite_floats_become_null(self):
        obj = {"a": [float("nan"), 0.1, (float("-inf"), 2)], "b": {"c": np.float64("inf")}}
        assert json.loads(cli.to_json(obj)) == {"a": [None, 0.1, [None, 2]],
                                                 "b": {"c": None}}
        assert cli.to_json([0.1 + 0.2]) == json.dumps([0.1 + 0.2], indent=2)

    def test_sweep_without_test_split(self, tmp_path, capsys):
        # shared inputs leave no test split, so no accuracy to sweep: a
        # configuration error before any cell runs
        path = write_cfg(tmp_path, BOUNDS.replace("cloud_epochs = 3", "cloud_epochs = 1"))
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0", "--seeds", "1"]) == 2
        assert "needs a test split" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_degenerate_gap_report(self, tmp_path, monkeypatch):
        # the start (the origin) posing as the optimum makes phi infinite
        def at_origin(spec, data):
            w = np.zeros(models.param_length(spec))
            return models.Optimum(w, models.loss(spec, w, data.features, data.labels))

        monkeypatch.setattr(models, "solve_optimum", at_origin)
        assert cli.main(["verify-bounds", "--config", write_cfg(tmp_path, BOUNDS)]) in (0, 5)
        summary = strict_json(tmp_path / "out" / "bound_summary.json")
        assert summary["phi"] is None and summary["applicable"] is False
        assert "optimal" in summary["note"]


class TestCmdPartitionReport:
    def test_edge_noniid_two_labels_per_edge(self, tmp_path):
        text = BOUNDS.replace("classes_per_unit = 1", "classes_per_unit = 2")
        text = text.replace("classes = 4", "classes = 8")
        text = text.replace("shared_input = true", "shared_input = false")
        path = write_cfg(tmp_path, text)
        assert cli.main(["partition-report", "--config", path, "--rounds", "5"]) == 0
        with open(tmp_path / "out" / "partition.csv") as f:
            rows = list(csv.reader(f))[1:]
        per_edge = {}
        for vid, eid, size, hist in rows:
            labels = {i for i, c in enumerate(hist.split(";")) if int(c) > 0}
            per_edge.setdefault(eid, set()).update(labels)
        assert all(len(v) == 2 for v in per_edge.values())

    def test_static_trace_constant_edges(self, tmp_path):
        path = write_cfg(tmp_path, BOUNDS)
        assert cli.main(["partition-report", "--config", path, "--rounds", "6"]) == 0
        with open(tmp_path / "out" / "mobility_trace.csv") as f:
            rows = list(csv.reader(f))[1:]
        per_vehicle = {}
        for t, vid, pos, eid in rows:
            per_vehicle.setdefault(vid, set()).add(eid)
        assert all(len(v) == 1 for v in per_vehicle.values())

    def test_moving_trace_kinematics(self, tmp_path):
        text = BOUNDS.replace("speed = 0.0", "speed = 30.0")
        path = write_cfg(tmp_path, text)
        assert cli.main(["partition-report", "--config", path, "--rounds", "10"]) == 0
        with open(tmp_path / "out" / "mobility_trace.csv") as f:
            rows = list(csv.reader(f))[1:]
        per_vehicle = {}
        for t, vid, pos, eid in rows:
            per_vehicle.setdefault(vid, []).append((float(t), float(pos)))
        perimeter = 4000.0
        for track in per_vehicle.values():
            track.sort()
            for (t0, p0), (t1, p1) in zip(track, track[1:]):
                moved = min(abs(p1 - p0), perimeter - abs(p1 - p0))
                assert moved <= 30.0 * (t1 - t0) + 1e-9

    def test_trace_is_the_run_association(self, tmp_path):
        # the report's edge ids are the association a run of the same
        # length consumes, corner turns included
        text = BOUNDS.replace("speed = 0.0", "speed = 30.0\np_turn = 0.3")
        path = write_cfg(tmp_path, text)
        assert cli.main(["partition-report", "--config", path]) == 0
        with open(tmp_path / "out" / "mobility_trace.csv") as f:
            edges = [int(r[3]) for r in list(csv.reader(f))[1:]]
        cfg = config.load_config(path)
        res = experiments.run_instance(experiments.build_instance(cfg), record_virtual=True)
        hist = res.trace.association_history
        assert hist.shape == (cfg.hfl.cloud_epochs * cfg.hfl.tau_e + 1, 32)
        assert edges == hist.ravel().tolist()
        assert len(np.unique(hist, axis=0)) > 1


class TestSchedule:
    def test_reads_the_mobility_section(self, tmp_path):
        cfg = config.load_config(write_cfg(tmp_path, MINI.replace("vehicles = 1", "vehicles = 8")))
        pos, edge_of = experiments.schedule(experiments.build_instance(cfg), 5)
        assert pos is None  # one edge: no road, every vehicle on edge 0
        assert edge_of.dtype == np.int64 and edge_of.tolist() == [[0] * 8] * 6
        cfg.mobility.edges = 4
        base = experiments.build_instance(cfg)

        def positions(**mo):
            inst = replace(base, cfg=replace(cfg, mobility=replace(cfg.mobility, **mo)))
            pos, edge_of = experiments.schedule(inst, 5)
            assert pos.shape == edge_of.shape == (6, 8)
            return pos

        ref = positions(speed=30.0, seed=3)
        moved = positions(speed=10.0, seed=3)
        assert np.array_equal(ref[0], moved[0]) and not np.array_equal(ref[1], moved[1])
        assert not np.array_equal(ref[0], positions(speed=30.0, seed=4)[0])
        assert not np.array_equal(ref, positions(speed=30.0, seed=3, side_length=500.0))


# 8 vehicles on the square road, with the divergence columns filled in
SWEEP = (MINI.replace("vehicles = 1", "vehicles = 8").replace("edges = 1", "edges = 4")
         .replace("batch_size = 20", "batch_size = 20\nrecord_virtual = true"))

# the same fleet with each class on one edge's vehicles
SWEEP_NONIID = SWEEP.replace("regime = iid", "regime = edge_noniid\nclasses_per_unit = 1")


class TestCsvCells:
    """Every CSV file is written through cli._cell, whose floats read back exact."""

    @pytest.mark.parametrize("value, cell", [
        (0.1 + 0.2, "0.30000000000000004"), (np.float64(0.1), "0.1"),
        (np.float64(-1e-300), "-1e-300"), (float("inf"), "inf"),
        (float("nan"), ""), (np.float64("nan"), ""), (None, ""),
        (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
        (np.int64(7), "7"), (3, "3"), ("1;0;2", "1;0;2"),
    ])
    def test_cell_rule(self, value, cell):
        assert cli._cell(value) == cell

    def test_recorded_run_reads_back_exact(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP)
        assert cli.main(["run", "--config", path]) == 0
        cfg = validate(config.load_config(path))
        res = experiments.run_instance(experiments.build_instance(cfg))

        def read(name):
            with open(tmp_path / "out" / name, newline="") as f:
                return list(csv.reader(f))[1:]

        rows = read("metrics.csv")
        assert len(rows) == len(res.metrics)
        for row, r in zip(rows, res.metrics):
            assert [int(c) for c in row[:3]] == [r.cloud_epoch, r.edge_round, r.iteration]
            assert (np.array([float(c) for c in row[3:6]]).tobytes()
                    == np.array([r.train_loss, r.test_accuracy, r.u_vtilde_gap]).tobytes())
            assert tuple(int(c) for c in row[6].split(";")) == r.membership_counts
        tr = res.trace
        rows = read("virtual_trace.csv")
        assert [int(row[0]) for row in rows] == list(range(tr.total_iterations + 1))
        assert (np.array([[float(c) for c in row[1:]] for row in rows]).tobytes()
                == np.column_stack([tr.gap_u_vtilde, tr.gap_u_v, tr.s_vehicle,
                                    tr.s_edge]).tobytes())


class TestCmdSweep:
    def test_degenerate_single_cell_matches_run(self, tmp_path):
        text = MINI.replace("vehicles = 1", "vehicles = 8")
        path = write_cfg(tmp_path, text)
        rc = cli.main(["sweep-speed", "--config", path, "--speeds", "0",
                       "--seeds", "3"])
        assert rc == 0
        with open(tmp_path / "out" / "sweep.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2
        cfg = config.load_config(path)
        cfg.mobility.speed, cfg.mobility.seed = 0.0, 3
        res = experiments.run_instance(experiments.build_instance(cfg))
        best = max(r.test_accuracy for r in res.metrics)
        assert float(rows[1][2]) == pytest.approx(best, abs=1e-12)

    def test_data_built_once(self, tmp_path, monkeypatch):
        # the sweep partitions once, and each cell equals a cell built from
        # scratch with that speed and mobility seed
        cfg = config.load_config(write_cfg(tmp_path, SWEEP))
        real, calls = datasets.partition, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "partition", counted)
        res = experiments.sweep_speed(cfg, speeds=[0.0, 30.0], seeds=[1, 2])
        assert len(calls) == 1
        assert [(c.speed, c.seed) for c in res.cells] == [(0.0, 1), (0.0, 2), (30.0, 1), (30.0, 2)]
        for cell in res.cells:
            one = copy.deepcopy(cfg)
            one.mobility.speed, one.mobility.seed = cell.speed, cell.seed
            inst = experiments.build_instance(one)
            assert experiments._sweep_cell(inst, res.targets, None) == cell

    def test_parallel_outputs_identical(self, tmp_path):
        # workers receive pickled instances; the files must not notice
        path = write_cfg(tmp_path, SWEEP)
        for n in ("1", "2"):
            assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,30",
                             "--seeds", "1,2", "--parallel", n,
                             "--out", str(tmp_path / n)]) == 0
        for name in ("sweep.csv", "sweep_summary.csv", "sweep_manifest.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        with open(tmp_path / "1" / "sweep.csv") as f:
            assert all(row[-1] != "" for row in list(csv.reader(f))[1:])

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_rejected(self, tmp_path, capsys, parallel):
        path = write_cfg(tmp_path, MINI)
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0",
                         "--seeds", "3", "--parallel", parallel]) == 2
        assert f"--parallel must be >= 1, got {parallel}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        # a fake pool records its size and runs the cells inline, so a large
        # --parallel starts no process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        path = write_cfg(tmp_path, SWEEP)
        for n in ("1000", "3"):
            assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,30",
                             "--seeds", "1,2", "--parallel", n,
                             "--out", str(tmp_path / n)]) == 0
        assert sizes == [4, 3]  # 4 cells

    @pytest.mark.parametrize("text, trained", [
        # edge-skewed placement pins the vehicles: both speed-0 cells are one run
        (SWEEP_NONIID, 3),
        # one edge: every cell has the same (empty) schedule
        (MINI.replace("vehicles = 1", "vehicles = 8"), 1),
        # iid placement draws every seed's start: four distinct schedules
        (SWEEP, 4)], ids=["edge_noniid", "one_edge", "iid"])
    def test_each_distinct_schedule_trains_once(self, tmp_path, monkeypatch, text, trained):
        real, calls = engine.run, []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))  # the fleet size; the ceiling's is 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run", counted)
        # mlp1, whose ceiling is a centralized run; divergences need a convex family
        mlp = (text.replace("family = multinomial_logistic", "family = mlp1\nhidden_width = 6")
               .replace("record_virtual = true", "record_virtual = false"))
        res = experiments.sweep_speed(config.load_config(write_cfg(tmp_path, mlp)),
                                      speeds=[0.0, 30.0], seeds=[1, 2])
        assert [(c.speed, c.seed) for c in res.cells] == [(0.0, 1), (0.0, 2), (30.0, 1), (30.0, 2)]
        assert calls.count(1) == 1 and len(calls) == trained + 1

    def test_lazy_pool_import(self):
        # only a parallel sweep needs the process pool and what it imports,
        # and only verify-bounds and a recorded sweep cell need the analysis
        code = ("import sys, hflsim.cli; "
                "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
                "'hflsim.analysis') if m in sys.modules])")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_never_import_numpy_ma(self, tmp_path):
        # a bare np.unique asks np.ma.is_masked, which imports numpy.ma
        # (about 13 ms and 1 MB) in whatever command calls it first
        mobile = write_cfg(tmp_path, MOBILE, "mobile.cfg")
        bounds = write_cfg(tmp_path, BOUNDS, "bounds.cfg")
        commands = [["run", "--config", mobile, "--out", str(tmp_path / "run")],
                    ["verify-bounds", "--config", bounds, "--out", str(tmp_path / "verify")],
                    ["sweep-speed", "--config", mobile, "--speeds", "0,30", "--seeds", "1",
                     "--out", str(tmp_path / "sweep")]]
        code = ("import json, sys; from hflsim import cli; "
                "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], False]

    def test_recorded_non_convex_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        # the divergence constants of a recorded cell need a convex family
        calls = []
        monkeypatch.setattr(engine, "run", lambda *a, **k: calls.append(a))
        text = SWEEP.replace("family = multinomial_logistic", "family = mlp1\nhidden_width = 6")
        path = write_cfg(tmp_path, text)
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,30",
                         "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "[hfl] record_virtual" in err and "[model] family" in err and "mlp1" in err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_non_finite_speed_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINI.replace("edges = 1", "edges = 4"))
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,nan",
                         "--seeds", "1"]) == 2
        assert "[mobility] speed must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_speed_or_seed_rejected(self, tmp_path, capsys):
        # 0 and 0.0 are one speed: the sweep would run 6 cells for 2
        path = write_cfg(tmp_path, MINI.replace("vehicles = 1", "vehicles = 8"))
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,0.0,30",
                         "--seeds", "1,1"]) == 2
        err = capsys.readouterr().err
        assert "--speeds lists 0.0 more than once" in err
        assert "--seeds lists 1 more than once" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--speeds", "--seeds"])
    def test_empty_list_rejected(self, tmp_path, capsys, option):
        path = write_cfg(tmp_path, MINI.replace("vehicles = 1", "vehicles = 8"))
        args = {"--speeds": "0", "--seeds": "1", option: ","}
        assert cli.main(["sweep-speed", "--config", path, *sum(args.items(), ())]) == 2
        assert f"{option} lists no values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_list_is_a_config_error(self, tmp_path):
        cfg = config.load_config(write_cfg(tmp_path, MINI))
        with pytest.raises(ConfigError, match="--speeds lists no values"):
            experiments.sweep_speed(cfg, [], [1])

    def test_manifest_written(self, tmp_path):
        text = MINI.replace("vehicles = 1", "vehicles = 8")
        path = write_cfg(tmp_path, text)
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,30",
                         "--seeds", "1"]) == 0
        manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
        assert len(manifest["completed"]) == 2
        assert "ceiling" in manifest
        with open(tmp_path / "out" / "sweep_summary.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["speed", "mean_max_accuracy", "std_max_accuracy"]
        assert len(rows) == 3

    def test_parallel_only_on_sweep(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINI)
        for command in ("run", "verify-bounds", "partition-report"):
            with pytest.raises(SystemExit) as e:
                cli.main([command, "--config", path, "--parallel", "2"])
            assert e.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0",
                         "--seeds", "3", "--parallel", "1"]) == 0

    def test_seed_override_flag(self, tmp_path):
        path = write_cfg(tmp_path, MINI)
        assert cli.main(["run", "--config", path, "--seed", "99"]) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert cli.main(["run", "--config", path]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() != first


MLP_MOBILE = (MINI.replace("vehicles = 1", "vehicles = 4")
              .replace("edges = 1", "edges = 4").replace("speed = 0.0", "speed = 30.0")
              .replace("cloud_epochs = 2", "cloud_epochs = 4").replace("tau_e = 10", "tau_e = 3")
              .replace("family = multinomial_logistic", "family = mlp1\nhidden_width = 6"))


class TestPretrain:
    def test_cloud_rounds_are_shorter_runs(self, tmp_path):
        # early stop relies on this: the cloud model edge_rounds holds after
        # epoch k of a K-epoch run is the final cloud model of a k-epoch run
        cfg = config.load_config(write_cfg(tmp_path, MLP_MOBILE))
        inst = experiments.build_instance(cfg)
        K, tau_e = cfg.hfl.cloud_epochs, cfg.hfl.tau_e
        _, association = experiments.schedule(inst, K * tau_e)
        rounds = engine.edge_rounds(cfg.hfl, inst.shards, inst.spec, association,
                                    cfg.mobility.edges, eval_data=inst.test)
        clouds = [res.final_state.cloud_params.copy() for res in rounds
                  if res.metrics[-1].edge_round % tau_e == 0]
        assert len(clouds) == K
        for k in range(1, K + 1):
            short = experiments.run_instance(inst, cloud_epochs=k)
            assert clouds[k - 1].tobytes() == short.final_state.cloud_params.tobytes()

    def test_pretrain_equals_rerun_to_first_epoch_at_target(self, tmp_path):
        cfg = config.load_config(write_cfg(tmp_path, MLP_MOBILE))
        # oracle: the former two-run method, a full pretraining run and then a
        # rerun to the first cloud epoch whose metrics row reaches the target
        pre = copy.deepcopy(cfg)
        pre.partition.regime = datasets.IID
        pre.mobility.speed = 0.0
        inst = experiments.build_instance(pre)
        rows = experiments.run_instance(inst, cloud_epochs=6).metrics
        target = rows[len(rows) // 2].test_accuracy
        first = next(r for r in rows if r.test_accuracy >= target)
        epochs = (first.edge_round + pre.hfl.tau_e - 1) // pre.hfl.tau_e
        want = experiments.run_instance(inst, cloud_epochs=epochs).final_state.cloud_params
        got = experiments.pretrain_checkpoint(cfg, target, max_epochs=6)
        assert np.array_equal(got, want)

    def test_target_first_hit_mid_epoch(self, tmp_path):
        # the first row at the target is an edge round inside epoch k > 1;
        # the model returned is the cloud model at the end of epoch k, not
        # the one in force at that round (epoch k - 1's)
        cfg = config.load_config(write_cfg(tmp_path, MLP_MOBILE))
        pre = copy.deepcopy(cfg)
        pre.partition.regime = datasets.IID
        pre.mobility.speed = 0.0
        inst = experiments.build_instance(pre)
        tau_e = cfg.hfl.tau_e
        rows = experiments.run_instance(inst, cloud_epochs=6).metrics
        first = next(r for i, r in enumerate(rows)
                     if r.edge_round > tau_e and r.edge_round % tau_e != 0
                     and all(q.test_accuracy < r.test_accuracy for q in rows[:i]))
        before, want = (experiments.run_instance(inst, cloud_epochs=k).final_state.cloud_params
                        for k in (first.cloud_epoch - 1, first.cloud_epoch))
        assert not np.array_equal(before, want)
        got = experiments.pretrain_checkpoint(cfg, first.test_accuracy, max_epochs=6)
        assert got.tobytes() == want.tobytes()

    def test_pretrain_unreachable_target(self, tmp_path):
        cfg = config.load_config(write_cfg(tmp_path, MLP_MOBILE))
        with pytest.raises(RuntimeError, match="never reached"):
            experiments.pretrain_checkpoint(cfg, 1.1, max_epochs=2)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def hflsim_process(args, timeout=60):
    """hflsim in a child process, killed (and the test failed) after timeout s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "hflsim", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestEntryPoint:
    def test_main_freezes_then_runs_the_cli(self, monkeypatch):
        # python -m hflsim and the hflsim script share hflsim.__main__.main
        import gc
        import hflsim.__main__ as entry
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("cli") or 7)
        assert entry.main() == 7
        assert calls == ["freeze", "cli"]
        with open(os.path.join(SRC, os.pardir, "pyproject.toml")) as f:
            assert 'hflsim = "hflsim.__main__:main"' in f.read()


MOBILE = MINI.replace("vehicles = 1", "vehicles = 4").replace("edges = 1", "edges = 4")


class TestSpeedLimit:
    def test_limit_named_in_the_message(self):
        cfg = parse_config(MOBILE.format(out="o").replace(
            "speed = 0.0", "speed = 1500.0001\nside_length = 150.0"))
        with pytest.raises(ConfigError) as e:
            validate(cfg)
        assert e.value.problems == [
            f"[mobility] speed must be at most {config.MAX_SIDES_PER_ROUND} sides per "
            f"one-second round ({config.MAX_SIDES_PER_ROUND} * side_length = 1500 m/s), "
            "got 1500.0001"]

    def test_hanging_speed_exits_2_promptly(self, tmp_path):
        path = write_cfg(tmp_path, MOBILE.replace("speed = 0.0", "speed = 1e20"))
        proc = hflsim_process(["run", "--config", path])
        assert proc.returncode == 2
        assert "speed must be at most 10 sides per one-second round" in proc.stderr
        assert "10000 m/s), got 1e+20" in proc.stderr

    def test_sweep_hanging_speed_exits_2_promptly(self, tmp_path):
        path = write_cfg(tmp_path, MOBILE)
        proc = hflsim_process(["sweep-speed", "--config", path, "--speeds", "0,1e20",
                               "--seeds", "1"])
        assert proc.returncode == 2
        assert "10000 m/s), got 1e+20" in proc.stderr
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_speed_at_the_limit_runs(self, tmp_path):
        text = MOBILE.replace("speed = 0.0", "speed = 1500.0\nside_length = 150.0\n"
                                             "intersection_zone = 10.0\np_turn = 0.3")
        path = write_cfg(tmp_path, text)
        assert cli.main(["run", "--config", path]) == 0
        with open(tmp_path / "out" / "metrics.csv") as f:
            counts = [r[-1] for r in csv.reader(f)][1:]
        assert len(set(counts)) > 1  # the vehicles really change edges


class TestFaultPaths:
    """The rare exits report what happened and leave no partial file."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_a_worker_reads_as_in_process(self, tmp_path, capsys):
        text = SWEEP.replace("multinomial_logistic", "quadratic").replace("eta = 0.1", "eta = 1e3")
        path = write_cfg(tmp_path, text)
        errs = []
        for n in ("1", "2"):
            assert cli.main(["sweep-speed", "--config", path, "--speeds", "0,30",
                             "--seeds", "1", "--parallel", n,
                             "--out", str(tmp_path / n)]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("divergence: non-finite parameters at vehicle ")
        assert not (tmp_path / "1" / "sweep.csv").exists()

    def test_interrupted_sweep_lists_completed_cells(self, tmp_path, capsys, monkeypatch):
        # the speed-0 cells share one schedule and the speed-30 cells each
        # have their own; training the second schedule diverges, and the
        # manifest written after every cell still parses and lists only the
        # two speed-0 cells before it
        real, trained = experiments._sweep_cell, []

        def second_diverges(*args):
            trained.append(args)
            if len(trained) == 2:
                raise engine.DivergenceError("non-finite parameters at vehicle 0 iteration 1")
            return real(*args)

        monkeypatch.setattr(experiments, "_sweep_cell", second_diverges)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-speed", "--config", write_cfg(tmp_path, SWEEP_NONIID),
                         "--speeds", "0,30", "--seeds", "1,2", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "divergence: non-finite parameters at vehicle 0 iteration 1")
        assert len(trained) == 2
        with open(out / "sweep_manifest.json") as f:
            manifest = json.load(f)
        assert list(manifest) == ["completed"]
        assert [(c["speed"], c["seed"]) for c in manifest["completed"]] == [(0.0, 1), (0.0, 2)]
        assert not (out / "sweep.csv").exists()

    def test_failed_rename_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        assert cli.main(["run", "--config", write_cfg(tmp_path, MINI)]) == 4
        assert "i/o error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []


class TestExitCodes:
    """Exit 2 means the configuration or the arguments; an internal error
    is not reported as one."""

    @pytest.mark.parametrize("option, value", [("--speeds", "abc"), ("--seeds", "1.5")])
    def test_bad_sweep_lists(self, tmp_path, capsys, option, value):
        path = write_cfg(tmp_path, MOBILE)
        args = {"--speeds": "0", "--seeds": "1", option: value}
        assert cli.main(["sweep-speed", "--config", path, *sum(args.items(), ())]) == 2
        assert f"{option} expects comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify-bounds", "partition-report"])
    def test_shared_input_covers_every_class(self, tmp_path, capsys, command):
        # the shared-input construction gives every class to an edge, whatever
        # the regime, so the partial-coverage flag cannot excuse 2 classes on 1 edge
        text = BOUNDS.replace("regime = edge_noniid",
                              "regime = iid\nallow_partial_class_coverage = true")
        text = text.replace("classes_per_unit = 1", "classes_per_unit = 2")
        text = text.replace("edges = 4", "edges = 1")
        assert cli.main([command, "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "[partition] shared_input needs classes_per_unit*edges >= classes (2*1 < 4)" in err
        assert "edge_noniid" not in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_cluster_means(self, tmp_path, capsys, monkeypatch):
        # a stream whose cluster means all coincide, as an unlucky seed would draw
        real = datasets.rng.stream

        class Coincident:
            def normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(datasets.rng, "stream", lambda seed, tag: (
            Coincident() if tag == datasets.rng.SYNTHETIC_DATA else real(seed, tag)))
        assert cli.main(["run", "--config", write_cfg(tmp_path, MINI)]) == 2
        assert "[dataset] degenerate cluster means; choose another seed" in capsys.readouterr().err

    def test_split_leaves_an_empty_side(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINI.replace("samples_per_class = 50", "samples_per_class = 2"))
        assert cli.main(["run", "--config", path]) == 2
        assert "[dataset] split leaves an empty side" in capsys.readouterr().err

    def test_empty_shard(self, tmp_path, capsys):
        text = MINI.replace("samples_per_class = 50", "samples_per_class = 5")
        path = write_cfg(tmp_path, text.replace("vehicles = 1", "vehicles = 32"))
        assert cli.main(["run", "--config", path]) == 2
        assert "iid needs at least vehicle_count = 32 samples, have 16" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["multinomial_logistic", "quadratic"])
    @pytest.mark.parametrize("command", [["run"], ["verify-bounds"], ["partition-report"],
                                         ["sweep-speed", "--speeds", "0", "--seeds", "1"]],
                             ids=lambda command: command[0])
    def test_one_class_csv_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                    command, family):
        # a label is a class id, so one class means every label is 0 and
        # leaves no family anything to learn: exit 2 before any training
        ds = datasets.generate_synthetic(2, 3, 20, 3.0, 1)
        write_csv(datasets.LabeledDataset(ds.features, np.zeros(40, int), 2),
                  tmp_path / "d.csv")
        text = MINI.replace("kind = synthetic", f"kind = csv\ncsv_path = {tmp_path / 'd.csv'}")
        path = write_cfg(tmp_path, text.replace("multinomial_logistic", family))
        trained = []
        monkeypatch.setattr(engine, "run", lambda *a, **k: trained.append(a))
        assert cli.main([command[0], "--config", path, *command[1:]]) == 2
        assert "every label is 0, one class; classes must be >= 2" in capsys.readouterr().err
        assert not trained and not (tmp_path / "out").exists()

    def test_featureless_data_cannot_verify(self, tmp_path, capsys):
        write_csv(datasets.LabeledDataset(np.zeros((40, 3)), np.arange(40) % 2, 2),
                  tmp_path / "d.csv")
        text = MINI.replace("kind = synthetic", f"kind = csv\ncsv_path = {tmp_path / 'd.csv'}")
        text = text.replace("multinomial_logistic", "quadratic").replace("l2_reg = 0.01",
                                                                        "l2_reg = 0.0")
        assert cli.main(["verify-bounds", "--config", write_cfg(tmp_path, text)]) == 2
        assert "[dataset] beta and rho must be > 0, got beta=0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify-bounds"],
                                         ["sweep-speed", "--speeds", "0", "--seeds", "1"]])
    def test_logistic_without_l2_has_no_optimum(self, tmp_path, capsys, monkeypatch, command):
        # separable 2-class data: without l2 the logistic loss has no
        # minimizer, and the optimum's descent would run to its step cap
        text = MINI.replace("classes = 4", "classes = 2").replace("dim = 8", "dim = 2")
        text = text.replace("samples_per_class = 50", "samples_per_class = 20")
        path = write_cfg(tmp_path, text.replace("l2_reg = 0.01", "l2_reg = 0.0"))
        trained = []
        monkeypatch.setattr(engine, "run", lambda *a, **k: trained.append(a))
        t0 = time.perf_counter()
        assert cli.main([command[0], "--config", path, *command[1:]]) == 2
        assert time.perf_counter() - t0 < 1.0 and not trained
        assert "[model] l2_reg = 0 leaves the multinomial_logistic loss without a minimizer" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("file, where", [("exp.cfg", "line 3"), ("d.csv", "row 150")],
                             ids=["config", "csv"])
    def test_file_not_utf8(self, tmp_path, capsys, file, where):
        # one 0xff byte on the third line of the config, or in row 150 of
        # its CSV dataset, past the first 8 KiB: exit 2 naming where, not a
        # traceback
        path = csv_config(tmp_path, 4, per_class=50)
        lines = (tmp_path / file).read_bytes().split(b"\n")
        lines[int(where.split()[1]) - 1] += b"\xff"
        (tmp_path / file).write_bytes(b"\n".join(lines))
        assert cli.main(["run", "--config", path]) == 2
        assert f"{where}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_and_rounds(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MOBILE)
        assert cli.main(["run", "--config", path, "--seed", "-1"]) == 2
        assert "[hfl] seed must be >= 0" in capsys.readouterr().err
        assert cli.main(["sweep-speed", "--config", path, "--speeds", "0",
                         "--seeds", "-3"]) == 2
        assert "[mobility] seed must be >= 0" in capsys.readouterr().err
        assert cli.main(["partition-report", "--config", path, "--rounds", "-1"]) == 2
        assert "--rounds must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["--seed", "file"])
    def test_seed_of_64_bits_or_more(self, tmp_path, capsys, where):
        # a Philox key is one 64-bit word, where 2**64 + 1 would run as seed 1
        big = str(2**64 + 1)
        if where == "--seed":
            path, extra = write_cfg(tmp_path, MINI), ["--seed", big]
            sections = ["[dataset]", "[partition]", "[mobility]", "[hfl]"]
        else:
            path, extra = write_cfg(tmp_path, MINI.replace("seed = 2", f"seed = {big}")), []
            sections = ["[partition]"]
        assert cli.main(["run", "--config", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("seed must be") == len(sections)
        for section in sections:
            assert f"{section} seed must be < 2**64" in err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_keys_a_stream(self):
        validate(parse_config(MINI.format(out="o").replace("seed = 2", f"seed = {2**64 - 1}")))
        rng.stream(2**64 - 1, rng.PARTITION)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            rng.stream(2**64, rng.PARTITION)

    def test_internal_value_error_is_not_exit_2(self, tmp_path, monkeypatch):
        # engine.run's init-length check guards against a caller's bug
        monkeypatch.setattr(engine, "init_params", lambda spec, seed: np.zeros(3))
        with pytest.raises(ValueError, match="init params have wrong length"):
            cli.main(["run", "--config", write_cfg(tmp_path, MINI)])
