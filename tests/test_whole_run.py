"""Properties of whole runs over small random configurations."""

import copy
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import cli, config, datasets, engine, experiments, models


@st.composite
def small_configs(draw):
    cfg = config.ExperimentConfig()
    d, pt, mo, h, md = cfg.dataset, cfg.partition, cfg.mobility, cfg.hfl, cfg.model
    d.classes, d.dim, d.samples_per_class = 4, 4, 15
    d.seed = draw(st.integers(0, 50))
    mo.edges = draw(st.sampled_from([1, 4]))
    pt.regime = draw(st.sampled_from(
        [datasets.IID, datasets.LOCAL_NONIID] + [datasets.EDGE_NONIID] * (mo.edges == 4)))
    pt.classes_per_unit = 2
    pt.vehicles = draw(st.sampled_from([4, 8]) if pt.regime == datasets.EDGE_NONIID
                       else st.integers(2, 8))
    pt.seed = draw(st.integers(0, 50))
    mo.side_length, mo.intersection_zone = 200.0, 10.0
    mo.speed = draw(st.sampled_from([0.0, 15.0, 60.0]))
    mo.p_turn = draw(st.sampled_from([0.0, 0.5]))
    mo.seed = draw(st.integers(0, 50))
    h.eta = draw(st.sampled_from([0.01, 0.05]))
    h.tau_l, h.tau_e, h.cloud_epochs = (draw(st.integers(1, 3)) for _ in range(3))
    h.batch_size = draw(st.integers(1, 8))
    h.full_batch = draw(st.booleans())
    h.record_virtual = draw(st.booleans())
    h.seed = draw(st.integers(0, 50))
    md.family = draw(st.sampled_from(models.FAMILIES))
    if md.family == models.MLP1:
        md.hidden_width = 3
    return config.validate(cfg)


class TestWholeRun:
    @settings(max_examples=60, deadline=None)
    @given(cfg=small_configs())
    def test_membership_and_cloud_identity(self, cfg):
        inst = experiments.build_instance(cfg)
        res = experiments.run_instance(inst)
        M, N = cfg.partition.vehicles, cfg.mobility.edges
        rounds = cfg.hfl.cloud_epochs * cfg.hfl.tau_e
        _, association = experiments.schedule(inst, rounds)
        # the cloud model after each cloud round, read from the rounds
        clouds = [r.final_state.cloud_params.copy()
                  for r in engine.edge_rounds(cfg.hfl, inst.shards, inst.spec, association, N,
                                              eval_data=inst.test)
                  if r.metrics[-1].edge_round % cfg.hfl.tau_e == 0]
        assert len(res.metrics) == rounds
        for j, row in enumerate(res.metrics, start=1):
            counts = list(row.membership_counts)
            assert len(counts) == N and sum(counts) == M
            assert counts == np.bincount(association[j], minlength=N).tolist()
        # the aggregation weights of every round: the edges' shares of the
        # data sum to one, and so do the member weights of every occupied edge
        sizes = np.array([s.size for s in inst.shards], dtype=np.float64)
        A, theta = engine.membership_weights(association, sizes, N)
        assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-12)
        occupied = theta > 0
        assert np.all(np.abs(A.sum(axis=2)[occupied] - 1.0) <= 1e-12)
        assert np.all(A[~occupied] == 0.0)
        if cfg.hfl.record_virtual:
            # A2 at every cloud instant: the virtual u is the cloud model, to
            # rounding (1e-12 of the parameters' scale, at least 1)
            assert res.trace.u_cloud.shape == (len(clouds) + 1, len(clouds[0]))
            scale = max(1.0, np.max(np.abs(clouds)))
            assert np.max(np.abs(res.trace.u_cloud[1:] - clouds)) <= 1e-12 * scale
        else:
            assert res.trace is None


def reference_sweep(cfg, speeds, seeds):
    """The sweep as a per-cell loop: a fresh instance and a training run
    for every (speed, seed), against the ceiling of a fresh instance."""
    ceiling = experiments.centralized_ceiling(experiments.build_instance(cfg))
    fractions = list(experiments.DEFAULT_TARGET_FRACTIONS)
    ref = experiments.SweepResult(speeds=speeds, seeds=seeds, ceiling=ceiling,
                                  targets=[f * ceiling for f in fractions],
                                  target_fractions=fractions)
    for v in speeds:
        for s in seeds:
            one = copy.deepcopy(cfg)
            one.mobility.speed, one.mobility.seed = v, s
            ref.cells.append(experiments._sweep_cell(experiments.build_instance(one),
                                                     ref.targets, None))
    return ref


@st.composite
def small_sweeps(draw):
    cfg = config.ExperimentConfig()
    d, pt, mo, h, md = cfg.dataset, cfg.partition, cfg.mobility, cfg.hfl, cfg.model
    d.classes, d.dim, d.samples_per_class = 4, 4, 15
    d.seed = draw(st.integers(0, 50))
    mo.edges = draw(st.sampled_from([1, 4]))
    pt.regime = draw(st.sampled_from([datasets.IID] + [datasets.EDGE_NONIID] * (mo.edges == 4)))
    pt.classes_per_unit = 2
    pt.vehicles = draw(st.sampled_from([4, 8]))
    pt.seed = draw(st.integers(0, 50))
    mo.side_length, mo.intersection_zone = 200.0, 10.0
    mo.p_turn = draw(st.sampled_from([0.0, 0.5]))
    h.eta = 0.05
    h.tau_l, h.tau_e, h.cloud_epochs = (draw(st.integers(1, 3)) for _ in range(3))
    h.batch_size = draw(st.integers(1, 8))
    h.seed = draw(st.integers(0, 50))
    md.family = draw(st.sampled_from(models.FAMILIES))
    md.l2_reg = 0.05  # a well-conditioned optimum keeps the convex ceilings quick
    if md.family == models.MLP1:
        md.hidden_width = 3
    else:  # the divergence columns need a convex family
        h.record_virtual = draw(st.booleans())
    speeds = draw(st.lists(st.sampled_from([0.0, 2.0, 30.0]), min_size=1, max_size=3,
                           unique=True))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    return config.validate(cfg), speeds, seeds, draw(st.sampled_from([1, 2]))


class TestSweepDeduplication:
    """A sweep trains each distinct association schedule once; its cells
    must be those of training every cell on its own."""

    @settings(max_examples=40, deadline=None)
    @given(sweep=small_sweeps())
    def test_random_sweeps_equal_per_cell_loop(self, sweep):
        cfg, speeds, seeds, parallel = sweep
        res = experiments.sweep_speed(cfg, speeds, seeds, parallel=parallel)
        ref = reference_sweep(cfg, speeds, seeds)
        assert (res.ceiling, res.targets, res.speeds) == (ref.ceiling, ref.targets, ref.speeds)
        np.testing.assert_equal([astuple(c) for c in res.cells], [astuple(c) for c in ref.cells])

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_files_equal_per_cell_loop(self, tmp_path, monkeypatch, parallel):
        # edge-skewed placement: the two speed-0 cells share one schedule
        cfg = config.ExperimentConfig()
        cfg.dataset.classes, cfg.dataset.dim, cfg.dataset.samples_per_class = 4, 8, 50
        cfg.partition.regime, cfg.partition.classes_per_unit = datasets.EDGE_NONIID, 1
        cfg.partition.vehicles = 8
        cfg.mobility.side_length, cfg.mobility.intersection_zone = 200.0, 10.0
        cfg.hfl.tau_l, cfg.hfl.tau_e, cfg.hfl.cloud_epochs = 3, 5, 2
        cfg.hfl.record_virtual = True
        cfg.output.directory = str(tmp_path / "out")
        cfg = config.validate(cfg)
        speeds, seeds = [0.0, 30.0], [1, 2]
        ref = reference_sweep(cfg, speeds, seeds)

        reported = []
        res = experiments.sweep_speed(cfg, speeds, seeds, parallel=parallel,
                                      on_cell=reported.append)
        assert res.cells == reported == ref.cells

        path = tmp_path / "exp.cfg"
        path.write_text(config.serialize_config(cfg))
        argv = ["sweep-speed", "--config", str(path), "--speeds", "0,30", "--seeds", "1,2",
                "--parallel", str(parallel)]
        assert cli.main(argv) == 0

        # the reference's files: the same command, with the per-cell loop's
        # result in place of the sweep
        def replay(*args, on_cell, **kwargs):
            for c in ref.cells:
                on_cell(c)
            return ref

        monkeypatch.setattr(experiments, "sweep_speed", replay)
        assert cli.main(argv + ["--out", str(tmp_path / "ref")]) == 0
        for name in ("sweep.csv", "sweep_summary.csv", "sweep_manifest.json"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name
