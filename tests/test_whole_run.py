"""Properties of whole runs over small random configurations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hflsim import config, datasets, engine, experiments, models


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
        sched = experiments.schedule(inst, rounds)
        association = np.zeros((rounds + 1, M), dtype=np.int64) if sched is None else sched[1]
        rows = res.metrics_csv_rows()
        assert len(rows) == 1 + rounds
        for j, row in enumerate(rows[1:], start=1):
            counts = [int(c) for c in row[-1].split(";")]
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
            assert res.trace.u_cloud.shape == res.cloud_history.shape
            scale = max(1.0, np.max(np.abs(res.cloud_history)))
            assert np.max(np.abs(res.trace.u_cloud - res.cloud_history)) <= 1e-12 * scale
        else:
            assert res.trace is None
