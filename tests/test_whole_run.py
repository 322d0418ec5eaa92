"""Properties of whole runs over small random configurations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hflsim import config, datasets, experiments, models


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
        res = experiments.run_instance(experiments.build_instance(cfg))
        M, N = cfg.partition.vehicles, cfg.mobility.edges
        rows = res.metrics_csv_rows()
        assert len(rows) == 1 + cfg.hfl.cloud_epochs * cfg.hfl.tau_e
        for row in rows[1:]:
            counts = [int(c) for c in row[-1].split(";")]
            assert len(counts) == N and sum(counts) == M
        if cfg.hfl.record_virtual:
            # A2 at every cloud instant: the virtual u is the cloud model, to
            # rounding (1e-12 of the parameters' scale, at least 1)
            assert res.trace.u_cloud.shape == res.cloud_history.shape
            scale = max(1.0, np.max(np.abs(res.cloud_history)))
            assert np.max(np.abs(res.trace.u_cloud - res.cloud_history)) <= 1e-12 * scale
        else:
            assert res.trace is None
