import copy
import json
import os
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import analysis, cli, config, datasets, engine, experiments, mobility, models
from hflsim.analysis import (
    BoundInputs, Check, check_gap_bound, choose_epsilon, drift_checks, drift_recursion,
    estimate_divergences, mobility_mixing_report, shared_input_delta_m, violations,
)
from test_acceptance import SHARED_INPUT_CFG

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def drift_bound(tau0, delta, Delta, eta, beta):
    """The closed form the recursion solves with no membership change,
    co-members holding the same data and every beta_m = beta: Delta =
    delta gives a vehicle's bound, an edge's Delta_n an edge's and 0 the
    central U, tau0 steps after a cloud round."""
    return delta / beta * ((1.0 + eta * beta) ** tau0 - 1.0) - eta * tau0 * (delta - Delta)


def poly_fraction(tau, eta, delta, beta):
    """Exact-rational drift_bound(tau, delta, 0, eta, beta)."""
    eta, delta, beta = Fraction(eta), Fraction(delta), Fraction(beta)
    return float(delta / beta * ((1 + eta * beta) ** tau - 1) - tau * eta * delta)


def make_schedule(eta=0.1, tau_l=6, tau_e=10, K=3):
    return engine.HflConfig(eta=eta, tau_l=tau_l, tau_e=tau_e, cloud_epochs=K)


def hand_run(hist, delta_m, Delta_n, beta_m, eta=0.1, tau_l=2, tau_e=2, K=1):
    """A trace, estimates and inputs that the recursion reads, for an
    association history and constants given by hand; equal shards."""
    hist = np.asarray(hist)
    M = hist.shape[1]
    hfl = make_schedule(eta=eta, tau_l=tau_l, tau_e=tau_e, K=K)
    Delta_n = np.asarray(Delta_n, dtype=float)
    A = engine.membership_weights(hist, np.ones(M), Delta_n.shape[1])[0]
    trace = SimpleNamespace(
        hfl=hfl, association_history=hist, total_iterations=K * tau_e * tau_l,
        weights=np.concatenate([np.full((len(hist), 1, M), 1.0 / M), A], axis=1))
    est = analysis.DivergenceEstimates(
        delta_m=np.asarray(delta_m, dtype=float), delta=float(np.mean(delta_m)),
        alpha=np.full(M, 1.0 / M), Delta_n_bracket=Delta_n,
        Delta_bracket=np.nanmean(Delta_n, axis=1), grad_norm=np.ones(1))
    inputs = BoundInputs(beta=max(beta_m), beta_m=np.asarray(beta_m, dtype=float), rho=1.0,
                         epsilon=1.0, w_star=np.zeros(2), f_star=0.0)
    return trace, est, inputs


class TestDriftRecursion:
    def test_hand_values(self):
        # one vehicle, delta = 2, eta*beta = 0.1: B = 0.2 then 1.1*0.2 +
        # 0.2 = 0.42, and U = 0 then eta*beta*0.2 = 0.02
        trace, est, inputs = hand_run([[0]] * 3, [2.0], [[2.0]] * 3, [1.0])
        b = drift_recursion(trace, est, inputs)
        assert b.vehicle[:2, 0] == pytest.approx([0.2, 0.42], abs=1e-15)
        assert b.central[:2] == pytest.approx([0.0, 0.02], abs=1e-15)
        # the edge of its one member: E = B
        assert b.edge[:, 0] == pytest.approx(b.vehicle[:, 0], abs=1e-15)

    def test_each_vehicle_steps_with_its_own_smoothness(self):
        # two vehicles on edges of their own, beta_m 1 and 3, two steps
        trace, est, inputs = hand_run([[0, 1]] * 3, [2.0, 2.0], [[2.0, 2.0]] * 3, [1.0, 3.0])
        b = drift_recursion(trace, est, inputs)
        assert b.vehicle[1].tolist() == [(1 + 0.1 * bm) * (0.1 * 2.0) + 0.1 * 2.0
                                         for bm in (1.0, 3.0)]

    def test_zero_divergence_zero_bound(self):
        trace, est, inputs = hand_run([[0, 1]] * 5, [0.0, 0.0], [[0.0, 0.0]] * 5, [1.0, 3.0],
                                      K=2)
        b = drift_recursion(trace, est, inputs)
        for a in (b.vehicle, b.edge, b.central):
            assert not a.any()

    @settings(max_examples=50, deadline=None)
    @given(tau=st.integers(1, 40), eta=st.floats(1e-4, 0.5),
           delta=st.floats(0.0, 5.0), beta=st.floats(0.1, 4.0))
    def test_central_matches_rational_oracle(self, tau, eta, delta, beta):
        # one vehicle on one edge, one cloud epoch of tau steps
        trace, est, inputs = hand_run([[0]] * 2, [delta], [[delta]] * 2, [beta], eta=eta,
                                      tau_l=tau, tau_e=1)
        got = drift_recursion(trace, est, inputs).central[-1]
        assert got == pytest.approx(poly_fraction(tau, eta, delta, beta), rel=1e-10, abs=1e-12)

    def test_restart_at_a_membership_change(self):
        # single-member edges, each Delta_n its member's delta_m: vehicles
        # 0 and 1 swap edges 0 and 1 after round 1, and after round 2
        # vehicle 2 leaves edge 2 empty and joins vehicle 0 on edge 1
        hist = [[0, 1, 2], [1, 0, 2], [1, 0, 1]]
        delta, beta = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]
        trace, est, inputs = hand_run(hist, delta, [[1.0, 2.0, 3.0], [2.0, 1.0, 3.0],
                                                    [2.0, 1.5, np.nan]], beta, tau_l=1)
        b = drift_recursion(trace, est, inputs)
        B1, B2 = b.vehicle
        # edges 0 and 1 restart at their new member's bound, where their
        # own recursions stood at B1[0] and B1[1]
        assert b.edge[0].tolist() == [B1[1], B1[0], B1[2]] and B1[0] != B1[1]
        # every vehicle took its edge's bound, its own, and stepped once
        assert B2.tolist() == [(1 + 0.1 * bm) * B + 0.1 * d for B, bm, d in zip(B1, beta, delta)]
        assert b.edge[1, 1] == pytest.approx((B2[0] + B2[2]) / 2, rel=1e-15)
        assert np.isnan(b.edge[1, 2])

    def test_linear_in_the_divergences(self):
        _, _, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        b = drift_recursion(tr, est, inputs)
        half = drift_recursion(tr, est.scaled(0.5), inputs)
        for a, h in ((b.vehicle, half.vehicle), (b.edge, half.edge), (b.central, half.central)):
            np.testing.assert_allclose(h, 0.5 * a, rtol=1e-12)

    @pytest.mark.parametrize("eta", [0.05, 0.01, 0.001])
    def test_reduces_to_closed_forms(self, eta):
        # A3's config at speed 0: no membership changes, co-members hold
        # the same data and the shared features give every beta_m the
        # union's beta (to rounding)
        cfg = config.parse_config(SHARED_INPUT_CFG.format(speed=0.0, eta=eta, K=3))
        inst = experiments.build_instance(cfg)
        tr = experiments.run_instance(inst, record_virtual=True, full_batch=True).trace
        suite = experiments.verify_bounds(cfg)
        est, inputs = suite.estimates, suite.inputs
        assert np.all(tr.association_history == tr.association_history[0])
        b = drift_recursion(tr, est, inputs)
        hfl, beta = tr.hfl, inputs.beta
        span = hfl.tau_l * hfl.tau_e
        tau = np.arange(1, tr.total_iterations + 1)
        tau0 = (tau - (tau - 1) // span * span)[:, None]
        A = engine.membership_weights(tr.association_history[0], est.alpha,
                                      est.Delta_n_bracket.shape[1])[0]
        vehicle = drift_bound(tau0, est.delta_m, est.delta_m, hfl.eta, beta)
        edge = drift_bound(tau0, A @ est.delta_m, est.Delta_n_bracket[0], hfl.eta, beta)
        central = drift_bound(span, est.delta, 0.0, hfl.eta, beta)
        np.testing.assert_allclose(b.vehicle, vehicle, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b.edge, edge, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b.central[span - 1::span], central, rtol=1e-12, atol=0)


class TestEstimateDivergences:
    def test_identical_shards_zero(self):
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [base] * 4
        spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=5, class_count=3)
        hist = np.zeros((1, 4), dtype=np.int64)
        probes = [np.zeros(models.param_length(spec)), np.ones(models.param_length(spec))]
        est = estimate_divergences(spec, shards, hist, probes)
        assert np.max(est.delta_m) <= 1e-12
        assert est.delta <= 1e-12
        assert np.nanmax(est.Delta_bracket) <= 1e-12

    def test_shared_input_closed_form(self):
        shards = datasets.shared_input_shards(8, 4, 1, 4, 30, 6, seed=2)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        hist = datasets.home_edges(8, 4)[None]
        g = np.random.default_rng(0)
        probes = [g.normal(size=24) for _ in range(3)]
        est = estimate_divergences(spec, shards, hist, probes)
        exact = shared_input_delta_m(shards)
        assert np.max(np.abs(est.delta_m - exact)) <= 1e-10

    def test_iid_below_edge_noniid(self):
        ds = datasets.generate_synthetic(4, 6, 800, 3.0, seed=21)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        probes = [np.zeros(24)]
        sh_i = datasets.partition(
            ds, datasets.IID, vehicle_count=32, edge_count=4, seed=22)
        sh_e = datasets.partition(
            ds, datasets.EDGE_NONIID, vehicle_count=32, edge_count=4,
            classes_per_unit=1, seed=22)
        hist = datasets.home_edges(32, 4)[None]
        est_i = estimate_divergences(spec, sh_i, hist, probes)
        est_e = estimate_divergences(spec, sh_e, hist, probes)
        assert est_i.delta_m.max() < est_e.delta_m.max()
        # the edge-level divergence collapses for iid partitions
        assert est_i.Delta_bracket[0] < 0.05 * est_e.Delta_bracket[0]

    def test_convex_combination_identities(self):
        shards = datasets.shared_input_shards(8, 4, 2, 4, 30, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        home = datasets.home_edges(8, 4)
        hist = np.array([home, (home + 1) % 4])
        probes = [np.zeros(24), np.ones(24)]
        est = estimate_divergences(spec, shards, hist, probes)
        # delta and Delta^[j] are the alpha- and theta-weighted sums of their parts
        assert abs(float(est.alpha @ est.delta_m) - est.delta) <= 1e-12
        sizes = np.array([s.size for s in shards], dtype=np.float64)
        theta = engine.membership_weights(hist, sizes, 4)[1]
        Delta = (theta * np.nan_to_num(est.Delta_n_bracket)).sum(axis=1)
        assert np.max(np.abs(Delta - est.Delta_bracket)) <= 1e-12

    def test_aggregates_are_convex_combinations(self):
        shards = datasets.shared_input_shards(8, 4, 2, 4, 30, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        hist = datasets.home_edges(8, 4)[None]
        est = estimate_divergences(spec, shards, hist, [np.zeros(24)])
        assert est.delta <= est.delta_m.max() + 1e-12
        # the triangle inequality: an edge's divergence is at most its
        # members' weighted delta_m
        sizes = np.array([s.size for s in shards], dtype=np.float64)
        A, _ = engine.membership_weights(hist, sizes, 4)
        assert np.all(est.Delta_n_bracket <= A @ est.delta_m + 1e-12)

    def test_no_probe_rejected(self):
        spec = models.ModelSpec(models.QUADRATIC, dim=5, class_count=3)
        base = datasets.generate_synthetic(3, 5, 10, 3.0, seed=4)
        with pytest.raises(ValueError, match="need at least one probe point"):
            estimate_divergences(spec, [base], np.zeros((1, 1), dtype=int), np.empty((0, 15)))

    def test_closed_form_needs_shared_features(self):
        shards = datasets.shared_input_shards(8, 4, 1, 4, 30, 6, seed=2)
        shards[3] = datasets.LabeledDataset(shards[3].features + 1.0, shards[3].labels, 4)
        with pytest.raises(ValueError, match="shards do not share a feature matrix"):
            shared_input_delta_m(shards)

    def test_mlp_rejected(self):
        spec = models.ModelSpec(models.MLP1, dim=4, class_count=3, hidden_width=4)
        base = datasets.generate_synthetic(3, 4, 10, 3.0, seed=4)
        with pytest.raises(models.UnsupportedModelError):
            estimate_divergences(spec, [base],
                                 np.zeros((1, 1), dtype=int), [np.zeros(1)])


def loop_divergences(spec, shards, hist, probes):
    """estimate_divergences one probe at a time, one gradient_xy call per
    shard, the edge gradients of the distinct association rows through one
    product and norm per probe, expanded to the brackets afterwards, and
    the norm of each probe's full gradient."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    M = len(shards)
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    alpha = sizes / sizes.sum()
    hist = np.asarray(hist)
    N = int(hist.max()) + 1
    rows, inv = np.unique(hist, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    A_rows, theta_rows = engine.membership_weights(rows, sizes, N)
    theta = theta_rows[inv]
    occupied = theta > 0
    delta_m = np.zeros(M)
    Delta_u = np.zeros((rows.shape[0], N))
    grad_norm = []
    for w in probes:
        G = np.stack([models.gradient_xy(spec, w, s.features, s.labels) for s in shards])
        gF = alpha @ G
        grad_norm.append(np.linalg.norm(gF))
        delta_m = np.maximum(delta_m, np.linalg.norm(G - gF, axis=1))
        ge = A_rows.reshape(-1, M) @ G
        Delta_u = np.maximum(Delta_u, np.linalg.norm(ge - gF, axis=1).reshape(-1, N))
    Delta_n = np.where(occupied, Delta_u[inv], np.nan)
    return dict(delta_m=delta_m, delta=float(alpha @ delta_m), alpha=alpha,
                Delta_n_bracket=Delta_n,
                Delta_bracket=np.nansum(np.where(occupied, theta * Delta_n, 0.0), axis=1),
                grad_norm=np.array(grad_norm))


def bracket_product_Delta_n(spec, shards, hist, probes):
    """Delta_n with one product row per (bracket, edge), repeats included:
    the same values, but BLAS may round a row of this larger product
    differently."""
    M = len(shards)
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    alpha = sizes / sizes.sum()
    N = int(hist.max()) + 1
    A, theta = engine.membership_weights(hist, sizes, N)
    Delta_n = np.zeros((hist.shape[0], N))
    for w in probes:
        G = np.stack([models.gradient_xy(spec, w, s.features, s.labels) for s in shards])
        ge = A.reshape(-1, M) @ G
        Delta_n = np.maximum(Delta_n, np.linalg.norm(ge - alpha @ G, axis=1).reshape(-1, N))
    return np.where(theta > 0, Delta_n, np.nan)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def local_noniid_unequal():
    """Label-skewed shards of three sizes, two of them shared by two shards."""
    ds = datasets.generate_synthetic(4, 6, 60, 3.0, seed=21)
    shards = datasets.partition(
        ds, datasets.LOCAL_NONIID, vehicle_count=5, edge_count=4, classes_per_unit=1, seed=3)
    return [s.subset(np.arange(s.size - 3 * (m % 3))) for m, s in enumerate(shards)]


def two_class_shards():
    """Two classes, drawn independently of the features."""
    g = np.random.default_rng(8)
    return [datasets.LabeledDataset(g.normal(size=(n, 5)), g.integers(0, 2, size=n), 2)
            for n in (12, 9, 12, 7)]


DIVERGENCE_CASES = {
    "quadratic_shared_input": (
        lambda: datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5),
        models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)),
    "quadratic_two_classes": (
        two_class_shards,
        models.ModelSpec(models.QUADRATIC, dim=5, class_count=2, l2_reg=0.0)),
    "logistic_local_noniid_unequal": (
        local_noniid_unequal,
        models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=6, class_count=4, l2_reg=0.01)),
}


class TestDivergencesMatchProbeLoop:
    """The chunked, shard-grouped estimate equals the per-probe loop bit
    for bit, whatever the chunk size."""

    @staticmethod
    def history(M, rows, N, seed):
        # brackets drawn from a few distinct rows, so rows repeat
        g = np.random.default_rng(seed)
        base = g.integers(0, N, size=(3, M))
        base[0, -1] = N - 1  # the highest edge is named at least once
        return base[g.integers(0, 3, size=rows)]

    @staticmethod
    def spy_chunks(monkeypatch):
        sizes = []
        real = analysis.gradient_probes

        def spy(spec, W, X, T, **buffers):
            sizes.append(W.shape[0])
            return real(spec, W, X, T, **buffers)

        monkeypatch.setattr(analysis, "gradient_probes", spy)
        return sizes

    def check(self, spec, shards, hist, probes):
        est = estimate_divergences(spec, shards, hist, probes)
        for name, want in loop_divergences(spec, shards, hist, probes).items():
            assert_same_bits(getattr(est, name), want)
        return est

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(sorted(DIVERGENCE_CASES)), N=st.integers(1, 4),
           data=st.data(), chunk_bytes=st.sampled_from([1, 40_000, 10**9]),
           seed=st.integers(0, 2**16))
    def test_random_histories(self, case, N, data, chunk_bytes, seed):
        make, spec = DIVERGENCE_CASES[case]
        shards = make()
        M = len(shards)
        base = data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=M, max_size=M),
                                  min_size=1, max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12))
        hist = np.array([base[i] for i in picks])
        probes = np.random.default_rng(seed).normal(size=(3, models.param_length(spec)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "CHUNK_BYTES", chunk_bytes)
            est = self.check(spec, shards, hist, probes)
        # one product row per bracket agrees to rounding, relative to the
        # gradient scale (a Delta_n can be a rounding residue near 0)
        old = bracket_product_Delta_n(spec, shards, hist, probes)
        assert_same_bits(np.isnan(est.Delta_n_bracket), np.isnan(old))
        scale = max(np.linalg.norm(models.gradient_xy(spec, w, s.features, s.labels))
                    for w in probes for s in shards)
        err = np.abs(np.nan_to_num(est.Delta_n_bracket) - np.nan_to_num(old))
        assert np.all(err <= 1e-12 * np.fmax(old, scale))

    @pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
    @pytest.mark.parametrize("chunk_bytes", [1, 40_000, 10**9])
    def test_repeated_rows_any_chunk(self, case, chunk_bytes, monkeypatch):
        make, spec = DIVERGENCE_CASES[case]
        shards = make()
        hist = self.history(len(shards), 23, 4, seed=len(case))
        probes = np.random.default_rng(1).normal(size=(7, models.param_length(spec)))
        monkeypatch.setattr(analysis, "CHUNK_BYTES", chunk_bytes)
        self.check(spec, shards, hist, probes)

    def test_partial_last_chunk(self, monkeypatch):
        shards, spec = local_noniid_unequal(), DIVERGENCE_CASES["logistic_local_noniid_unequal"][1]
        hist = self.history(len(shards), 11, 4, seed=2)
        probes = np.random.default_rng(3).normal(size=(7, models.param_length(spec)))
        # a probe takes its scores on the largest group of equal-size shards,
        # (G*n, C), its shard gradients twice, in the group buffers and in
        # the (M, P) block, and the edge gradients of the distinct rows,
        # (R*4, P); budget three probes
        sizes = np.array([s.size for s in shards])
        group_rows = max(n * np.count_nonzero(sizes == n) for n in sizes)
        per_probe = 8 * (int(group_rows) * spec.class_count
                         + (2 * len(shards) + len(np.unique(hist, axis=0)) * 4)
                         * models.param_length(spec))
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 3 * per_probe)
        chunks = self.spy_chunks(monkeypatch)
        self.check(spec, shards, hist, probes)
        # one call per shard size and chunk: 3 + 3 + 1 probes
        assert sorted(set(chunks)) == [1, 3] and sum(chunks) == 7 * len({s.size for s in shards})
        # a byte less holds two probes a chunk: 2 + 2 + 2 + 1
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 3 * per_probe - 1)
        chunks.clear()
        self.check(spec, shards, hist, probes)
        assert sorted(set(chunks)) == [1, 2] and sum(chunks) == 7 * len({s.size for s in shards})

    def test_single_probe(self):
        make, spec = DIVERGENCE_CASES["quadratic_two_classes"]
        shards = make()
        self.check(spec, shards, self.history(len(shards), 5, 2, seed=4),
                   np.ones(models.param_length(spec)))

    def test_never_occupied_last_edge(self):
        # the topology has 4 edges, the history names 0..2 and leaves edge 1
        # empty in some brackets: those entries are NaN in both
        make, spec = DIVERGENCE_CASES["quadratic_shared_input"]
        shards = make()
        hist = np.array([[m % 3 for m in range(8)], [0, 2] * 4, [m % 3 for m in range(8)]] * 4)
        est = self.check(spec, shards, hist, np.random.default_rng(5).normal(size=(4, 24)))
        assert est.Delta_n_bracket.shape == (12, 3)
        assert np.isnan(est.Delta_n_bracket[1, 1]) and not np.isnan(est.Delta_n_bracket[0, 1])

    def test_recorded_run(self):
        # the verify-bounds shape: a mobile run's history and trajectory probes
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        probes = np.vstack([tr.vtilde, np.zeros(tr.vtilde.shape[1])])
        shards = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
        assert len(np.unique(tr.association_history, axis=0)) < len(tr.association_history)
        self.check(spec, shards, tr.association_history, probes)


RHO_CONFIG = """
[dataset]
classes = 4
dim = 6
samples_per_class = 30

[partition]
regime = local_noniid
classes_per_unit = 1
vehicles = 8
shared_input = {shared}
shared_samples_per_shard = 20

[mobility]
edges = 4
speed = 30.0

[hfl]
eta = 0.05
tau_l = 3
tau_e = 4
cloud_epochs = 2

[model]
family = {family}
l2_reg = 0.05
"""


class TestRhoFromDivergenceGradients:
    @pytest.mark.parametrize("family,shared", [("quadratic", "true"),
                                               ("multinomial_logistic", "false")])
    @pytest.mark.parametrize("chunk_bytes", [1, 40_000, 10**9])
    def test_max_of_probe_loop_norms(self, family, shared, chunk_bytes, monkeypatch):
        cfg = config.parse_config(RHO_CONFIG.format(family=family, shared=shared))
        monkeypatch.setattr(analysis, "CHUNK_BYTES", chunk_bytes)
        rho = experiments.verify_bounds(cfg).inputs.rho
        inst = experiments.build_instance(cfg)
        tr = experiments.run_instance(inst, record_virtual=True, full_batch=True).trace
        norms = loop_divergences(inst.spec, inst.shards, tr.association_history,
                                 tr.vtilde)["grad_norm"]
        assert type(rho) is float and rho == max(norms.tolist())
        # the shard-weighted gradient is the union's up to rounding
        X, y = inst.union.features, inst.union.labels
        union = max(np.linalg.norm(models.gradient_xy(inst.spec, w, X, y)) for w in tr.vtilde)
        assert rho == pytest.approx(union, rel=1e-12)


class TestRhoOverVtildeRows:
    def test_largest_norm_off_the_vtilde_rows(self, monkeypatch):
        # the run starts halfway to the optimum, where the quadratic's
        # gradient is half the origin's, and descends from there: every
        # vtilde row's norm is below the origin probe's
        cfg = config.parse_config(RHO_CONFIG.format(family="quadratic", shared="true"))
        inst = experiments.build_instance(cfg)
        w0 = 0.5 * models.solve_optimum(inst.spec, inst.union).w
        monkeypatch.setattr(engine, "init_params", lambda spec, seed: w0.copy())
        calls = []
        real = analysis.estimate_divergences

        def spy(spec, shards, hist, probes):
            calls.append((probes, real(spec, shards, hist, probes)))
            return calls[-1][1]

        monkeypatch.setattr(analysis, "estimate_divergences", spy)
        rho = experiments.verify_bounds(cfg).inputs.rho
        (probes, est), = calls
        V = cfg.hfl.cloud_epochs * cfg.hfl.tau_e * cfg.hfl.tau_l + 1  # the vtilde rows lead
        assert np.array_equal(probes[-2], np.zeros(probes.shape[1]))  # the origin
        assert int(np.argmax(est.grad_norm)) == len(probes) - 2
        assert rho == max(est.grad_norm[:V].tolist()) < est.grad_norm[-2]
        X, y = inst.union.features, inst.union.labels
        vtilde_norms = [np.linalg.norm(models.gradient_xy(inst.spec, w, X, y)) for w in probes[:V]]
        assert rho == pytest.approx(max(vtilde_norms), rel=1e-12)


def bound_suite_run(speed, K=4, eta=0.05, seed=13):
    shards = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
    spec = models.ModelSpec(models.QUADRATIC, dim=8, class_count=4, l2_reg=0.05)
    net = mobility.RoadNetwork()
    veh = mobility.init_positions(net, 32, seed=11, sides=datasets.home_edges(32, 4))
    cfg = engine.HflConfig(eta=eta, tau_l=6, tau_e=10, cloud_epochs=K, seed=seed,
                           record_virtual=True, full_batch=True)
    _, assoc = mobility.schedule(net, *veh, speed, K * cfg.tau_e)
    res = engine.run(cfg, shards, spec, assoc, net.edge_count)
    union = datasets.union_of_shards(shards)
    opt = models.solve_optimum(spec, union)
    tr = res.trace
    probes = np.vstack([tr.vtilde, np.zeros(tr.vtilde.shape[1]), opt.w])
    est = estimate_divergences(spec, shards, tr.association_history, probes)
    beta = models.estimate_constants(spec, union)
    beta_m = np.array([models.estimate_constants(spec, s) for s in shards])
    rho = max(est.grad_norm[:len(tr.vtilde)].tolist())
    eps = choose_epsilon(analysis.epoch_losses(spec, union, tr), opt.value)
    inputs = BoundInputs(beta=beta, beta_m=beta_m, rho=rho, epsilon=max(eps, 1e-12),
                         w_star=opt.w, f_star=opt.value)
    return spec, union, tr, est, inputs


VEHICLE, EDGE, RECURSION, CENTRAL = range(4)  # drift_checks' rows


def found(tr, bounds, inputs, *rows):
    """The violations of drift_checks' rows given, in the order given."""
    checks = drift_checks(tr, bounds, inputs)
    return [v for r in rows for v in violations(checks[r])]


def central_row(tr, est, inputs):
    """The central drift row verify_bounds hands check_gap_bound."""
    return drift_checks(tr, drift_recursion(tr, est, inputs), inputs)[CENTRAL]


class TestInequalitySuite:
    def test_all_checks_pass_on_construction(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0)
        bounds = drift_recursion(tr, est, inputs)
        assert found(tr, bounds, inputs, VEHICLE, EDGE, RECURSION, CENTRAL) == []
        assert central_row(tr, est, inputs).satisfied.all()

    def test_corrupted_delta_detected(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        bounds = drift_recursion(tr, est.scaled(0.5), inputs)
        assert len(found(tr, bounds, inputs, VEHICLE, EDGE)) > 0

    def test_recursion_zero_after_cloud_instant(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        span = tr.hfl.tau_l * tr.hfl.tau_e
        for k in range(tr.hfl.cloud_epochs):
            assert tr.gap_u_vtilde[k * span + 1] <= 1e-9


# Label-skewed shards of different feature spread: at eta*beta = 0.4995 a
# shard's beta_m reaches 118.87 against the union's 33.30
NON_SHARED_CONFIG = """
[dataset]
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
speed = {speed}

[hfl]
eta = 0.015
tau_l = 2
tau_e = 3
cloud_epochs = 2

[model]
family = quadratic
l2_reg = 0.05
"""


class TestRecursionOffTheConstruction:
    """Each vehicle steps on its own shard, so the recursion's smoothness
    is the largest shard's beta_m, not the union's beta."""

    @pytest.mark.parametrize("speed", [60.0, 0.0])
    def test_honest_run_holds(self, speed):
        cfg = config.parse_config(NON_SHARED_CONFIG.format(speed=speed))
        suite = experiments.verify_bounds(cfg)
        assert suite.violations == []
        inst = experiments.build_instance(cfg)
        tr = experiments.run_instance(inst, record_virtual=True, full_batch=True).trace
        inputs = suite.inputs
        assert inputs.beta_m.tolist() == [models.estimate_constants(inst.spec, s)
                                          for s in inst.shards]
        assert inputs.beta < inputs.beta_m.max()
        # with the union's beta a local step exceeds its bound, and the
        # scalar oracle lists the same violations
        union_only = replace(inputs, beta_m=np.array([inputs.beta]))
        got = found(tr, drift_recursion(tr, suite.estimates, union_only), union_only, RECURSION)
        assert any(v.check == "recursion[local]" for v in got)
        assert as_tuples(got) == loop_recursion(tr, union_only)


# Off the construction: label-skewed shards of their own features, on
# which the closed-form bounds failed at eta = 0.001
HONEST_CONFIG = """
[dataset]
classes = 4
dim = 8
samples_per_class = 80

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 16

[mobility]
edges = 4
speed = {speed}

[hfl]
eta = {eta}
tau_l = 6
tau_e = 10
cloud_epochs = 3
full_batch = true

[model]
family = {family}
l2_reg = 0.05
"""

HONEST_RUNS = {
    "shared_input": lambda speed, eta: SHARED_INPUT_CFG.format(speed=speed, eta=eta, K=3),
    "quadratic": lambda speed, eta: HONEST_CONFIG.format(speed=speed, eta=eta,
                                                         family="quadratic"),
    "logistic": lambda speed, eta: HONEST_CONFIG.format(speed=speed, eta=eta,
                                                        family="multinomial_logistic"),
}


class TestHonestRuns:
    """Exact or probe-estimated constants on a run's own trajectory: no
    drift bound may fail, whatever the step size or speed."""

    @pytest.mark.parametrize("speed", [0.0, 30.0])
    @pytest.mark.parametrize("eta", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("run", sorted(HONEST_RUNS))
    def test_no_violation(self, run, eta, speed):
        cfg = config.parse_config(HONEST_RUNS[run](speed, eta))
        assert [str(v) for v in experiments.verify_bounds(cfg).violations] == []

    def test_gap_bound_falls_with_speed(self, tmp_path):
        # the catalog's gap-bound instance applies at every speed, and
        # mixing lowers it
        text = open(os.path.join(ROOT, "configs", "gap_bound.cfg")).read()
        bounds = []
        for speed in (0.0, 5.0, 30.0):
            path = tmp_path / f"v{speed:g}.cfg"
            path.write_text(text.replace("speed = 0.0", f"speed = {speed}"))
            out = tmp_path / f"out{speed:g}"
            assert cli.main(["verify-bounds", "--config", str(path), "--out", str(out)]) == 0
            summary = json.loads((out / "bound_summary.json").read_text())
            assert summary["applicable"], summary["conditions"]
            bounds.append(summary["bound"])
        assert bounds[0] > bounds[1] > bounds[2]


class TestCentralRow:
    def test_epochs_read_the_cloud_instants(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0, K=8)
        bounds = drift_recursion(tr, est, inputs)
        row = drift_checks(tr, bounds, inputs)[CENTRAL]
        K, span = tr.hfl.cloud_epochs, tr.hfl.tau_l * tr.hfl.tau_e
        assert row.bound.tolist() == [bounds.central[k * span - 1] for k in range(1, K + 1)]
        assert row.measured.tolist() == [tr.gap_u_vtilde[k * span] for k in range(1, K + 1)]
        assert [row.label(k) for k in range(K)] \
            == [("central_drift", {"k": k}) for k in range(1, K + 1)]


def scalar_recursion(trace, est, inputs, weights=None):
    """The drift recursion entry by entry in Python floats: for tau = 1..T
    the lists B (M) and E (N) and the float U, before the aggregation at
    tau, under the trace's weights unless others are given, u's in row 0
    and edge n's in row 1 + n. Each weighted sum runs from 0.0 in id
    order."""
    hfl, hist = trace.hfl, trace.association_history.tolist()
    eta, dm, Dn = hfl.eta, est.delta_m.tolist(), est.Delta_n_bracket.tolist()
    bm = inputs.beta_m.tolist()
    M, N = len(dm), len(Dn[0])
    V = (trace.weights if weights is None else weights).tolist()
    alpha = [row[0] for row in V]
    A = [row[1:] for row in V]

    def wsum(w, x):
        s = 0.0
        for m in range(M):
            s += w[m] * x[m]
        return s

    B, E, U, out = [0.0] * M, [0.0] * N, 0.0, []
    for j in range(1, hfl.cloud_epochs * hfl.tau_e + 1):
        for _ in range(hfl.tau_l):
            x = [bm[m] * B[m] for m in range(M)]
            U += eta * wsum(alpha[j - 1], x)
            E = [E[n] + (eta * wsum(A[j - 1][n], x) + eta * Dn[j - 1][n]) for n in range(N)]
            B = [(1.0 + eta * bm[m]) * B[m] + eta * dm[m] for m in range(M)]
            out.append((B, E, U))
        for n in range(N):
            if n not in hist[j]:
                E[n] = float("nan")
            elif A[j][n] != A[j - 1][n]:
                E[n] = wsum(A[j][n], B)
        if j % hfl.tau_e == 0:
            B, E, U = [0.0] * M, [0.0] * N, 0.0
        else:
            B = [E[hist[j][m]] for m in range(M)]
    return out


def loop_vehicle_drift(trace, est, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one bound per (iteration, vehicle)."""
    out = []
    span = trace.hfl.tau_l * trace.hfl.tau_e
    for tau, (B, _, _) in enumerate(scalar_recursion(trace, est, inputs), 1):
        tau0 = tau - ((tau - 1) // span) * span
        for m, bound in enumerate(B):
            measured = float(trace.vehicle_gap[m, tau])
            if measured > bound + slack:
                out.append(("vehicle_drift", {"m": m, "tau": tau, "tau0": tau0},
                            measured, bound))
    return out


def loop_edge_drift(trace, est, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one bound per (iteration, occupied edge)."""
    out = []
    span = trace.hfl.tau_l * trace.hfl.tau_e
    for tau, (_, E, _) in enumerate(scalar_recursion(trace, est, inputs), 1):
        tau0 = tau - ((tau - 1) // span) * span
        for n, bound in enumerate(E):
            measured = float(trace.edge_gap[n, tau])
            if np.isnan(measured) or np.isnan(bound):
                continue
            if measured > bound + slack:
                out.append(("edge_drift", {"n": n, "tau": tau, "tau0": tau0},
                            measured, bound))
    return out


def recursion_beta(inputs):
    """The recursion's smoothness: the largest shard's, or the union's
    where every shard's rounds below it."""
    return max(inputs.beta, float(inputs.beta_m.max()))


def loop_recursion(trace, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one three-case recursion step per iteration."""
    out = []
    hfl = trace.hfl
    span = hfl.tau_l * hfl.tau_e
    eb = hfl.eta * recursion_beta(inputs)
    for tau in range(1, trace.total_iterations + 1):
        prev = tau - 1
        if prev % span == 0:
            rhs, case = 0.0, "cloud"
        elif prev % hfl.tau_l == 0:
            rhs, case = trace.gap_u_v[prev] + eb * trace.s_edge[prev], "edge"
        else:
            rhs, case = trace.gap_u_v[prev] + eb * trace.s_vehicle[prev], "local"
        measured = float(trace.gap_u_vtilde[tau])
        if measured > rhs + slack:
            out.append((f"recursion[{case}]", {"tau": tau}, measured, rhs))
    return out


def as_tuples(violations):
    return [(v.check, v.where, float(v.measured), float(v.bound)) for v in violations]


def config_run(text):
    """A config's recorded trace, with verify_bounds' estimates and inputs."""
    cfg = config.parse_config(text)
    inst = experiments.build_instance(cfg)
    tr = experiments.run_instance(inst, record_virtual=True, full_batch=True).trace
    suite = experiments.verify_bounds(cfg)
    return tr, suite.estimates, suite.inputs


def assert_bounds_equal_scalar_recursion(tr, est, inputs):
    bounds = drift_recursion(tr, est, inputs)
    B, E, U = zip(*scalar_recursion(tr, est, inputs))
    assert_same_bits(bounds.vehicle, np.array(B))
    assert_same_bits(bounds.edge, np.array(E))
    assert_same_bits(bounds.central, np.array(U))


class TestCheckersMatchScalarLoops:
    """The array recursion and checkers give the same bounds, bit for bit,
    and the same violations, in the same order (iteration-major, then
    vehicle or edge id), as per-entry loops."""

    @pytest.fixture(scope="class")
    def suite(self):
        _, _, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        return tr, est, inputs

    def test_bounds_equal_scalar_recursion(self, suite):
        assert_bounds_equal_scalar_recursion(*suite)

    def test_off_the_construction(self):
        # a logistic run with shards of their own features and smoothness
        tr, est, inputs = config_run(HONEST_RUNS["logistic"](30.0, 0.001))
        assert len(np.unique(tr.association_history, axis=0)) > 1
        assert_bounds_equal_scalar_recursion(tr, est, inputs)
        est = est.scaled(0.5)
        bounds = drift_recursion(tr, est, inputs)
        vehicle, edge = found(tr, bounds, inputs, VEHICLE), found(tr, bounds, inputs, EDGE)
        assert len(vehicle) > 0 and len(edge) > 0
        assert as_tuples(vehicle) == loop_vehicle_drift(tr, est, inputs)
        assert as_tuples(edge) == loop_edge_drift(tr, est, inputs)

    def test_weights_of_the_shard_sizes(self):
        # configs/logistic.cfg holds shards of two sizes, whose weights
        # rebuilt from alpha round apart from the sizes' own: the bounds
        # are those of the scalar recursion fed the sizes' weights
        text = open(os.path.join(ROOT, "configs", "logistic.cfg")).read()
        tr, est, inputs = config_run(text)
        sizes = np.array([s.size for s in
                          experiments.build_instance(config.parse_config(text)).shards], float)
        N = est.Delta_n_bracket.shape[1]
        weights = np.stack([np.vstack([sizes / sizes.sum(), engine.membership_weights(
            row, sizes, N)[0]]) for row in tr.association_history])
        assert (engine.membership_weights(tr.association_history, est.alpha, N)[0]
                != weights[:, 1:]).any()
        bounds = drift_recursion(tr, est, inputs)
        B, E, U = zip(*scalar_recursion(tr, est, inputs, weights))
        assert_same_bits(bounds.vehicle, np.array(B))
        assert_same_bits(bounds.edge, np.array(E))
        assert_same_bits(bounds.central, np.array(U))

    def test_scaled_estimates(self, suite):
        tr, est, inputs = suite
        est = est.scaled(0.5)
        bounds = drift_recursion(tr, est, inputs)
        vehicle, edge = found(tr, bounds, inputs, VEHICLE), found(tr, bounds, inputs, EDGE)
        assert len(vehicle) > 0 and len(edge) > 0
        assert as_tuples(vehicle) == loop_vehicle_drift(tr, est, inputs)
        assert as_tuples(edge) == loop_edge_drift(tr, est, inputs)

    def test_bumped_recursion_cases(self, suite):
        tr, est, inputs = suite
        tr = copy.deepcopy(tr)
        span = tr.hfl.tau_l * tr.hfl.tau_e
        # tau - 1 a cloud instant, an edge-only instant, and a local step
        for tau in (span + 1, tr.hfl.tau_l + 1, 3):
            tr.gap_u_vtilde[tau] += 1.0
        got = found(tr, drift_recursion(tr, est, inputs), inputs, RECURSION)
        assert [v.check for v in got] == ["recursion[local]", "recursion[edge]",
                                          "recursion[cloud]"]
        assert as_tuples(got) == loop_recursion(tr, inputs)

    @staticmethod
    def partial_run(rows):
        """8 shared-input shards on 4 edges under the given association rows."""
        shards = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        cfg = engine.HflConfig(eta=0.05, tau_l=2, tau_e=2, cloud_epochs=2, seed=1,
                               record_virtual=True, full_batch=True)
        tr = engine.run(cfg, shards, spec, np.array(rows), 4).trace
        est = estimate_divergences(spec, shards, tr.association_history, tr.vtilde)
        beta_m = np.array([models.estimate_constants(spec, s) for s in shards])
        inputs = BoundInputs(beta=float(beta_m.max()), beta_m=beta_m, rho=1.0, epsilon=1.0,
                             w_star=np.zeros(2), f_star=0.0)
        return tr, est.scaled(0.5), inputs

    def test_empty_edge_rows_never_fire(self):
        # edge 1 empties at every other round boundary, and its members
        # join edges 0 and 2; its gaps and bounds are NaN there
        on3, off1 = [m % 3 for m in range(8)], [0, 2] * 4
        tr, est, inputs = self.partial_run([on3, off1, on3, off1, on3])
        bounds = drift_recursion(tr, est, inputs)
        assert np.isnan(tr.edge_gap[1, 1:]).tolist() == np.isnan(bounds.edge[:, 1]).tolist()
        assert np.isnan(bounds.edge[:, 1]).any()
        got = found(tr, bounds, inputs, EDGE)
        assert len(got) > 0
        assert as_tuples(got) == loop_edge_drift(tr, est, inputs)

    def test_never_occupied_last_edge(self):
        # the estimates have a column per edge up to the highest one the
        # history names; the trace has one per edge of the topology
        tr, est, inputs = self.partial_run([[m % 3 for m in range(8)]] * 5)
        assert (tr.edge_gap.shape[0], est.Delta_n_bracket.shape[1]) == (4, 3)
        got = found(tr, drift_recursion(tr, est, inputs), inputs, EDGE)
        assert len(got) > 0
        assert as_tuples(got) == loop_edge_drift(tr, est, inputs)

    def test_fields_are_python_scalars(self, suite):
        tr, est, inputs = suite
        v = found(tr, drift_recursion(tr, est.scaled(0.5), inputs), inputs, VEHICLE)[0]
        assert type(v.measured) is float and type(v.bound) is float
        assert all(type(x) is int for x in v.where.values())


class TestGapBound:
    def test_eta_above_one_over_beta_not_applicable(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        inputs.beta = 2.0 / tr.hfl.eta  # force eta > 1/beta
        gr = check_gap_bound(tr, inputs, central_row(tr, est, inputs),
                             analysis.epoch_losses(spec, union, tr))
        assert not gr.applicable
        assert not gr.conditions["eta_le_inv_beta"]
        assert np.isnan(gr.bound)

    def test_homogeneous_reduces_to_descent_bound(self):
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [base] * 4
        spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=5, class_count=3,
                                l2_reg=0.1)
        cfg = engine.HflConfig(eta=0.2, tau_l=2, tau_e=2, cloud_epochs=3, seed=3,
                               record_virtual=True, full_batch=True)
        res = engine.run(cfg, shards, spec)
        tr = res.trace
        union = datasets.union_of_shards(shards)
        opt = models.solve_optimum(spec, union)
        probes = np.vstack([tr.vtilde, np.zeros(tr.vtilde.shape[1]), opt.w])
        est = estimate_divergences(spec, shards, tr.association_history, probes)
        assert est.delta <= 1e-12
        beta = models.estimate_constants(spec, union)
        rho = max(est.grad_norm[:len(tr.vtilde)].tolist())
        losses = analysis.epoch_losses(spec, union, tr)
        eps = choose_epsilon(losses, opt.value)
        beta_m = np.array([models.estimate_constants(spec, s) for s in shards])
        inputs = BoundInputs(beta=beta, beta_m=beta_m, rho=rho,
                             epsilon=max(eps, 1e-12), w_star=opt.w, f_star=opt.value)
        uk = central_row(tr, est, inputs)
        assert sum(uk.bound.tolist()) == pytest.approx(0.0, abs=1e-10)
        gr = check_gap_bound(tr, inputs, uk, losses)
        if gr.applicable:
            T = 12
            assert gr.bound == pytest.approx(1.0 / (T * 0.2 * gr.phi), rel=1e-6)
            assert gr.measured_gap <= gr.bound

    def test_degenerate_start_at_optimum(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        opt_w = tr.vtilde[0].copy()  # pretend the start is the optimum
        inputs.w_star = opt_w
        uk = central_row(tr, est, inputs)
        gr = check_gap_bound(tr, inputs, uk, analysis.epoch_losses(spec, union, tr))
        assert gr.degenerate
        assert not gr.applicable
        assert "optimal" in gr.note

    def test_uk_premise_gate(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        uk = central_row(tr, est, inputs)
        uk.bound = np.full(tr.hfl.cloud_epochs, -1.0)  # unsatisfiable premise
        gr = check_gap_bound(tr, inputs, uk, analysis.epoch_losses(spec, union, tr))
        assert not gr.conditions["uk_upper_bounds_gap"]
        assert not gr.applicable


def uk_row(uk, measured):
    """A central drift row of U_k given by hand."""
    return Check(measured, uk, lambda i: ("central_drift", {"k": int(i) + 1}))


class TestGapBoundOracle:
    # the second epsilon squares apart under pow(): eps ** 2 != eps * eps,
    # and its U_k keep the drift term near half of T*eta*phi, so a one-ulp
    # eps ** 2 moves the bound
    @pytest.mark.parametrize("eps, uk", [(1.0, [0.01, 0.02]),
                                         (0.08852520969064266, [0.0008, 0.0012])])
    def test_hand_made_trace(self, eps, uk):
        # K = 2 epochs of span 2: the epochs start at vtilde rows 0 and 2,
        # at distances 5 and 2 from w* = 0, so phi is set by the first
        eta, beta, rho, T = 0.5, 1.0, 0.1, 4
        inputs = BoundInputs(beta=beta, beta_m=np.array([beta]), rho=rho, epsilon=eps,
                             w_star=np.zeros(2), f_star=0.0)
        trace = SimpleNamespace(vtilde=np.array([[3.0, 4.0], [2.0, 3.0], [0.0, 2.0],
                                                 [0.0, 1.5], [0.0, 1.0]]),
                                hfl=make_schedule(eta=eta, tau_l=1, tau_e=2, K=2))
        losses = [(2.0, 1.8), (1.6, 1.5)]
        gr = check_gap_bound(trace, inputs, uk_row(uk, np.zeros(2)), losses)
        phi = min((1 - beta * eta / 2) / d ** 2 for d in (5.0, 2.0))
        denom = T * eta * phi - rho * sum(uk) / (eps * eps)
        assert gr.applicable and all(gr.conditions.values())
        assert gr.phi == pytest.approx(phi, rel=1e-12)
        assert 1.0 / gr.bound == denom
        assert gr.bound == 1.0 / denom
        assert gr.measured_gap == 1.5

    def test_uk_summed_left_to_right(self):
        # from 8 terms up np.sum adds pairwise: eight U_k of 0.1 sum to
        # 0.7999999999999999 left to right and 0.8 pairwise, and with
        # T*eta*phi = 1 the bound tells the two apart
        eta, beta, K = 0.25, 4.0, 8
        inputs = BoundInputs(beta=beta, beta_m=np.array([beta]), rho=1.0, epsilon=1.0,
                             w_star=np.zeros(2), f_star=0.0)
        trace = SimpleNamespace(vtilde=np.tile([0.0, 1.0], (K + 1, 1)),
                                hfl=make_schedule(eta=eta, tau_l=1, tau_e=1, K=K))
        uk = [0.1] * K
        gr = check_gap_bound(trace, inputs, uk_row(uk, np.zeros(K)), [(2.0, 1.5)] * K)
        total = 0.0
        for u in uk:
            total += u
        assert total != np.sum(uk)
        assert gr.applicable and gr.bound == 1.0 / (1.0 - total)

    # each gate's fault, in one epoch: (gate, F*, array, column, value)
    FAULTS = [("positive_margin", 0.25, "bound", None, 0.5),
              ("vtilde_gap_ge_eps", 0.25, "losses", 0, 1.1),
              ("w_loss_ge_eps", -0.25, "losses", 1, 0.9),
              ("w_gap_ge_eps_strict", 0.25, "losses", 1, 1.1),
              ("uk_upper_bounds_gap", 0.25, "measured", None, 0.05)]

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("gate, f_star, array, column, fault", FAULTS)
    def test_one_gate_fails(self, gate, f_star, array, column, fault, k):
        # the hand-made trace with every gate holding, then one gate's
        # fault in epoch k + 1; F* > 0 tells the strict gate from the raw
        # one, and F* < 0 the raw gate from the strict one
        inputs = BoundInputs(beta=1.0, beta_m=np.ones(1), rho=0.1, epsilon=1.0,
                             w_star=np.zeros(2), f_star=f_star)
        trace = SimpleNamespace(vtilde=np.array([[3.0, 4.0], [2.0, 3.0], [0.0, 2.0],
                                                 [0.0, 1.5], [0.0, 1.0]]),
                                hfl=make_schedule(eta=0.5, tau_l=1, tau_e=2, K=2))
        arrays = {"bound": np.array([0.01, 0.02]), "measured": np.zeros(2),
                  "losses": np.array([(2.0, 1.8), (1.6, 1.5)])}
        arrays[array][(k,) if column is None else (k, column)] = fault
        gr = check_gap_bound(trace, inputs, uk_row(arrays["bound"], arrays["measured"]),
                             arrays["losses"])
        assert [name for name, holds in gr.conditions.items() if not holds] == [gate]
        # the strict gate is reported only
        assert gr.applicable == (gate == "w_gap_ge_eps_strict")


class TestPlantedViolations:
    """Each check reports a violation of 1e-8, ten times DEFAULT_SLACK,
    planted at one entry of a run whose checks all pass, and nothing else;
    one of 1e-10, within the slack, is not reported."""

    @pytest.fixture(scope="class")
    def suite(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        bounds = drift_recursion(tr, est, inputs)
        assert found(tr, bounds, inputs, VEHICLE, EDGE, RECURSION, CENTRAL) == []
        return tr, est, inputs, bounds

    PLANTS = pytest.mark.parametrize("excess, reported", [(1e-8, True), (1e-10, False)])

    @PLANTS
    def test_vehicle_drift(self, suite, excess, reported):
        tr, _, inputs, bounds = suite
        tr = copy.deepcopy(tr)
        m, tau = 5, 9  # tau0 = 9, inside the first cloud epoch
        tr.vehicle_gap[m, tau] = excess + bounds.vehicle[tau - 1, m]
        got = [(v.where["m"], v.where["tau"]) for v in found(tr, bounds, inputs, VEHICLE)]
        assert got == [(m, tau)] * reported

    @PLANTS
    def test_edge_drift(self, suite, excess, reported):
        tr, _, inputs, bounds = suite
        tr = copy.deepcopy(tr)
        tau = 9
        n = int(np.flatnonzero(~np.isnan(tr.edge_gap[:, tau])
                               & ~np.isnan(bounds.edge[tau - 1]))[0])
        tr.edge_gap[n, tau] = excess + bounds.edge[tau - 1, n]
        got = [(v.where["n"], v.where["tau"]) for v in found(tr, bounds, inputs, EDGE)]
        assert got == [(n, tau)] * reported

    def test_edge_drift_at_a_membership_change(self):
        # at tau = j*tau_l an edge whose member set changes restarts at
        # A@B, A the weights of the members that round boundary puts in
        # force and B the vehicles' bounds at tau; a gap planted just above
        # that bound is reported there. The run has shards of their own
        # data, and the change taken is the one where the old and the new
        # members' averages of B differ most
        tr, est, inputs = config_run(HONEST_RUNS["logistic"](30.0, 0.001))
        bounds = drift_recursion(tr, est, inputs)
        hist, N, tau_l = tr.association_history, est.Delta_n_bracket.shape[1], tr.hfl.tau_l
        A = tr.weights[:, 1:1 + N]
        changes = [(j, n) for j in range(1, len(hist)) for n in range(N)
                   if (A[j, n] != A[j - 1, n]).any() and A[j, n].any()]

        def spread(j, n):
            B = bounds.vehicle[j * tau_l - 1]
            return abs(A[j, n] @ B - A[j - 1, n] @ B)

        j, n = max(changes, key=lambda c: spread(*c))
        tau = j * tau_l
        bound = bounds.edge[tau - 1, n]
        assert spread(j, n) > 1e-3 * bound
        assert bound == pytest.approx(A[j, n] @ bounds.vehicle[tau - 1], rel=1e-12)
        tr = copy.deepcopy(tr)
        tr.edge_gap[n, tau] = bound + 1e-8
        got = [(v.where["n"], v.where["tau"]) for v in found(tr, bounds, inputs, EDGE)]
        assert got == [(n, tau)]

    @PLANTS
    def test_recursion(self, suite, excess, reported):
        tr, _, inputs, bounds = suite
        tr = copy.deepcopy(tr)
        tau = 3  # tau - 1 = 2 is a local step
        rhs = tr.gap_u_v[tau - 1] + tr.hfl.eta * recursion_beta(inputs) * tr.s_vehicle[tau - 1]
        tr.gap_u_vtilde[tau] = rhs + excess
        got = [(v.check, v.where["tau"]) for v in found(tr, bounds, inputs, RECURSION)]
        assert got == [("recursion[local]", tau)] * reported

    @PLANTS
    def test_central_drift(self, suite, excess, reported):
        tr, _, inputs, bounds = suite
        tr = copy.deepcopy(tr)
        span = tr.hfl.tau_l * tr.hfl.tau_e
        tr.gap_u_vtilde[2 * span] = bounds.central[2 * span - 1] + excess  # U_2
        got = found(tr, bounds, inputs, CENTRAL)
        assert [v.where for v in got] == [{"k": 2}] * reported

    @PLANTS
    @pytest.mark.parametrize("applicable", [True, False])
    def test_gap_bound(self, applicable, excess, reported, monkeypatch):
        # verify_bounds compares the gap with the bound only where the
        # bound applies; the report it compares is planted
        real = analysis.check_gap_bound

        def planted(*args):
            return replace(real(*args), applicable=applicable, bound=1.0,
                           measured_gap=1.0 + excess)

        monkeypatch.setattr(analysis, "check_gap_bound", planted)
        cfg = config.parse_config(RHO_CONFIG.format(family="quadratic", shared="true"))
        got = [v for v in experiments.verify_bounds(cfg).violations if v.check == "gap_bound"]
        assert [(v.measured, v.bound) for v in got] \
            == [(1.0 + excess, 1.0)] * (reported and applicable)


class TestVerifyBoundsOrder:
    """verify_bounds lists the violations of drift_checks' rows and then
    the gap bound's, each row in its own order; the CLI prints the first."""

    KINDS = ["vehicle_drift", "edge_drift", "recursion", "central_drift", "gap_bound"]

    def test_rows_in_report_order(self, monkeypatch):
        # halved divergences fire the vehicle and edge drift; a gap raised
        # by 1 at tau = 3 fires a local recursion step, and at the first
        # cloud instant that step and U_1; the gap bound's report is planted
        real_checks, real_gap = analysis.drift_checks, analysis.check_gap_bound
        rows, handed = [], []

        def planted_checks(tr, bounds, inputs):
            tr = copy.deepcopy(tr)
            for tau in (3, tr.hfl.tau_l * tr.hfl.tau_e):
                tr.gap_u_vtilde[tau] += 1.0
            rows[:] = real_checks(tr, bounds, inputs)
            return list(rows)

        def planted_gap(tr, inputs, central, losses):
            handed.append(central)
            return replace(real_gap(tr, inputs, central, losses), applicable=True,
                           bound=1.0, measured_gap=2.0)

        monkeypatch.setattr(analysis, "drift_checks", planted_checks)
        monkeypatch.setattr(analysis, "check_gap_bound", planted_gap)
        cfg = config.parse_config(RHO_CONFIG.format(family="quadratic", shared="true"))
        suite = experiments.verify_bounds(cfg, delta_scale=0.5)
        assert suite.central is rows[CENTRAL] and handed == [rows[CENTRAL]]
        T = cfg.hfl.cloud_epochs * cfg.hfl.tau_e * cfg.hfl.tau_l
        gap = analysis.Violation("gap_bound", {"T": T}, 2.0, 1.0)
        assert suite.violations == [v for r in rows for v in violations(r)] + [gap]
        kinds = [self.KINDS.index(v.check.split("[")[0]) for v in suite.violations]
        assert sorted(set(kinds)) == list(range(5)) and kinds == sorted(kinds)
        for kind in range(5):
            # iteration-major, then vehicle or edge id
            where = [tuple(v.where.get(key, 0) for key in ("tau", "k", "m", "n"))
                     for v, i in zip(suite.violations, kinds) if i == kind]
            assert where == sorted(where)


class TestMixingReport:
    def test_static_membership_constant(self):
        _, est, _ = hand_run([[0, 1]] * 40, [1.0, 1.0], [[0.4, 0.4]] * 40, [1.0, 1.0])
        mix = mobility_mixing_report(est)
        assert mix.first_quarter_mean == pytest.approx(mix.last_quarter_mean, rel=1e-12)

    def test_mixing_decreases_delta_trajectory(self):
        shards = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=8, class_count=4, l2_reg=0.05)
        net = mobility.RoadNetwork()
        veh = mobility.init_positions(net, 32, seed=11, sides=datasets.home_edges(32, 4))
        _, hist = mobility.schedule(net, *veh, 30.0, 100)
        est = estimate_divergences(spec, shards, hist, [np.zeros(32)])
        mix = mobility_mixing_report(est)
        assert mix.last_quarter_mean < mix.first_quarter_mean
