import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import analysis, config, datasets, engine, experiments, mobility, models
from hflsim.analysis import (
    BoundInputs, build_drift_report, central_drift_bound, check_central_drift,
    check_edge_drift, check_gap_bound, check_recursion, check_vehicle_drift,
    choose_epsilon, convex_combination_residuals, drift_polynomial,
    edge_drift_bound, estimate_divergences,
    mobility_mixing_report, shared_input_delta_m, vehicle_drift_bound,
)


def poly_fraction(tau, eta, delta, beta):
    """Exact-rational oracle for the drift polynomial."""
    eta, delta, beta = Fraction(eta), Fraction(delta), Fraction(beta)
    return float(delta / beta * ((1 + eta * beta) ** tau - 1) - tau * eta * delta)


def drift_fraction(k, tau_l, tau_e, eta, delta, beta, Delta):
    """Term-by-term rational evaluation of the drift-plus-mixing bound."""
    eta, delta, beta = Fraction(eta), Fraction(delta), Fraction(beta)
    r = delta / beta * ((1 + eta * beta) ** (tau_l * tau_e) - 1) - tau_l * tau_e * eta * delta
    s = sum(Fraction(j) * Fraction(Delta[k * tau_e + j]) for j in range(1, tau_e))
    return float(r - eta * tau_l * (Fraction(tau_e * (tau_e - 1), 2) * delta - s))


class TestDriftPolynomial:
    def test_zero_steps(self):
        assert drift_polynomial(0, 0.1, 2.0, 1.5) == 0.0

    def test_one_step_cancels(self):
        assert drift_polynomial(1, 0.1, 2.0, 1.5) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # (1/1)*((1.1)^2 - 1) - 2*0.1*1 = 0.01
        assert drift_polynomial(2, 0.1, 1.0, 1.0) == pytest.approx(0.01, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(tau=st.integers(0, 40), eta=st.floats(1e-4, 0.5),
           delta=st.floats(0.0, 5.0), beta=st.floats(0.1, 4.0))
    def test_matches_rational_oracle(self, tau, eta, delta, beta):
        got = drift_polynomial(tau, eta, delta, beta)
        want = poly_fraction(tau, eta, delta, beta)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def make_inputs(eta=0.1, beta=1.0, tau_l=6, tau_e=10, K=3, eps=1.0):
    return BoundInputs(beta=beta, rho=1.0, eta=eta, tau_l=tau_l, tau_e=tau_e,
                       cloud_epochs=K, epsilon=eps, w_star=np.zeros(2), f_star=0.0)


def const_estimates(delta, Delta, tau_l, brackets, N=1):
    est = analysis.DivergenceEstimates(
        tau_l=tau_l, delta_m=np.array([delta]), delta=delta, alpha=np.array([1.0]),
        delta_n_bracket=np.full((brackets, N), delta),
        Delta_n_bracket=np.full((brackets, N), Delta),
        Delta_bracket=np.full(brackets, Delta),
        theta_bracket=np.full((brackets, N), 1.0), grad_norm=np.ones(1), probe_count=1)
    return est


class TestComputeUk:
    def test_delta_equals_Delta_reduces_to_r(self):
        inputs = make_inputs(eta=0.05, beta=2.0)
        est = const_estimates(delta=0.7, Delta=0.7, tau_l=6, brackets=40)
        value, r_term, mob = central_drift_bound(0, est, inputs)
        assert mob == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(drift_polynomial(60, 0.05, 0.7, 2.0), rel=1e-12)

    def test_zero_Delta_substitution(self):
        inputs = make_inputs(eta=0.05, beta=2.0)
        est = const_estimates(delta=0.7, Delta=0.0, tau_l=6, brackets=40)
        value, r_term, mob = central_drift_bound(0, est, inputs)
        want = drift_polynomial(60, 0.05, 0.7, 2.0) - 0.5 * 0.05 * 6 * 10 * 9 * 0.7
        assert value == pytest.approx(want, rel=1e-12)

    def test_tau_e_one_empty_sum(self):
        inputs = make_inputs(eta=0.05, beta=2.0, tau_l=6, tau_e=1)
        est = const_estimates(delta=0.7, Delta=0.3, tau_l=6, brackets=5)
        value, r_term, mob = central_drift_bound(2, est, inputs)
        assert mob == 0.0
        assert value == pytest.approx(drift_polynomial(6, 0.05, 0.7, 2.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 2), eta=st.floats(0.01, 0.2), delta=st.floats(0.0, 2.0),
           beta=st.floats(0.5, 3.0), seed=st.integers(0, 100))
    def test_rational_term_by_term_oracle(self, k, eta, delta, beta, seed):
        tau_l, tau_e = 3, 4
        g = np.random.default_rng(seed)
        Delta = g.uniform(0.0, delta if delta > 0 else 1.0, size=20)
        inputs = make_inputs(eta=eta, beta=beta, tau_l=tau_l, tau_e=tau_e)
        est = const_estimates(delta=delta, Delta=0.0, tau_l=tau_l, brackets=20)
        est.Delta_bracket = Delta
        value, _, _ = central_drift_bound(k, est, inputs)
        want = drift_fraction(k, tau_l, tau_e, eta, delta, beta, Delta)
        assert value == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_monotone_in_each_Delta(self):
        inputs = make_inputs(eta=0.05, beta=2.0)
        est = const_estimates(delta=0.7, Delta=0.3, tau_l=6, brackets=40)
        base, _, _ = central_drift_bound(0, est, inputs)
        for j in range(1, inputs.tau_e):
            bumped = const_estimates(delta=0.7, Delta=0.3, tau_l=6, brackets=40)
            bumped.Delta_bracket = bumped.Delta_bracket.copy()
            bumped.Delta_bracket[j] += 0.1
            up, _, _ = central_drift_bound(0, bumped, inputs)
            assert up > base

    def test_missing_brackets_raise(self):
        inputs = make_inputs()
        est = const_estimates(delta=0.7, Delta=0.3, tau_l=6, brackets=5)
        with pytest.raises(ValueError):
            central_drift_bound(3, est, inputs)


class TestDriftBounds:
    def test_zero_divergence_zero_bound(self):
        for tau0 in (1, 5, 60):
            assert vehicle_drift_bound(tau0, 0.0, 0.1, 1.0) == 0.0

    def test_edge_bound_reduces_to_vehicle_form(self):
        b3 = edge_drift_bound(7, 0.5, 0.5, 0.1, 2.0)
        b2 = vehicle_drift_bound(7, 0.5, 0.1, 2.0)
        assert b3 == pytest.approx(b2, rel=1e-12)

    def test_hand_value(self):
        # 2/1 * ((1.1)^2 - 1) = 0.42
        assert vehicle_drift_bound(2, 2.0, 0.1, 1.0) == pytest.approx(0.42, abs=1e-12)

    def test_arrays_match_scalar_calls_bitwise(self):
        g = np.random.default_rng(3)
        tau0 = g.integers(1, 200, size=(7, 1))
        dm = g.uniform(0.0, 3.0, size=5)
        Dn = g.uniform(0.0, 3.0, size=5)
        eta, beta = 0.07, 1.9
        got_v = vehicle_drift_bound(tau0, dm, eta, beta)
        got_e = edge_drift_bound(tau0, dm, Dn, eta, beta)
        got_p = analysis._powi(1.0 + eta * beta, tau0[:, 0])
        for i in range(tau0.shape[0]):
            t = int(tau0[i, 0])
            assert got_p[i] == analysis._powi(1.0 + eta * beta, t)
            for m in range(dm.size):
                assert got_v[i, m] == vehicle_drift_bound(t, float(dm[m]), eta, beta)
                assert got_e[i, m] == edge_drift_bound(t, float(dm[m]), float(Dn[m]), eta, beta)

    def test_scalar_in_float_out(self):
        assert type(analysis._powi(1.1, 3)) is float
        assert type(vehicle_drift_bound(3, 0.5, 0.1, 1.0)) is float

    def test_powi_overflow_saturates(self):
        big = analysis._powi(10.0, np.array([2, 400]))
        assert big[0] == 100.0 and big[1] == np.inf

    def test_nonpositive_tau0_rejected(self):
        with pytest.raises(ValueError):
            vehicle_drift_bound(0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            edge_drift_bound(np.array([3, 0]), 1.0, 0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            analysis._powi(1.1, np.array([2, -1]))


class TestEstimateDivergences:
    def test_identical_shards_zero(self):
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [datasets.Shard(m, base) for m in range(4)]
        spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=5, class_count=3)
        hist = np.zeros((1, 4), dtype=np.int64)
        probes = [np.zeros(models.param_length(spec)), np.ones(models.param_length(spec))]
        est = estimate_divergences(spec, shards, hist, probes, tau_l=6)
        assert np.max(est.delta_m) <= 1e-12
        assert est.delta <= 1e-12
        assert np.nanmax(est.Delta_bracket) <= 1e-12

    def test_shared_input_closed_form(self):
        shards, emap = datasets.shared_input_shards(8, 4, 1, 4, 30, 6, seed=2)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        hist = np.array([[emap[m] for m in range(8)]])
        g = np.random.default_rng(0)
        probes = [g.normal(size=24) for _ in range(3)]
        est = estimate_divergences(spec, shards, hist, probes, tau_l=6)
        exact = shared_input_delta_m(shards)
        assert np.max(np.abs(est.delta_m - exact)) <= 1e-10

    def test_iid_below_edge_noniid(self):
        ds = datasets.generate_synthetic(4, 6, 800, 3.0, seed=21)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        probes = [np.zeros(24)]
        sh_i, em_i = datasets.partition(ds, datasets.PartitionSpec(
            datasets.IID, vehicle_count=32, edge_count=4, seed=22))
        sh_e, em_e = datasets.partition(ds, datasets.PartitionSpec(
            datasets.EDGE_NONIID, vehicle_count=32, edge_count=4,
            classes_per_unit=1, seed=22))
        hist_i = np.array([[em_i[m] for m in range(32)]])
        hist_e = np.array([[em_e[m] for m in range(32)]])
        est_i = estimate_divergences(spec, sh_i, hist_i, probes, tau_l=6)
        est_e = estimate_divergences(spec, sh_e, hist_e, probes, tau_l=6)
        assert est_i.delta_m.max() < est_e.delta_m.max()
        # the edge-level divergence collapses for iid partitions
        assert est_i.Delta_bracket[0] < 0.05 * est_e.Delta_bracket[0]

    def test_convex_combination_identities(self):
        shards, emap = datasets.shared_input_shards(8, 4, 2, 4, 30, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        hist = np.array([[emap[m] for m in range(8)], [(emap[m] + 1) % 4 for m in range(8)]])
        probes = [np.zeros(24), np.ones(24)]
        est = estimate_divergences(spec, shards, hist, probes, tau_l=6)
        assert convex_combination_residuals(est) <= 1e-12

    def test_aggregates_are_convex_combinations(self):
        shards, emap = datasets.shared_input_shards(8, 4, 2, 4, 30, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.1)
        hist = np.array([[emap[m] for m in range(8)]])
        est = estimate_divergences(spec, shards, hist, [np.zeros(24)], tau_l=6)
        assert est.delta <= est.delta_m.max() + 1e-12
        valid = ~np.isnan(est.delta_n_bracket)
        assert np.all(est.delta_n_bracket[valid] <= est.delta_m.max() + 1e-12)

    def test_mlp_rejected(self):
        spec = models.ModelSpec(models.MLP1, dim=4, class_count=3, hidden_width=4)
        base = datasets.generate_synthetic(3, 4, 10, 3.0, seed=4)
        with pytest.raises(models.UnsupportedModelError):
            estimate_divergences(spec, [datasets.Shard(0, base)],
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
    A, theta = A_rows[inv], theta_rows[inv]
    occupied = theta > 0
    delta_m = np.zeros(M)
    Delta_u = np.zeros((rows.shape[0], N))
    grad_norm = []
    for w in probes:
        G = np.stack([models.gradient(spec, w, s.data) for s in shards])
        gF = alpha @ G
        grad_norm.append(np.linalg.norm(gF))
        delta_m = np.maximum(delta_m, np.linalg.norm(G - gF, axis=1))
        ge = A_rows.reshape(-1, M) @ G
        Delta_u = np.maximum(Delta_u, np.linalg.norm(ge - gF, axis=1).reshape(-1, N))
    Delta_n = np.where(occupied, Delta_u[inv], np.nan)
    return dict(delta_m=delta_m, delta=float(alpha @ delta_m), alpha=alpha,
                delta_n_bracket=np.where(occupied, A @ delta_m, np.nan),
                Delta_n_bracket=Delta_n,
                Delta_bracket=np.nansum(np.where(occupied, theta * Delta_n, 0.0), axis=1),
                theta_bracket=theta, grad_norm=np.array(grad_norm))


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
        G = np.stack([models.gradient(spec, w, s.data) for s in shards])
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
    shards, _ = datasets.partition(ds, datasets.PartitionSpec(
        datasets.LOCAL_NONIID, vehicle_count=5, edge_count=4, classes_per_unit=1, seed=3))
    return [datasets.Shard(s.owner, s.data.subset(np.arange(s.size - 3 * (s.owner % 3))))
            for s in shards]


def scalar_regression_shards():
    """class_count == 1: the labels are raw regression targets."""
    g = np.random.default_rng(8)
    return [datasets.Shard(m, datasets.LabeledDataset(
        g.normal(size=(n, 5)), g.integers(-3, 4, size=n), 1)) for m, n in enumerate((12, 9, 12, 7))]


DIVERGENCE_CASES = {
    "quadratic_shared_input": (
        lambda: datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)[0],
        models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)),
    "quadratic_scalar_regression": (
        scalar_regression_shards,
        models.ModelSpec(models.QUADRATIC, dim=5, class_count=1, l2_reg=0.0)),
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

        def spy(spec, W, X, y, **buffers):
            sizes.append(W.shape[0])
            return real(spec, W, X, y, **buffers)

        monkeypatch.setattr(analysis, "gradient_probes", spy)
        return sizes

    def check(self, spec, shards, hist, probes):
        est = estimate_divergences(spec, shards, hist, probes, tau_l=3)
        for name, want in loop_divergences(spec, shards, hist, probes).items():
            assert_same_bits(getattr(est, name), want)
        assert est.probe_count == np.atleast_2d(probes).shape[0]
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
        # theta and delta_n are elementwise in the bracket's row, so the
        # full history gives the same bits
        sizes = np.array([s.size for s in shards], dtype=np.float64)
        A, theta = engine.membership_weights(hist, sizes, int(hist.max()) + 1)
        assert_same_bits(est.theta_bracket, theta)
        assert_same_bits(est.delta_n_bracket, np.where(theta > 0, A @ est.delta_m, np.nan))
        # one product row per bracket agrees to rounding, relative to the
        # gradient scale (a Delta_n can be a rounding residue near 0)
        old = bracket_product_Delta_n(spec, shards, hist, probes)
        assert_same_bits(np.isnan(est.Delta_n_bracket), np.isnan(old))
        scale = max(np.linalg.norm(models.gradient(spec, w, s.data)) for w in probes for s in shards)
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
        make, spec = DIVERGENCE_CASES["quadratic_scalar_regression"]
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
        shards, _ = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
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
        union = max(np.linalg.norm(models.gradient(inst.spec, w, inst.union)) for w in tr.vtilde)
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

        def spy(spec, shards, hist, probes, tau_l=1):
            calls.append((probes, real(spec, shards, hist, probes, tau_l=tau_l)))
            return calls[-1][1]

        monkeypatch.setattr(analysis, "estimate_divergences", spy)
        rho = experiments.verify_bounds(cfg).inputs.rho
        (probes, est), = calls
        V = cfg.hfl.cloud_epochs * cfg.hfl.tau_e * cfg.hfl.tau_l + 1  # the vtilde rows lead
        assert np.array_equal(probes[-2], np.zeros(probes.shape[1]))  # the origin
        assert int(np.argmax(est.grad_norm)) == len(probes) - 2
        assert rho == max(est.grad_norm[:V].tolist()) < est.grad_norm[-2]
        vtilde_norms = [np.linalg.norm(models.gradient(inst.spec, w, inst.union))
                        for w in probes[:V]]
        assert rho == pytest.approx(max(vtilde_norms), rel=1e-12)


def bound_suite_run(speed, K=4, eta=0.05, seed=13):
    shards, emap = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
    spec = models.ModelSpec(models.QUADRATIC, dim=8, class_count=4, l2_reg=0.05)
    net = mobility.RoadNetwork()
    veh = mobility.init_positions(net, 32, seed=11, edge_assignment=emap)
    cfg = engine.HflConfig(eta=eta, tau_l=6, tau_e=10, cloud_epochs=K, seed=seed,
                           record_virtual=True, full_batch=True)
    _, assoc = mobility.schedule(net, *veh, speed, K * cfg.tau_e)
    res = engine.run(cfg, shards, spec, assoc, net.edge_count)
    union = datasets.union_of_shards(shards)
    opt = models.solve_optimum(spec, union)
    tr = res.trace
    probes = np.vstack([tr.vtilde, np.zeros(tr.vtilde.shape[1]), opt.w])
    est = estimate_divergences(spec, shards, tr.association_history, probes, tau_l=tr.tau_l)
    beta = models.estimate_constants(spec, union)
    rho = max(est.grad_norm[:len(tr.vtilde)].tolist())
    eps = choose_epsilon(analysis.epoch_losses(spec, union, tr, 60, K), opt.value)
    inputs = BoundInputs(beta=beta, rho=rho, eta=eta, tau_l=6, tau_e=10,
                         cloud_epochs=K, epsilon=max(eps, 1e-12),
                         w_star=opt.w, f_star=opt.value)
    return spec, union, tr, est, inputs


class TestInequalitySuite:
    def test_all_checks_pass_on_construction(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0)
        assert check_vehicle_drift(tr, est, inputs) == []
        assert check_edge_drift(tr, est, inputs) == []
        assert check_recursion(tr, inputs) == []
        viols, report = check_central_drift(tr, est, inputs)
        assert viols == []
        assert all(e.satisfied for e in report.entries)

    def test_corrupted_delta_detected(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        est.delta_m = est.delta_m * 0.5
        est.delta *= 0.5
        est.delta_n_bracket = est.delta_n_bracket * 0.5
        est.Delta_n_bracket = est.Delta_n_bracket * 0.5
        est.Delta_bracket = est.Delta_bracket * 0.5
        viols = check_vehicle_drift(tr, est, inputs) + check_edge_drift(tr, est, inputs)
        assert len(viols) > 0

    def test_recursion_zero_after_cloud_instant(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        span = inputs.tau_l * inputs.tau_e
        for k in range(inputs.cloud_epochs):
            assert tr.gap_u_vtilde[k * span + 1] <= 1e-9


def loop_vehicle_drift(trace, est, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one bound per (iteration, vehicle)."""
    out = []
    span = inputs.tau_l * inputs.tau_e
    for tau in range(1, trace.total_iterations + 1):
        tau0 = tau - ((tau - 1) // span) * span
        for m in range(trace.vehicle_gap.shape[0]):
            bound = vehicle_drift_bound(tau0, est.delta_m[m], inputs.eta, inputs.beta)
            measured = float(trace.vehicle_gap[m, tau])
            if measured > bound + slack:
                out.append(("vehicle_drift", {"m": m, "tau": tau, "tau0": tau0},
                            measured, bound))
    return out


def loop_edge_drift(trace, est, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one bound per (iteration, occupied edge)."""
    out = []
    span = inputs.tau_l * inputs.tau_e
    for tau in range(1, trace.total_iterations + 1):
        tau0 = tau - ((tau - 1) // span) * span
        for n in range(trace.edge_gap.shape[0]):
            measured = trace.edge_gap[n, tau]
            if np.isnan(measured):
                continue
            dn = float(est.delta_n_bracket[tau // est.tau_l, n])
            Dn = float(est.Delta_n_bracket[tau // est.tau_l, n])
            if np.isnan(dn):
                continue
            bound = edge_drift_bound(tau0, dn, Dn, inputs.eta, inputs.beta)
            if measured > bound + slack:
                out.append(("edge_drift", {"n": n, "tau": tau, "tau0": tau0},
                            float(measured), bound))
    return out


def loop_recursion(trace, inputs, slack=analysis.DEFAULT_SLACK):
    """Scalar-loop oracle: one three-case recursion step per iteration."""
    out = []
    span = inputs.tau_l * inputs.tau_e
    eb = inputs.eta * inputs.beta
    for tau in range(1, trace.total_iterations + 1):
        prev = tau - 1
        if prev % span == 0:
            rhs, case = 0.0, "cloud"
        elif prev % inputs.tau_l == 0:
            rhs, case = trace.gap_u_v[prev] + eb * trace.s_edge[prev], "edge"
        else:
            rhs, case = trace.gap_u_v[prev] + eb * trace.s_vehicle[prev], "local"
        measured = float(trace.gap_u_vtilde[tau])
        if measured > rhs + slack:
            out.append((f"recursion[{case}]", {"tau": tau}, measured, rhs))
    return out


def as_tuples(violations):
    return [(v.check, v.where, float(v.measured), float(v.bound)) for v in violations]


class TestCheckersMatchScalarLoops:
    """The array checkers list the same violations, in the same order
    (iteration-major, then vehicle or edge id), as per-entry loops."""

    @pytest.fixture(scope="class")
    def suite(self):
        _, _, tr, est, inputs = bound_suite_run(speed=30.0, K=2)
        return tr, est, inputs

    def test_scaled_estimates(self, suite):
        tr, est, inputs = suite
        est = copy.deepcopy(est)
        est.delta_m = est.delta_m * 0.5
        est.delta_n_bracket = est.delta_n_bracket * 0.5
        est.Delta_n_bracket = est.Delta_n_bracket * 0.5
        vehicle = check_vehicle_drift(tr, est, inputs)
        edge = check_edge_drift(tr, est, inputs)
        assert len(vehicle) > 0 and len(edge) > 0
        assert as_tuples(vehicle) == loop_vehicle_drift(tr, est, inputs)
        assert as_tuples(edge) == loop_edge_drift(tr, est, inputs)

    def test_bumped_recursion_cases(self, suite):
        tr, _, inputs = suite
        tr = copy.deepcopy(tr)
        span = inputs.tau_l * inputs.tau_e
        # tau - 1 a cloud instant, an edge-only instant, and a local step
        for tau in (span + 1, inputs.tau_l + 1, 3):
            tr.gap_u_vtilde[tau] += 1.0
        got = check_recursion(tr, inputs)
        assert [v.check for v in got] == ["recursion[local]", "recursion[edge]",
                                          "recursion[cloud]"]
        assert as_tuples(got) == loop_recursion(tr, inputs)

    def test_empty_edge_rows_never_fire(self, suite):
        tr, est, inputs = suite
        tr, est = copy.deepcopy(tr), copy.deepcopy(est)
        est.delta_n_bracket = est.delta_n_bracket * 0.5
        est.Delta_n_bracket = est.Delta_n_bracket * 0.5
        tr.edge_gap[1, :] = np.nan
        est.delta_n_bracket[2:5, 3] = np.nan
        got = check_edge_drift(tr, est, inputs)
        assert len(got) > 0
        assert all(v.where["n"] != 1 for v in got)
        assert as_tuples(got) == loop_edge_drift(tr, est, inputs)

    def test_never_occupied_last_edge(self):
        # the estimates have a column per edge up to the highest one the
        # history names; the trace has one per edge of the topology
        shards, _ = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        cfg = engine.HflConfig(eta=0.05, tau_l=2, tau_e=2, cloud_epochs=2, seed=1,
                               record_virtual=True, full_batch=True)
        assoc = np.array([[m % 3 for m in range(8)]] * 5)
        tr = engine.run(cfg, shards, spec, assoc, 4).trace
        est = estimate_divergences(spec, shards, tr.association_history, tr.vtilde,
                                   tau_l=tr.tau_l)
        assert (tr.edge_gap.shape[0], est.delta_n_bracket.shape[1]) == (4, 3)
        est.delta_n_bracket = est.delta_n_bracket * 0.5
        est.Delta_n_bracket = est.Delta_n_bracket * 0.5
        inputs = make_inputs(eta=0.05, beta=1.0, tau_l=2, tau_e=2, K=2)
        got = check_edge_drift(tr, est, inputs)
        assert len(got) > 0
        assert as_tuples(got) == loop_edge_drift(tr, est, inputs)

    def test_fields_are_python_scalars(self, suite):
        tr, est, inputs = suite
        est = copy.deepcopy(est)
        est.delta_m = est.delta_m * 0.5
        v = check_vehicle_drift(tr, est, inputs)[0]
        assert type(v.measured) is float and type(v.bound) is float
        assert all(type(x) is int for x in v.where.values())


def gap_losses(spec, union, tr, inputs):
    return analysis.epoch_losses(spec, union, tr, inputs.tau_l * inputs.tau_e,
                                 inputs.cloud_epochs)


class TestGapBound:
    def test_eta_above_one_over_beta_not_applicable(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        inputs.beta = 2.0 / inputs.eta  # force eta > 1/beta
        report_uk = build_drift_report(tr, est, inputs)
        gr = check_gap_bound(tr, inputs, report_uk, gap_losses(spec, union, tr, inputs))
        assert not gr.applicable
        assert not gr.conditions["eta_le_inv_beta"]
        assert np.isnan(gr.bound)

    def test_homogeneous_reduces_to_descent_bound(self):
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [datasets.Shard(m, base) for m in range(4)]
        spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=5, class_count=3,
                                l2_reg=0.1)
        cfg = engine.HflConfig(eta=0.2, tau_l=2, tau_e=2, cloud_epochs=3, seed=3,
                               record_virtual=True, full_batch=True)
        res = engine.run(cfg, shards, spec)
        tr = res.trace
        union = datasets.union_of_shards(shards)
        opt = models.solve_optimum(spec, union)
        probes = np.vstack([tr.vtilde, np.zeros(tr.vtilde.shape[1]), opt.w])
        est = estimate_divergences(spec, shards, tr.association_history, probes,
                                   tau_l=tr.tau_l)
        assert est.delta <= 1e-12
        beta = models.estimate_constants(spec, union)
        rho = max(est.grad_norm[:len(tr.vtilde)].tolist())
        losses = analysis.epoch_losses(spec, union, tr, 4, 3)
        eps = choose_epsilon(losses, opt.value)
        inputs = BoundInputs(beta=beta, rho=rho, eta=0.2, tau_l=2, tau_e=2,
                             cloud_epochs=3, epsilon=max(eps, 1e-12),
                             w_star=opt.w, f_star=opt.value)
        uk = build_drift_report(tr, est, inputs)
        assert uk.total == pytest.approx(0.0, abs=1e-10)
        gr = check_gap_bound(tr, inputs, uk, losses)
        if gr.applicable:
            T = 12
            assert gr.bound == pytest.approx(1.0 / (T * 0.2 * gr.phi), rel=1e-6)
            assert gr.measured_gap <= gr.bound

    def test_degenerate_start_at_optimum(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        opt_w = tr.vtilde[0].copy()  # pretend the start is the optimum
        inputs.w_star = opt_w
        uk = build_drift_report(tr, est, inputs)
        gr = check_gap_bound(tr, inputs, uk, gap_losses(spec, union, tr, inputs))
        assert gr.degenerate
        assert not gr.applicable
        assert "optimal" in gr.note

    def test_uk_premise_gate(self):
        spec, union, tr, est, inputs = bound_suite_run(speed=0.0, K=2)
        uk = build_drift_report(tr, est, inputs)
        for e in uk.entries:
            e.value = -1.0  # unsatisfiable premise
            e.satisfied = False
        gr = check_gap_bound(tr, inputs, uk, gap_losses(spec, union, tr, inputs))
        assert not gr.conditions["uk_upper_bounds_gap"]
        assert not gr.applicable


class TestMixingReport:
    def test_static_membership_constant(self):
        est = const_estimates(delta=1.0, Delta=0.4, tau_l=6, brackets=40)
        mix = mobility_mixing_report(est)
        assert mix.first_quarter_mean == pytest.approx(mix.last_quarter_mean, rel=1e-12)

    def test_mixing_decreases_delta_trajectory(self):
        shards, emap = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=8, class_count=4, l2_reg=0.05)
        net = mobility.RoadNetwork()
        veh = mobility.init_positions(net, 32, seed=11,
                                      edge_assignment=emap)
        _, hist = mobility.schedule(net, *veh, 30.0, 100)
        est = estimate_divergences(spec, shards, hist, [np.zeros(32)], tau_l=6)
        mix = mobility_mixing_report(est)
        assert mix.last_quarter_mean < mix.first_quarter_mean
