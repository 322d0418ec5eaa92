import io
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import datasets, engine, mobility, models, rng
from hflsim.engine import (
    BatchSampler, DivergenceError, HflConfig, InternalInvariantError,
    FleetStep, cloud_aggregate, config_hash, membership_weights,
    read_checkpoint, run, write_checkpoint,
)
from test_models import FLEET_SPECS


def logistic_spec(d=6, C=3, l2=0.01):
    return models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=d, class_count=C, l2_reg=l2)


def make_shards(M, C=3, d=6, n_per=60, seed=1, pseed=2):
    ds = datasets.generate_synthetic(C, d, n_per, 3.0, seed=seed)
    return datasets.partition(ds, datasets.IID, vehicle_count=M, edge_count=4, seed=pseed)


def unequal_shards(sizes, C=3, d=6):
    """Consecutive slices, of the given sizes, of one fixed permutation of
    a class-sorted synthetic dataset's rows, so that every shard mixes
    the classes."""
    ds = datasets.generate_synthetic(C, d, 60, 3.0, seed=1)
    order = np.random.default_rng(0).permutation(ds.size)
    cuts = np.cumsum([0] + list(sizes))
    return [ds.subset(order[cuts[m]:cuts[m + 1]]) for m in range(len(sizes))]


def blowup_shards(M=4, bad=2, scale=1e20):
    """make_shards(M) with vehicle `bad`'s features scaled up, so that a
    quadratic SGD step on that vehicle alone grows until it overflows."""
    shards = make_shards(M)
    d = shards[bad]
    shards[bad] = datasets.LabeledDataset(d.features * scale, d.labels, d.class_count)
    return shards


def mobile_run(cfg, shards, spec, net, start, speed):
    """run() on the association schedule of vehicles at start, the arc
    positions and directions, moving at speed."""
    _, assoc = mobility.schedule(net, *start, speed, cfg.cloud_epochs * cfg.tau_e)
    return run(cfg, shards, spec, assoc, net.edge_count)


def reference_batches(size, batch_size, seed, m, full_batch=False):
    """Independent transcription of vehicle m's batch stream: its own
    permutation of range(size) chunked by batch_size, reshuffled when
    fewer than batch_size indices remain; the whole shard in order when
    it is no larger than a batch or in full-batch mode."""
    if full_batch or batch_size >= size:
        while True:
            yield np.arange(size)
    g = rng.stream(seed, rng.BATCH_BASE + m)
    while True:
        perm = g.permutation(size)
        for k in range(size // batch_size):
            yield perm[k * batch_size:(k + 1) * batch_size]


def draws_by_vehicle(sampler, sizes):
    """One step of the sampler as {vehicle: its shard-local batch indices}."""
    first = np.cumsum(sizes) - np.asarray(sizes)
    rows = sampler.next_rows()
    assert rows.shape == (sampler.ids.size, sampler.batch_size)
    return {int(m): row - first[m] for m, row in zip(sampler.ids, rows)}


def check_transcription(sizes, batch, steps):
    """steps steps of a sampler, every shuffling vehicle's batch equal to
    its reference_batches stream."""
    s = BatchSampler(sizes, batch, seed=11)
    assert s.ids.tolist() == [m for m, n in enumerate(sizes) if n > batch]
    refs = {m: reference_batches(sizes[m], batch, 11, m) for m in s.ids.tolist()}
    for _ in range(steps):
        got = draws_by_vehicle(s, sizes)
        for m, ref in refs.items():
            assert np.array_equal(got[m], next(ref))


class TestBatchSampler:
    def test_deterministic_streams(self):
        a = BatchSampler([50, 70], 16, seed=9)
        b = BatchSampler([50, 70], 16, seed=9)
        for _ in range(10):
            da, db = draws_by_vehicle(a, [50, 70]), draws_by_vehicle(b, [50, 70])
            assert np.array_equal(da[0], db[0])
            assert np.array_equal(da[1], db[1])

    def test_without_replacement_within_pass(self):
        s = BatchSampler([50], 16, seed=3)
        seen = np.concatenate([draws_by_vehicle(s, [50])[0] for _ in range(3)])  # one pass
        assert len(np.unique(seen)) == len(seen)
        assert np.all(seen < 50)

    def test_full_batch_mode(self, monkeypatch):
        # full batch: edge_rounds builds no sampler, and every vehicle's
        # whole shard, in order, is its batch at every step
        monkeypatch.setattr(engine, "BatchSampler", None)
        shards = unequal_shards([13, 20, 13])
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=5, seed=1,
                        full_batch=True)
        res = run(cfg, shards, logistic_spec())
        ref = reference_static_hfl(cfg, shards, logistic_spec(), [0, 0, 0])
        assert np.array_equal(ref, res.final_state.cloud_params)

    def test_batch_larger_than_shard(self):
        # no shard outgrows the batch: the sampler has no vehicle, and a
        # FleetStep given it uses every whole shard
        sizes = [7, 12]
        s = BatchSampler(sizes, 20, seed=1)
        assert s.ids.size == 0 and s.next_rows().shape == (0, 20)
        data = datasets.union_of_shards(unequal_shards(sizes))
        local = FleetStep(logistic_spec(), np.zeros((2, 18)), data.features, data.labels, sizes,
                          s)
        assert local.sampler is None
        assert [X.shape for _, _, X, _ in local._groups] == [(1, 7, 6), (1, 12, 6)]

    @pytest.mark.parametrize("sizes, batch", [
        ([50, 70, 16, 7, 33, 48, 61], 16),   # unequal; n < B, n == B, n > B, B | n
        ([5, 9, 12], 20),                    # B >= every shard
        ([23, 40, 57, 40], 16),              # every shard shuffles
    ])
    def test_matches_per_vehicle_transcription(self, sizes, batch):
        check_transcription(sizes, batch, 30)  # several passes of the smallest shard

    @pytest.mark.parametrize("sizes, batch, chunk_steps", [
        # n = B+1, n % B != 0, n < B, B | n
        *[([21, 37, 50, 101, 16, 7, 40, 21], 20, c) for c in (1, 3, 64, None)],
        ([23, 40, 57, 40], 16, None),                   # every shard shuffles
    ])
    def test_chunks_match_per_step_stream(self, monkeypatch, sizes, batch, chunk_steps):
        # chunk_steps sets BATCH_CHUNK_BYTES to that many steps of the
        # shuffling vehicles (None: the default); 1200 steps cross many chunks
        if chunk_steps is not None:
            shuffled = sum(n > batch for n in sizes)
            monkeypatch.setattr(engine, "BATCH_CHUNK_BYTES", chunk_steps * shuffled * batch * 8)
        check_transcription(sizes, batch, 1200)


def step_once(spec, shards, W, eta, batch_size=5, iteration=None):
    """One FleetStep on a copy of W, with a fresh sampler over the shards."""
    W = np.array(W, dtype=float)
    sizes = [s.size for s in shards]
    sampler = BatchSampler(sizes, batch_size, seed=0)
    data = datasets.union_of_shards(shards)
    FleetStep(spec, W, models.model_inputs(spec, data.features), data.labels, sizes,
              sampler).step(eta, iteration)
    return W


class TestLocalUpdate:
    def test_one_dim_hand_step(self):
        # loss 0.5*||w - e_2||^2 at w=0, eta=0.1 -> w' = 0.1*e_2
        shard = datasets.LabeledDataset(np.array([[1.0]]), np.array([2]), class_count=3)
        spec = models.ModelSpec(models.QUADRATIC, dim=1, class_count=3)
        w = step_once(spec, [shard], np.zeros((1, 3)), eta=0.1)
        assert w[0] == pytest.approx([0.0, 0.0, 0.1], abs=1e-15)

    def test_fixed_point_at_shard_optimum(self):
        shards = make_shards(1)
        spec = logistic_spec()
        opt = models.solve_optimum(spec, shards[0])
        w = step_once(spec, shards, opt.w[None, :], eta=0.1, batch_size=shards[0].size)
        assert np.max(np.abs(w[0] - opt.w)) <= 1e-8

    def test_zero_eta_identity(self):
        shards = make_shards(3)
        spec = logistic_spec()
        W0 = np.linspace(-1, 1, 3 * models.param_length(spec)).reshape(3, -1)
        W = step_once(spec, shards, W0, eta=0.0)
        assert np.array_equal(W, W0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_named(self):
        # only vehicle 2 overflows; the error names it, not a later vehicle
        shards = [datasets.LabeledDataset(
            np.array([[1e200 if m in (2, 3) else 1.0]]), np.array([1]), class_count=2)
            for m in range(4)]
        spec = models.ModelSpec(models.QUADRATIC, dim=1, class_count=2)
        with pytest.raises(DivergenceError, match="vehicle 2 iteration 17"):
            step_once(spec, shards, np.ones((4, 2)), eta=1e300, iteration=17)


def weighted_sum(weights, rows):
    """Loop oracle of the aggregation: sum_i weights[i] * rows[i],
    accumulated from +0.0 over the nonzero weights in index order."""
    acc = np.zeros(rows.shape[1:])
    for i in np.flatnonzero(weights):
        acc += weights[i] * rows[i]
    return acc


def edge_average(edge_of, params, sizes, n=0):
    """Size-weighted average of edge n's members via the shared helpers."""
    A, _ = membership_weights(np.asarray(edge_of), np.asarray(sizes), n + 1)
    return engine.fleet_averages(A[n:n + 1], params)[0]


class TestAggregation:
    def test_single_member_exact(self):
        params = np.array([[1.5, -2.25, 3.0]])
        out = edge_average([0], params, [7.0])
        assert np.array_equal(out, params[0])

    def test_two_member_weighted(self):
        params = np.array([[0.0, 0.0], [4.0, 4.0]])
        out = edge_average([0, 0], params, [1.0, 3.0])
        assert out == pytest.approx([3.0, 3.0], abs=1e-15)

    def test_non_members_ignored(self):
        params = np.array([[1.0, 1.0], [9.0, 9.0], [3.0, 3.0]])
        out = edge_average([1, 0, 1], params, [2.0, 5.0, 2.0], n=1)
        assert np.array_equal(out, [2.0, 2.0])

    def test_membership_weights_match_member_loop(self):
        # reference: per-bracket, per-edge loop over the member sets;
        # edges 4 and 5 are always empty
        g = np.random.default_rng(3)
        sizes = g.integers(1, 50, size=7).astype(float)
        hist = g.integers(0, 4, size=(5, 7))
        A, theta = membership_weights(hist, sizes, 6)
        assert A.shape == (5, 6, 7) and theta.shape == (5, 6)
        assert np.all(A[:, 4:] == 0.0) and np.all(theta[:, 4:] == 0.0)
        for j in range(5):
            Aj, thj = membership_weights(hist[j], sizes, 6)
            assert np.array_equal(A[j], Aj) and np.array_equal(theta[j], thj)
            for n in range(6):
                members = hist[j] == n
                tot = sizes[members].sum()
                assert theta[j, n] == tot / sizes.sum()
                want = np.zeros(7)
                if tot > 0:
                    want[members] = sizes[members] / tot
                assert np.array_equal(A[j, n], want)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_members_match_dot_product_oracle(self, seed):
        g = np.random.default_rng(seed)
        m = int(g.integers(2, 9))
        params = g.normal(size=(m, 5))
        sizes = g.integers(1, 50, size=m).astype(float)
        out = edge_average(np.zeros(m, dtype=np.int64), params, sizes)
        oracle = np.zeros(5)
        for i in range(m):  # independent accumulation
            oracle += (sizes[i] / sizes.sum()) * params[i]
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_cloud_identical_params(self):
        p = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        out = cloud_aggregate(p, np.full(4, 0.25))
        assert out == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)

    def test_cloud_weight_sum_guard(self):
        p = np.zeros((4, 3))
        with pytest.raises(InternalInvariantError):
            cloud_aggregate(p, np.array([0.5, 0.5, 0.5, 0.5]))


class TestBatchedMeasurement:
    """The one-pass averages (recording and aggregation) and the
    stacked-product norms (recording) equal the per-row weighted_sum loop
    and np.linalg.norm calls bit for bit."""

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_fleet_averages_match_weighted_sum(self, K):
        g = np.random.default_rng(4 + K)
        for _ in range(50):
            M, P = int(g.integers(1, 40)), int(g.integers(1, 30))
            W = g.normal(size=(M, P)) * 10.0 ** g.integers(-200, 200, size=(M, 1))
            W[g.random((M, P)) < 0.2] = -0.0  # signed zeros under zero weights
            B = g.random((K, M)) * (g.random((K, M)) < 0.5)
            got = engine.fleet_averages(B, W)
            for i in range(K):
                assert got[i].tobytes() == weighted_sum(B[i], W).tobytes()

    @pytest.mark.parametrize("M, K, P", [(1, 1, 1), (1, 3, 5), (20, 1, 1), (20, 3, 1),
                                         (20, 1, 6), (33, 2, 212)])
    def test_fleet_averages_edge_shapes(self, M, K, P):
        # P == 1 with K == 1 is one contiguous column of terms, which numpy
        # alone would add pairwise; the loop adds them in order. A terms
        # buffer reused by every call, larger than any needs and holding
        # the call before's entries, gives the same bytes
        g = np.random.default_rng(M * 100 + K * 10 + P)
        W = g.normal(size=(M, P)) * 10.0 ** g.integers(-8, 8, size=(M, 1))
        cases = [g.random((K, M)), np.zeros((K, M)), g.random((K, M)) * (g.random((K, M)) < 0.5)]
        terms = np.full(M * (K + 2) * P, np.nan)
        for B in cases:
            for rows in (W, -np.abs(W), np.full((M, P), -0.0)):
                want = np.stack([weighted_sum(b, rows) for b in B])
                assert engine.fleet_averages(B, rows).tobytes() == want.tobytes()
                for Bk in (B, B[:1]):
                    got = engine.fleet_averages(Bk, rows, terms)
                    assert got.tobytes() == want[:len(Bk)].tobytes()

    def test_first_row_alone_equals_the_full_call(self):
        # a run without recording averages only u, B's first row
        g = np.random.default_rng(12)
        for _ in range(1800):
            M, K, P = int(g.integers(1, 33)), int(g.integers(1, 6)), int(g.choice([1, 2, 148]))
            W = g.normal(size=(M, P)) * 10.0 ** g.integers(-8, 8, size=(M, 1))
            W[g.random((M, P)) < 0.2] = -0.0
            B = g.random((K, M)) * (g.random((K, M)) < 0.5)
            got = engine.fleet_averages(B[:1], W)
            assert got.tobytes() == engine.fleet_averages(B, W)[:1].tobytes()

    def test_row_norms_match_linalg_norm(self):
        g = np.random.default_rng(5)
        for _ in range(50):
            R, P = int(g.integers(1, 40)), int(g.integers(1, 70))
            D = g.normal(size=(R, P)) * 10.0 ** g.integers(-150, 150, size=(R, 1))
            D[0] = 0.0
            got = models.row_norms(D)
            assert got.tobytes() == np.array([np.linalg.norm(d) for d in D]).tobytes()


def reference_record(cfg, shards, spec, association, edge_count):
    """The VirtualTrace fields of a recording run, measured as engine.run
    measured them with one weighted_sum per occupied edge and one
    np.linalg.norm per vehicle and per edge, on the same training steps."""
    M, P = len(shards), models.param_length(spec)
    K, tau_l, tau_e, T = cfg.cloud_epochs, cfg.tau_l, cfg.tau_e, cfg.total_iterations
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    alpha = sizes / sizes.sum()
    w0 = models.init_params(spec, cfg.seed)
    W, edge_params, v = np.tile(w0, (M, 1)), np.tile(w0, (edge_count, 1)), w0.copy()
    counts = sizes.astype(int)
    sampler = None if cfg.full_batch else BatchSampler(counts, cfg.batch_size, cfg.seed)
    fleet = datasets.union_of_shards(shards)
    local = FleetStep(spec, W, models.model_inputs(spec, fleet.features), fleet.labels, counts,
                      sampler)
    out = dict(vtilde=np.zeros((T + 1, P)), gap_u_vtilde=np.zeros(T + 1),
               gap_u_v=np.zeros(T + 1), s_vehicle=np.zeros(T + 1), s_edge=np.zeros(T + 1),
               vehicle_gap=np.zeros((M, T + 1)),
               edge_gap=np.full((edge_count, T + 1), np.nan), u_cloud=np.zeros((K + 1, P)),
               weights=np.zeros((K * tau_e + 1, 1 + edge_count, M)))
    out["vtilde"][0] = out["u_cloud"][0] = w0
    out["edge_gap"][:, 0] = 0.0
    A, theta = membership_weights(association[0], sizes, edge_count)
    out["weights"][0] = np.vstack([alpha, A])

    def measure(ref):
        u = weighted_sum(alpha, W)
        ref = u if ref is None else ref
        vehicle = np.array([np.linalg.norm(w - ref) for w in W])
        avgs = {n: weighted_sum(A[n], W) for n in np.flatnonzero(theta)}
        edge = np.full(edge_count, np.nan)
        for n, avg in avgs.items():
            edge[n] = np.linalg.norm(avg - ref)
        return u, np.linalg.norm(u - ref), vehicle, avgs, edge

    def store(tau, look, pre, post):
        _, gap, vehicle, _, edge = look
        if pre:
            out["gap_u_vtilde"][tau] = gap
            out["vehicle_gap"][:, tau] = vehicle
            out["edge_gap"][:, tau] = edge
        if post:
            occupied = np.flatnonzero(theta)
            out["gap_u_v"][tau] = gap
            out["s_vehicle"][tau] = np.cumsum(alpha * vehicle)[-1]
            out["s_edge"][tau] = np.cumsum(theta[occupied] * edge[occupied])[-1]

    tau = 0
    for j in range(1, K * tau_e + 1):
        for s in range(1, tau_l + 1):
            tau += 1
            local.step(cfg.eta, tau)
            vtilde = v - cfg.eta * models.gradient_xy(spec, v, fleet.features, fleet.labels)
            out["vtilde"][tau] = vtilde
            if s < tau_l:
                v = vtilde
                store(tau, measure(v), pre=True, post=True)
        edge_of = association[j]
        A, theta = membership_weights(edge_of, sizes, edge_count)
        out["weights"][j] = np.vstack([alpha, A])
        is_cloud = j % tau_e == 0
        look = measure(vtilde)
        store(tau, look, pre=True, post=False)
        for n, avg in look[3].items():
            edge_params[n] = avg
        W[:] = edge_params[edge_of]
        if is_cloud:
            edge_params[:] = cloud_aggregate(edge_params, theta)
            W[:] = edge_params[0]
        look = measure(None if is_cloud else vtilde)
        store(tau, look, pre=False, post=True)
        v = look[0] if is_cloud else vtilde
        if is_cloud:
            out["u_cloud"][j // tau_e] = look[0]
    return out


class TestRecordingMatchesPerRowLoop:
    def check(self, cfg, shards, spec, assoc, edge_count):
        tr = run(cfg, shards, spec, assoc, edge_count).trace
        want = reference_record(cfg, shards, spec, assoc, edge_count)
        for name, value in want.items():
            assert getattr(tr, name).tobytes() == value.tobytes(), name
        assert np.isnan(tr.edge_gap).any()  # some edge was empty at some iteration
        return tr

    def test_logistic_minibatch_turning_vehicles(self):
        # three vehicles on four edges with p_turn = 0.3: an edge is always empty
        shards = unequal_shards([23, 40, 31])
        net = mobility.RoadNetwork(side_length=200.0, intersection_zone=10.0)
        veh = mobility.init_positions(net, 3, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=6, record_virtual=True)
        _, assoc = mobility.schedule(net, *veh, 60.0, cfg.cloud_epochs * cfg.tau_e,
                                     p_turn=0.3, seed=4)
        assert len({tuple(r) for r in assoc}) > 1
        self.check(cfg, shards, logistic_spec(), assoc, net.edge_count)

    def test_quadratic_full_batch_never_occupied_edge(self):
        shards = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        cfg = HflConfig(eta=0.05, tau_l=2, tau_e=3, cloud_epochs=2, seed=1,
                        record_virtual=True, full_batch=True)
        g = np.random.default_rng(7)
        assoc = g.integers(0, 3, size=(cfg.cloud_epochs * cfg.tau_e + 1, 8))  # edge 3 never
        tr = self.check(cfg, shards, spec, assoc, 4)
        assert np.isnan(tr.edge_gap[3, 1:]).all()


    @pytest.mark.parametrize("tau_l", [1, 2])
    def test_short_rounds(self, tau_l):
        # tau_l = 1 records no in-round snapshot; tau_l = 2 records one per round
        shards = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        cfg = HflConfig(eta=0.05, tau_l=tau_l, tau_e=3, cloud_epochs=2, seed=1,
                        record_virtual=True, full_batch=True)
        assoc = np.random.default_rng(tau_l).integers(0, 3, size=(7, 8))
        self.check(cfg, shards, spec, assoc, 4)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_snapshots_in_chunks(self, monkeypatch, chunk):
        # a budget of chunk snapshots' fleet_averages terms splits each
        # round's five in-round snapshots into several measurements; 3 + 2
        # is the one split whose partial last chunk holds several
        shards = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        edges, P = 4, models.param_length(spec)
        monkeypatch.setattr(engine, "BATCH_CHUNK_BYTES", 8 * (edges + 1) * 8 * P * chunk)
        cfg = HflConfig(eta=0.05, tau_l=6, tau_e=2, cloud_epochs=2, seed=1,
                        record_virtual=True, full_batch=True)
        assoc = np.random.default_rng(3).integers(0, 3, size=(5, 8))
        self.check(cfg, shards, spec, assoc, edges)

    def test_recorded_mlp1_minibatch(self):
        shards = unequal_shards([23, 40, 31])
        spec = models.ModelSpec(models.MLP1, dim=6, class_count=3, l2_reg=0.01, hidden_width=5)
        net = mobility.RoadNetwork(side_length=200.0, intersection_zone=10.0)
        veh = mobility.init_positions(net, 3, seed=2)
        cfg = HflConfig(eta=0.1, tau_l=4, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=3, record_virtual=True)
        _, assoc = mobility.schedule(net, *veh, 60.0, cfg.cloud_epochs * cfg.tau_e,
                                     p_turn=0.3, seed=2)
        self.check(cfg, shards, spec, assoc, net.edge_count)

    @pytest.mark.parametrize("spec", [
        models.ModelSpec(models.QUADRATIC, dim=6, class_count=3, l2_reg=0.05),
        logistic_spec()], ids=["quadratic", "logistic"])
    def test_single_edge(self, spec):
        # the static mode: every vehicle on edge 0, which is never empty
        shards = unequal_shards([12, 20, 9, 19])
        cfg = HflConfig(eta=0.05, tau_l=3, tau_e=2, cloud_epochs=2, batch_size=10, seed=2,
                        record_virtual=True)
        tr = run(cfg, shards, spec).trace
        want = reference_record(cfg, shards, spec, np.zeros((5, 4), dtype=np.int64), 1)
        for name, value in want.items():
            assert getattr(tr, name).tobytes() == value.tobytes(), name
        assert not np.isnan(tr.edge_gap).any()


def reference_rows(sizes, batch, seed, full):
    """Every vehicle's reference_batches stream, as rows of the shards
    stacked in id order."""
    first = np.cumsum(sizes) - np.asarray(sizes)
    refs = [reference_batches(n, batch, seed, m, full) for m, n in enumerate(sizes)]
    while True:
        yield [first[m] + next(ref) for m, ref in enumerate(refs)]


def gathered_step(spec, W, data, rows, eta):
    """FleetStep.step as a fresh gather at every step: the vehicles with
    batches of one length, each batch the next of rows, take one fresh
    GradientWorkspace."""
    batches = next(rows)
    for n in sorted({b.size for b in batches}):
        ids = [m for m, b in enumerate(batches) if b.size == n]
        idx = np.stack([batches[m] for m in ids])
        ws = models.GradientWorkspace(spec, W[ids], n)
        X = models.model_inputs(spec, data.features[idx])
        W[ids] -= eta * ws.gradient(X, models.one_hot(data.labels[idx], spec.class_count))


def group_ids(local):
    """Each FleetStep group's vehicle ids; a run's from its slice of W."""
    out = []
    for ids, ws, *_ in local._groups:
        if ids is None:
            first = (ws.W.ctypes.data - local.W.ctypes.data) // local.W.strides[0]
            ids = np.arange(first, first + len(ws.W))
        out.append(ids.tolist())
    return out


class TestCachedInputs:
    """A FleetStep gathers the whole-shard groups' inputs once and the
    shuffling group's into the same buffers at every step; every step must
    equal a fresh gather, bit for bit."""

    SPECS = [models.ModelSpec(models.QUADRATIC, dim=6, class_count=3, l2_reg=0.05),
             logistic_spec(),
             models.ModelSpec(models.MLP1, dim=6, class_count=3, l2_reg=0.01, hidden_width=5)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-C{s.class_count}")
    @pytest.mark.parametrize("sizes, batch, full", [
        ([5, 30, 5, 12], 10, False),     # fixed ids 0 and 2, 1 and 3 shuffle
        ([5, 5, 30, 12], 10, False),     # fixed ids 0 and 1, a run
        ([23, 40, 31, 40], 10, True),    # full batch, three groups
        ([20, 20, 20], 8, True),         # the whole fleet as one group
    ])
    def test_every_step_equals_fresh_gather(self, spec, sizes, batch, full):
        shards = unequal_shards(sizes)
        data = datasets.union_of_shards(shards)
        P = models.param_length(spec)
        W = models.init_params(spec, 3) + np.linspace(-0.5, 0.5, len(sizes) * P).reshape(-1, P)
        W_ref = W.copy()
        sampler = None if full else BatchSampler(sizes, batch, seed=7)
        local = FleetStep(spec, W, models.model_inputs(spec, data.features), data.labels, sizes,
                          sampler)
        rows = reference_rows(sizes, batch, 7, full)
        for tau in range(1, 13):
            local.step(0.05, tau)
            gathered_step(spec, W_ref, data, rows, 0.05)
            assert W.tobytes() == W_ref.tobytes(), tau

    def test_groups_by_shard_size(self):
        # the whole shards by size, ascending, then the shuffling vehicles
        sizes = [5, 30, 5, 12, 30]
        data = datasets.union_of_shards(unequal_shards(sizes))
        W = np.zeros((len(sizes), models.param_length(self.SPECS[1])))
        local = FleetStep(self.SPECS[1], W, data.features, data.labels, sizes,
                          BatchSampler(sizes, 12, seed=0))
        assert group_ids(local) == [[0, 2], [3], [1, 4]]
        assert [T.shape for *_, T in local._groups] == [(2, 5, 3), (1, 12, 3), (2, 12, 3)]
        assert [ids is None for ids, *_ in local._groups] == [False, True, False]
        # without a sampler every vehicle uses its whole shard
        local = FleetStep(self.SPECS[1], W, data.features, data.labels, sizes)
        assert group_ids(local) == [[0, 2], [3], [1, 4]]
        assert [T.shape for *_, T in local._groups] == [(2, 5, 3), (1, 12, 3), (2, 30, 3)]

    def test_fixed_group_inputs_built_once(self, monkeypatch):
        spec = self.SPECS[0]
        sizes = [5, 5, 30, 5, 12]
        data = datasets.union_of_shards(unequal_shards(sizes))
        s = BatchSampler(sizes, 10, seed=0)
        assert s.ids.tolist() == [2, 4]
        W = np.zeros((len(sizes), models.param_length(spec)))
        local = FleetStep(spec, W, data.features, data.labels, sizes, s)
        fixed = [group[2:] for group in local._groups[:-1]]
        assert len(fixed) == 1  # the shuffling group is gathered per step
        X, T = fixed[0]
        rows = np.array([0, 5, 40])[:, None] + np.arange(5)
        assert np.array_equal(X, data.features[rows])
        assert T.tobytes() == models.one_hot(data.labels[rows], spec.class_count).tobytes()
        # once built, a step builds no whole-shard inputs of its own
        monkeypatch.setattr(engine, "one_hot", None)
        local.step(0.05, 1)


def xy_step(spec, W, data, rows, eta):
    """One local step as a loop over the vehicles with gradient_xy, each
    batch the next of rows."""
    for m, idx in enumerate(next(rows)):
        W[m] -= eta * models.gradient_xy(spec, W[m], data.features[idx], data.labels[idx])


class TestFleetStepMatchesGradientXy:
    """One FleetStep serves a whole run; every step, across the sampler's
    chunks, must equal the per-vehicle gradient_xy loop bit for bit."""

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    @pytest.mark.parametrize("sizes, batch, full", [
        ([5, 30, 5, 12], 10, False),     # fixed ids 0 and 2, shuffling 1 and 3: no runs
        ([30, 30, 5], 10, False),        # the shuffling group a run
        ([23, 40, 31, 40], 10, True),    # full batch, three groups
    ])
    def test_steps_equal_gradient_xy_loop(self, monkeypatch, spec, sizes, batch, full):
        # a chunk of 7 steps, so 64 steps draw ten chunks
        shuffled = 0 if full else sum(n > batch for n in sizes)
        monkeypatch.setattr(engine, "BATCH_CHUNK_BYTES", 7 * shuffled * batch * 8)
        # every shard mixes the classes, so the labels change from step to step
        C = min(3, max(2, spec.class_count))
        ds = datasets.generate_synthetic(C, 6, 80, 3.0, seed=1)
        data = ds.subset(np.random.default_rng(4).permutation(ds.size)[:sum(sizes)])
        P = models.param_length(spec)
        W = models.init_params(spec, 3) + np.linspace(-0.5, 0.5, len(sizes) * P).reshape(-1, P)
        W_ref = W.copy()
        sampler = None if full else BatchSampler(sizes, batch, seed=7)
        local = FleetStep(spec, W, models.model_inputs(spec, data.features), data.labels, sizes,
                          sampler)
        rows = reference_rows(sizes, batch, 7, full)
        for tau in range(1, 65):
            local.step(0.05, tau)
            xy_step(spec, W_ref, data, rows, 0.05)
            assert W.tobytes() == W_ref.tobytes(), tau

    @pytest.mark.parametrize("spec, full, batch", [
        (models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05), True, 20),
        (models.ModelSpec(models.QUADRATIC, dim=6, class_count=3, l2_reg=0.0), False, 8),
        (models.ModelSpec(models.MLP1, dim=6, class_count=3, l2_reg=0.01, hidden_width=5),
         False, 8)], ids=["quadratic-full", "quadratic-minibatch", "mlp1-minibatch"])
    def test_recorded_vtilde_equals_gradient_xy_descent(self, spec, full, batch):
        # vtilde takes one gradient_xy step on the union from v, and v is
        # vtilde, except at a cloud instant, where it is the cloud model
        shards = unequal_shards([23, 40, 31, 12])
        cfg = HflConfig(eta=0.05, tau_l=4, tau_e=4, cloud_epochs=4, batch_size=batch, seed=2,
                        record_virtual=True, full_batch=full)
        assoc = np.random.default_rng(1).integers(0, 2, size=(17, 4))
        tr = run(cfg, shards, spec, assoc, 2).trace
        union = datasets.union_of_shards(shards)
        v = tr.vtilde[0]
        for tau in range(1, cfg.total_iterations + 1):
            v = v - cfg.eta * models.gradient_xy(spec, v, union.features, union.labels)
            assert tr.vtilde[tau].tobytes() == v.tobytes(), tau
            if tau % (cfg.tau_l * cfg.tau_e) == 0:
                v = tr.u_cloud[tau // (cfg.tau_l * cfg.tau_e)]


class TestDegenerateEquivalence:
    def test_single_vehicle_bit_identical_to_sgd(self):
        shards = make_shards(1)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.1, tau_l=5, tau_e=4, cloud_epochs=3, batch_size=16, seed=9)
        res = run(cfg, shards, spec)

        batches = reference_batches(shards[0].size, 16, 9, 0)
        w = np.zeros(models.param_length(spec))
        X, y = shards[0].features, shards[0].labels
        for _ in range(cfg.total_iterations):
            idx = next(batches)
            w = w - cfg.eta * models.gradient_xy(spec, w, X[idx], y[idx])
        assert np.array_equal(w, res.final_state.cloud_params)


def reference_static_hfl(cfg, shards, spec, edge_of):
    """Independent static-topology oracle: direct transcription of the
    update/aggregate schedule with fixed membership."""
    M = len(shards)
    sizes = np.array([s.size for s in shards], float)
    P = models.param_length(spec)
    W = np.tile(models.init_params(spec, cfg.seed), (M, 1))
    batches = [reference_batches(s.size, cfg.batch_size, cfg.seed, m, cfg.full_batch)
               for m, s in enumerate(shards)]
    tau = 0
    for j in range(1, cfg.cloud_epochs * cfg.tau_e + 1):
        for _ in range(cfg.tau_l):
            tau += 1
            for m in range(M):
                idx = next(batches[m])
                X = shards[m].features[idx]
                y = shards[m].labels[idx]
                W[m] = W[m] - cfg.eta * models.gradient_xy(spec, W[m], X, y)
        for n in set(edge_of):
            members = [m for m in range(M) if edge_of[m] == n]
            tot = sizes[members].sum()
            agg = np.zeros(P)
            for m in members:
                agg += (sizes[m] / tot) * W[m]
            for m in members:
                W[m] = agg
        if j % cfg.tau_e == 0:
            cloud = np.zeros(P)
            for n in set(edge_of):
                members = [m for m in range(M) if edge_of[m] == n]
                theta = sizes[members].sum() / sizes.sum()
                cloud += theta * W[members[0]]
            W[:] = cloud
    return W[0]


class TestRun:
    def test_zero_speed_equals_static_reference(self):
        M = 8
        shards = make_shards(M)
        spec = logistic_spec()
        net = mobility.RoadNetwork(side_length=500.0, intersection_zone=25.0)
        edge_of = [m % 4 for m in range(M)]
        veh = mobility.init_positions(net, M, seed=3, sides=np.array(edge_of))
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=4, cloud_epochs=2, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh, 0.0)
        ref = reference_static_hfl(cfg, shards, spec, edge_of)
        assert np.max(np.abs(ref - res.final_state.cloud_params)) <= 1e-12
        # association never changes at v=0
        internal = [r.membership_counts for r in res.metrics]
        assert len(set(internal)) == 1

    def test_consensus_after_cloud_exact(self):
        M = 8
        shards = make_shards(M)
        spec = logistic_spec()
        net = mobility.RoadNetwork()
        veh = mobility.init_positions(net, M, seed=3)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=2, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh, 30.0)
        st_ = res.final_state
        assert np.max(np.abs(st_.vehicle_params - st_.cloud_params)) == 0.0
        assert np.max(np.abs(st_.edge_params - st_.cloud_params)) == 0.0

    def test_cloud_equals_direct_vehicle_average(self):
        M = 8
        shards = make_shards(M)
        spec = logistic_spec()
        net = mobility.RoadNetwork()
        veh = mobility.init_positions(net, M, seed=3)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=4, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh, 30.0)
        assert max(d for _, d in res.cloud_consistency) <= 1e-12

    def test_virtual_sync_exact_and_trivial_gap(self):
        # identical shards + full batch + every-step sync: u == v throughout
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [base] * 4
        spec = logistic_spec(d=5, C=3)
        cfg = HflConfig(eta=0.1, tau_l=1, tau_e=1, cloud_epochs=12, batch_size=8,
                        seed=2, record_virtual=True, full_batch=True)
        res = run(cfg, shards, spec)
        tr = res.trace
        span = cfg.tau_l * cfg.tau_e
        for k in range(cfg.cloud_epochs + 1):
            assert np.max(np.abs(tr.u_cloud[k] - tr.vtilde[k * span])) <= 1e-12
        assert np.array_equal(tr.u_cloud[cfg.cloud_epochs], res.final_state.cloud_params)
        assert np.max(tr.gap_u_vtilde) <= 1e-12

    def test_virtual_sync_rule(self):
        shards = make_shards(6)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.05, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=7, record_virtual=True)
        res = run(cfg, shards, spec)
        tr = res.trace
        span = cfg.tau_l * cfg.tau_e
        # v <- u at cloud instants, bitwise
        for k in range(1, cfg.cloud_epochs + 1):
            assert tr.gap_u_v[k * span] == 0.0

    def test_empty_edges_freeze_and_run_completes(self):
        M = 2
        shards = make_shards(M)
        spec = logistic_spec()
        net = mobility.RoadNetwork(side_length=1000.0)
        # both vehicles on side 0; edges 1..3 stay empty
        veh = ([100.0, 200.0], [1, 1])
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=1)
        res = mobile_run(cfg, shards, spec, net, veh, 0.0)
        assert res.metrics[-1].membership_counts == (2, 0, 0, 0)
        assert np.all(np.isfinite(res.final_state.cloud_params))

    def test_in_round_trace_identities(self):
        # inside an edge round nothing aggregates, so the post fields are the
        # pre fields: v = vtilde, and the drift sums are the id-order sums of
        # the recorded per-vehicle and per-edge gaps; three vehicles on four
        # edges leave at least one edge empty (NaN) at every iteration
        M = 3
        shards = make_shards(M)
        net = mobility.RoadNetwork(side_length=200.0, intersection_zone=10.0)
        veh = mobility.init_positions(net, M, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=6, record_virtual=True)
        _, assoc = mobility.schedule(net, *veh, 60.0, cfg.cloud_epochs * cfg.tau_e,
                                     p_turn=0.5, seed=4)
        assert len({tuple(r) for r in assoc}) > 1  # the membership really changes
        tr = run(cfg, shards, logistic_spec(), assoc, net.edge_count).trace
        sizes = np.array([s.size for s in shards], dtype=np.float64)
        checked = 0
        for tau in range(1, cfg.total_iterations + 1):
            if tau % cfg.tau_l == 0:
                continue
            _, theta = membership_weights(assoc[(tau - 1) // cfg.tau_l], sizes,
                                          net.edge_count)
            assert tr.gap_u_v[tau] == tr.gap_u_vtilde[tau]
            s1 = 0.0
            for m in range(M):
                s1 += sizes[m] / sizes.sum() * tr.vehicle_gap[m, tau]
            assert tr.s_vehicle[tau] == s1
            s2 = 0.0
            for n in range(net.edge_count):
                if not np.isnan(tr.edge_gap[n, tau]):
                    s2 += theta[n] * tr.edge_gap[n, tau]
            assert tr.s_edge[tau] == s2
            assert np.isnan(tr.edge_gap[:, tau]).any()
            checked += 1
        assert checked == cfg.total_iterations * (cfg.tau_l - 1) // cfg.tau_l

    @pytest.mark.parametrize("family", [models.QUADRATIC, models.MULTINOMIAL_LOGISTIC,
                                        models.MLP1])
    @pytest.mark.parametrize("sizes, full", [([23, 40, 57], True),         # full batch
                                             ([9, 16, 32, 45, 12], False)],  # some n_m < B
                             ids=["full_batch", "minibatch"])
    def test_unequal_shards_equal_static_reference(self, family, sizes, full):
        shards = unequal_shards(sizes)
        spec = models.ModelSpec(family, dim=6, class_count=3, l2_reg=0.01,
                                hidden_width=5 if family == models.MLP1 else 0)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=5, full_batch=full)
        edge_of = [m % 2 for m in range(len(sizes))]
        assoc = np.tile(edge_of, (cfg.cloud_epochs * cfg.tau_e + 1, 1))
        res = run(cfg, shards, spec, assoc, 2)
        ref = reference_static_hfl(cfg, shards, spec, edge_of)
        assert np.array_equal(ref, res.final_state.cloud_params)  # tolerance 0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_names_the_only_diverging_vehicle(self):
        shards = blowup_shards()
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=3)
        cfg = HflConfig(eta=0.1, tau_l=20, tau_e=1, cloud_epochs=1, batch_size=16, seed=1)
        # oracle: vehicle 2 on its own, until its parameters stop being finite;
        # no aggregation happens before then, so no other vehicle is touched
        w = np.zeros(models.param_length(spec))
        batches = reference_batches(shards[2].size, 16, 1, 2)
        X, y = shards[2].features, shards[2].labels
        for t in range(1, cfg.tau_l + 1):
            idx = next(batches)
            w = w - cfg.eta * models.gradient_xy(spec, w, X[idx], y[idx])
            if not np.all(np.isfinite(w)):
                break
        assert 1 < t < cfg.tau_l
        with pytest.raises(DivergenceError, match=f"vehicle 2 iteration {t}$"):
            run(cfg, shards, spec)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_location(self):
        shards = make_shards(2)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=3)
        cfg = HflConfig(eta=1e160, tau_l=2, tau_e=2, cloud_epochs=1, batch_size=16, seed=1)
        with pytest.raises(DivergenceError, match="vehicle"):
            run(cfg, shards, spec)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2), dtype=np.int64),   # too few rounds
                                     np.zeros((3, 3), dtype=np.int64),   # too many vehicles
                                     np.full((3, 2), 4),                 # edge id == edge_count
                                     np.full((3, 2), -1)])
    def test_bad_association_is_internal_error(self, bad):
        # a malformed schedule is a bug in the caller, not a configuration
        # error, so it must not surface as ValueError (exit 2 in the CLI)
        shards = make_shards(2)
        cfg = HflConfig(eta=0.1, tau_l=1, tau_e=2, cloud_epochs=1, batch_size=16, seed=1)
        with pytest.raises(InternalInvariantError) as e:
            run(cfg, shards, logistic_spec(), bad, 4)
        assert not isinstance(e.value, ValueError)

    def test_association_history_is_the_schedule(self):
        # the trace carries the association and the schedule it ran under
        shards = make_shards(4)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=1,
                        record_virtual=True)
        assoc = np.array([[0, 1, 1, 3]] * 3 + [[2, 1, 0, 3]] * 2)
        res = run(cfg, shards, logistic_spec(), assoc, 4)
        assert res.trace.association_history is assoc and res.trace.hfl is cfg
        counts = [r.membership_counts for r in res.metrics]
        assert counts == [(1, 2, 0, 1), (1, 2, 0, 1), (1, 1, 1, 1), (1, 1, 1, 1)]

    def test_metrics_rows_and_determinism(self):
        shards = make_shards(4)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=2, batch_size=16, seed=8)
        a = run(cfg, shards, spec)
        b = run(cfg, shards, spec)
        assert len(a.metrics) == cfg.cloud_epochs * cfg.tau_e
        np.testing.assert_equal([astuple(r) for r in a.metrics], [astuple(r) for r in b.metrics])

    @pytest.mark.parametrize("record", [False, True])
    def test_train_loss_off_changes_nothing_else(self, record):
        # skipping the full-union loss leaves every other output bit alone,
        # and so does flipping the recording, apart from the u - vtilde gap
        shards = make_shards(6)
        test = datasets.generate_synthetic(3, 6, 20, 3.0, seed=9)
        net = mobility.RoadNetwork(side_length=200.0, intersection_zone=10.0)
        veh = mobility.init_positions(net, 6, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16, seed=6,
                        record_virtual=record)
        _, assoc = mobility.schedule(net, *veh, 60.0, cfg.cloud_epochs * cfg.tau_e,
                                     p_turn=0.3, seed=4)
        on = run(cfg, shards, logistic_spec(), assoc, net.edge_count, eval_data=test)
        off = run(cfg, shards, logistic_spec(), assoc, net.edge_count, eval_data=test,
                  train_loss=False)
        flipped = run(replace(cfg, record_virtual=not record), shards, logistic_spec(),
                      assoc, net.edge_count, eval_data=test)
        assert all(np.isfinite(r.train_loss) for r in on.metrics)
        assert all(np.isnan(r.train_loss) for r in off.metrics)

        def assert_same_but(a, b, name):
            def other_fields(res):
                return [[v for f, v in zip(fields(r), astuple(r)) if f.name != name]
                        for r in res.metrics]

            np.testing.assert_equal(other_fields(a), other_fields(b))
            for field in ("tau", "vehicle_params", "edge_params", "cloud_params"):
                assert (np.asarray(getattr(a.final_state, field)).tobytes()
                        == np.asarray(getattr(b.final_state, field)).tobytes()), field
            assert a.cloud_consistency == b.cloud_consistency

        assert_same_but(on, off, "train_loss")
        assert_same_but(on, flipped, "u_vtilde_gap")
        assert (on.trace is None) == (off.trace is None) == (flipped.trace is not None)
        assert (on.trace is None) == (not record)
        if record:
            for name, value in vars(on.trace).items():
                assert (np.asarray(value).tobytes()
                        == np.asarray(getattr(off.trace, name)).tobytes()), name

    def test_init_params_override(self):
        shards = make_shards(2)
        spec = logistic_spec()
        w0 = np.linspace(-0.5, 0.5, models.param_length(spec))
        cfg = HflConfig(eta=1e-9, tau_l=1, tau_e=1, cloud_epochs=1, batch_size=16, seed=0)
        res = run(cfg, shards, spec, init_params_vec=w0)
        assert np.max(np.abs(res.final_state.cloud_params - w0)) < 1e-6

    MLP = models.ModelSpec(models.MLP1, dim=6, class_count=3, l2_reg=0.01, hidden_width=4)

    @pytest.mark.parametrize("spec", [logistic_spec(), MLP], ids=lambda s: s.family)
    def test_metric_rows_read_union_and_eval_rows(self, spec):
        # every round's loss is over the training union and its accuracy
        # over the eval split, both at that round's u
        shards = make_shards(4)
        test = datasets.generate_synthetic(3, 6, 20, 3.0, seed=9)
        union = datasets.union_of_shards(shards)
        alpha = np.array([s.size for s in shards], dtype=np.float64) / union.size
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=6)
        for res in engine.edge_rounds(cfg, shards, spec, eval_data=test):
            u = engine.fleet_averages(alpha[None], res.final_state.vehicle_params)[0]
            row = res.metrics[-1]
            assert row.train_loss == models.loss(
                spec, u, models.model_inputs(spec, union.features), union.labels)
            assert row.test_accuracy == models.accuracy(
                spec, u, models.model_inputs(spec, test.features), test.labels)

    @pytest.mark.parametrize("spec", [logistic_spec(), MLP], ids=lambda s: s.family)
    def test_model_inputs_built_once_per_split(self, spec, monkeypatch):
        # the model-input rows of the training union and of the eval split
        # are built once per run, not again for every round's loss and
        # accuracy; mlp1's hidden activations (width 4) are not counted
        shards = make_shards(4)
        test = datasets.generate_synthetic(3, 6, 20, 3.0, seed=9)
        real, rows = models.model_inputs, []

        def counted(spec, X):
            if X.shape[-1] == spec.dim:
                rows.append(X.shape[0])
            return real(spec, X)

        monkeypatch.setattr(models, "model_inputs", counted)
        monkeypatch.setattr(engine, "model_inputs", counted)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=6)
        res = run(cfg, shards, spec, eval_data=test)
        assert len(res.metrics) == 4
        assert rows == [sum(s.size for s in shards), test.size]


def test_round_boundary_reuses_its_buffers():
    # the train workload's shapes: a 1,600-row union on 32 vehicles and a
    # 400-row eval split, mlp1 with 16 hidden units, 4 edges, batches of
    # 20, no recording. The loss, the accuracy and the fleet averages of
    # every round run on buffers built once per run, so after the first
    # round no round's allocations peak near the union's size (the (1600,
    # 17) activations alone are 212 KiB; fresh arrays took 432 KiB a round)
    full = datasets.generate_synthetic(4, 8, 500, 4.0, seed=1)
    train, test = datasets.train_test_split(full, 0.2, 1)
    shards = datasets.partition(
        train, datasets.EDGE_NONIID, vehicle_count=32, edge_count=4, classes_per_unit=1, seed=1)
    spec = models.ModelSpec(models.MLP1, dim=8, class_count=4, hidden_width=16)
    cfg = HflConfig(eta=0.1, tau_l=6, tau_e=10, cloud_epochs=2, batch_size=20, seed=4)
    assoc = np.random.default_rng(0).integers(0, 4, size=(cfg.cloud_epochs * cfg.tau_e + 1, 32))
    assert datasets.union_of_shards(shards).size == 1600
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in engine.edge_rounds(cfg, shards, spec, assoc, 4, eval_data=test):
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(peaks) == 20
    assert max(peaks[1:]) < 192 * 1024, [p // 1024 for p in peaks]


@pytest.mark.parametrize("family", models.FAMILIES)
def test_local_step_allocates_nothing(family):
    # the train workload's step: 32 vehicles of 50 rows, batches of 20 from
    # a sampler, d = 8, c = 4, mlp1 with 16 hidden units. Once the first
    # step has drawn the sampler's chunk, a step builds no targets, no
    # broadcast softmax operand and no temporary for a strided product
    # (one of these alone is over 20 KiB at these shapes)
    spec = models.ModelSpec(family, dim=8, class_count=4,
                            hidden_width=16 if family == models.MLP1 else 0)
    data = datasets.generate_synthetic(4, 8, 400, 4.0, seed=1)
    sizes = [50] * 32
    W = np.tile(models.init_params(spec, 1), (32, 1))
    local = FleetStep(spec, W, models.model_inputs(spec, data.features), data.labels, sizes,
                      BatchSampler(sizes, 20, seed=1))
    local.step(0.05, 1)
    tracemalloc.start()
    try:
        for tau in range(2, 8):
            local.step(0.05, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048, peak


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        shards = make_shards(3)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=1, batch_size=16, seed=4)
        res = run(cfg, shards, spec)
        path = tmp_path / "state.bin"
        h = config_hash("some canonical text")
        write_checkpoint(path, res.final_state, h)
        state, h2 = read_checkpoint(path)
        assert h2 == h
        assert state.tau == res.final_state.tau
        assert np.array_equal(state.cloud_params, res.final_state.cloud_params)
        assert np.array_equal(state.vehicle_params, res.final_state.vehicle_params)
        assert np.array_equal(state.edge_params, res.final_state.edge_params)

    def test_reject_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(IOError):
            read_checkpoint(p)

    @pytest.mark.parametrize("cut, what", [
        (0, "hash length"),           # the file stops right after the magic
        (1 + 10, "config hash"),      # inside the 32-byte hash
        (1 + 32 + 5, "tau, M, N"),    # inside the three 8-byte fields
    ])
    def test_truncated_header_is_an_ioerror(self, tmp_path, cut, what):
        state = engine.FleetState(tau=3, vehicle_params=np.zeros((2, 4)),
                                  edge_params=np.zeros((1, 4)), cloud_params=np.zeros(4))
        whole = tmp_path / "state.bin"
        write_checkpoint(whole, state, config_hash("text"))
        p = tmp_path / "cut.bin"
        p.write_bytes(whole.read_bytes()[:len(engine.CHECKPOINT_MAGIC) + cut])
        with pytest.raises(IOError, match=f"truncated checkpoint: the {what}"):
            read_checkpoint(p)

    @pytest.mark.parametrize("claimed", [2 ** 62, 2 ** 40])
    def test_corrupt_vector_length_is_an_ioerror(self, tmp_path, claimed):
        # the cloud vector's length header claims far more than the file
        # holds; without the check 2**62 overflows and 2**40 asks for 8 TiB
        state = engine.FleetState(tau=3, vehicle_params=np.zeros((2, 4)),
                                  edge_params=np.zeros((1, 4)), cloud_params=np.zeros(4))
        p = tmp_path / "state.bin"
        write_checkpoint(p, state, config_hash("text"))
        raw = bytearray(p.read_bytes())
        at = len(engine.CHECKPOINT_MAGIC) + 1 + 32 + 24
        assert raw[at:at + 8] == (4).to_bytes(8, "little")
        raw[at:at + 8] = claimed.to_bytes(8, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(IOError, match=f"{claimed} values, 152 bytes left"):
            read_checkpoint(p)

    @pytest.mark.parametrize("M, N, edge_len, vehicle_len", [
        (0, 1, 4, 4), (2, 0, 4, 4), (0, 0, 4, 4),  # no vehicles or no edges
        (2, 1, 5, 4), (2, 1, 4, 3),                 # a vector longer or shorter than the cloud's
    ])
    def test_malformed_is_an_ioerror(self, tmp_path, M, N, edge_len, vehicle_len):
        state = engine.FleetState(tau=3, vehicle_params=np.zeros((M, vehicle_len)),
                                  edge_params=np.zeros((N, edge_len)), cloud_params=np.zeros(4))
        p = tmp_path / "state.bin"
        write_checkpoint(p, state, config_hash("text"))
        with pytest.raises(IOError, match="malformed checkpoint"):
            read_checkpoint(p)
