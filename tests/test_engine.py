import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import datasets, engine, mobility, models, rng
from hflsim.engine import (
    BatchSampler, DivergenceError, HflConfig, InternalInvariantError,
    cloud_aggregate, config_hash, fleet_step, membership_weights,
    read_checkpoint, run, write_checkpoint,
)


def logistic_spec(d=6, C=3, l2=0.01):
    return models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=d, class_count=C, l2_reg=l2)


def make_shards(M, C=3, d=6, n_per=60, seed=1, pseed=2):
    ds = datasets.generate_synthetic(C, d, n_per, 3.0, seed=seed)
    spec = datasets.PartitionSpec(datasets.IID, vehicle_count=M, edge_count=4, seed=pseed)
    return datasets.partition(ds, spec)[0]


def unequal_shards(sizes, C=3, d=6):
    """Consecutive slices of one synthetic dataset, of the given sizes."""
    ds = datasets.generate_synthetic(C, d, 60, 3.0, seed=1)
    cuts = np.cumsum([0] + list(sizes))
    return [datasets.Shard(m, ds.subset(np.arange(cuts[m], cuts[m + 1])))
            for m in range(len(sizes))]


def blowup_shards(M=4, bad=2, scale=1e20):
    """make_shards(M) with vehicle `bad`'s features scaled up, so that a
    quadratic SGD step on that vehicle alone grows until it overflows."""
    shards = make_shards(M)
    d = shards[bad].data
    shards[bad] = datasets.Shard(bad, datasets.LabeledDataset(
        d.features * scale, d.labels, d.class_count))
    return shards


def mobile_run(cfg, shards, spec, net, veh):
    """run() on the association schedule of the given vehicles."""
    _, assoc = mobility.schedule(net, veh, cfg.cloud_epochs * cfg.tau_e)
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


def draws_by_vehicle(sampler):
    """One fleet step of the sampler as {vehicle: its batch indices}."""
    out = {}
    for ids, idx in zip(sampler.groups, sampler.next_batches()):
        assert idx.shape[0] == ids.size
        out.update({int(m): row for m, row in zip(ids, idx)})
    return out


class TestBatchSampler:
    def test_deterministic_streams(self):
        a = BatchSampler([50, 70], 16, seed=9)
        b = BatchSampler([50, 70], 16, seed=9)
        for _ in range(10):
            da, db = draws_by_vehicle(a), draws_by_vehicle(b)
            assert np.array_equal(da[0], db[0])
            assert np.array_equal(da[1], db[1])

    def test_without_replacement_within_pass(self):
        s = BatchSampler([50], 16, seed=3)
        seen = np.concatenate([draws_by_vehicle(s)[0] for _ in range(3)])  # one full pass
        assert len(np.unique(seen)) == len(seen)
        assert np.all(seen < 50)

    def test_full_batch_mode(self):
        s = BatchSampler([13], 5, seed=1, full_batch=True)
        assert np.array_equal(draws_by_vehicle(s)[0], np.arange(13))

    def test_batch_larger_than_shard(self):
        s = BatchSampler([7], 20, seed=1)
        assert np.array_equal(draws_by_vehicle(s)[0], np.arange(7))

    @pytest.mark.parametrize("sizes, batch, full", [
        ([50, 70, 16, 7, 33, 48, 61], 16, False),   # unequal; n < B, n == B, n > B, B | n
        ([5, 9, 12], 20, False),                    # B >= every shard
        ([23, 40, 57, 40], 16, True),               # full batch, unequal
    ])
    def test_matches_per_vehicle_transcription(self, sizes, batch, full):
        s = BatchSampler(sizes, batch, seed=11, full_batch=full)
        ids = np.sort(np.concatenate(s.groups))
        assert np.array_equal(ids, np.arange(len(sizes)))  # each vehicle in one group
        refs = [reference_batches(n, batch, 11, m, full) for m, n in enumerate(sizes)]
        for _ in range(30):  # several passes of the smallest shuffled shard
            got = draws_by_vehicle(s)
            for m, ref in enumerate(refs):
                assert np.array_equal(got[m], next(ref))

    @pytest.mark.parametrize("sizes, batch, full, chunk_steps", [
        # n = B+1, n % B != 0, n < B, B | n
        *[([21, 37, 50, 101, 16, 7, 40, 21], 20, False, c) for c in (1, 3, 64, None)],
        ([23, 40, 57, 40], 16, True, None),             # full batch, unequal
    ])
    def test_chunks_match_per_step_stream(self, monkeypatch, sizes, batch, full, chunk_steps):
        # chunk_steps sets BATCH_CHUNK_BYTES to that many steps of the
        # shuffling group (None: the default); 1200 steps cross many chunks
        shuffled = sum(n > batch for n in sizes) if not full else 0
        if chunk_steps is not None:
            monkeypatch.setattr(engine, "BATCH_CHUNK_BYTES", chunk_steps * shuffled * batch * 8)
        s = BatchSampler(sizes, batch, seed=11, full_batch=full)
        refs = [reference_batches(n, batch, 11, m, full) for m, n in enumerate(sizes)]
        for _ in range(1200):
            got = draws_by_vehicle(s)
            for m, ref in enumerate(refs):
                assert np.array_equal(got[m], next(ref))

    def test_groups_by_batch_length(self):
        s = BatchSampler([5, 30, 5, 12, 30], 12, seed=0)
        assert [g.tolist() for g in s.groups] == [[0, 2], [3], [1, 4]]
        assert [b.shape for b in s.next_batches()] == [(2, 5), (1, 12), (2, 12)]
        assert s.offset.tolist() == [0, 5, 35, 40, 52]


def step_once(spec, shards, W, eta, batch_size=5, iteration=None):
    """fleet_step on a copy of W, with a fresh sampler over the shards."""
    W = np.array(W, dtype=float)
    sampler = BatchSampler([s.size for s in shards], batch_size, seed=0)
    fleet_step(spec, W, datasets.union_of_shards(shards), sampler, eta, iteration)
    return W


class TestLocalUpdate:
    def test_one_dim_hand_step(self):
        # loss 0.5*(w-2)^2 at w=0, eta=0.1 -> w' = 0.2
        shard = datasets.Shard(0, datasets.LabeledDataset(
            np.array([[1.0]]), np.array([2]), class_count=1))
        spec = models.ModelSpec(models.QUADRATIC, dim=1, class_count=1)
        w = step_once(spec, [shard], np.zeros((1, 1)), eta=0.1)
        assert w[0] == pytest.approx([0.2], abs=1e-15)

    def test_fixed_point_at_shard_optimum(self):
        shards = make_shards(1)
        spec = logistic_spec()
        opt = models.solve_optimum(spec, shards[0].data)
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
        shards = [datasets.Shard(m, datasets.LabeledDataset(
            np.array([[1e200 if m in (2, 3) else 1.0]]), np.array([1]), class_count=2))
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
        # alone would add pairwise; the loop adds them in order
        g = np.random.default_rng(M * 100 + K * 10 + P)
        W = g.normal(size=(M, P)) * 10.0 ** g.integers(-8, 8, size=(M, 1))
        cases = [g.random((K, M)), np.zeros((K, M)), g.random((K, M)) * (g.random((K, M)) < 0.5)]
        for B in cases:
            for rows in (W, -np.abs(W), np.full((M, P), -0.0)):
                got = engine.fleet_averages(B, rows)
                want = np.stack([weighted_sum(b, rows) for b in B])
                assert got.tobytes() == want.tobytes()

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
    sampler = BatchSampler(sizes.astype(int), cfg.batch_size, cfg.seed,
                           full_batch=cfg.full_batch)
    fleet = datasets.union_of_shards(shards)
    out = dict(vtilde=np.zeros((T + 1, P)), gap_u_vtilde=np.zeros(T + 1),
               gap_u_v=np.zeros(T + 1), s_vehicle=np.zeros(T + 1), s_edge=np.zeros(T + 1),
               vehicle_gap=np.zeros((M, T + 1)),
               edge_gap=np.full((edge_count, T + 1), np.nan), u_cloud=np.zeros((K + 1, P)))
    out["vtilde"][0] = out["u_cloud"][0] = w0
    out["edge_gap"][:, 0] = 0.0
    A, theta = membership_weights(association[0], sizes, edge_count)

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
            fleet_step(spec, W, fleet, sampler, cfg.eta, tau)
            vtilde = v - cfg.eta * models.gradient_xy(spec, v, fleet.features, fleet.labels)
            out["vtilde"][tau] = vtilde
            if s < tau_l:
                v = vtilde
                store(tau, measure(v), pre=True, post=True)
        edge_of = association[j]
        A, theta = membership_weights(edge_of, sizes, edge_count)
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
        veh = mobility.init_positions(net, 3, speed=60.0, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=6, record_virtual=True)
        _, assoc = mobility.schedule(net, veh, cfg.cloud_epochs * cfg.tau_e,
                                     p_turn=0.3, seed=4)
        assert len({tuple(r) for r in assoc}) > 1
        self.check(cfg, shards, logistic_spec(), assoc, net.edge_count)

    def test_quadratic_full_batch_never_occupied_edge(self):
        shards, _ = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
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
        shards, _ = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
        spec = models.ModelSpec(models.QUADRATIC, dim=6, class_count=4, l2_reg=0.05)
        cfg = HflConfig(eta=0.05, tau_l=tau_l, tau_e=3, cloud_epochs=2, seed=1,
                        record_virtual=True, full_batch=True)
        assoc = np.random.default_rng(tau_l).integers(0, 3, size=(7, 8))
        self.check(cfg, shards, spec, assoc, 4)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_snapshots_in_chunks(self, monkeypatch, chunk):
        # a budget of chunk snapshots' fleet_averages terms splits each
        # round's five in-round snapshots into several measurements
        shards, _ = datasets.shared_input_shards(8, 4, 1, 4, 20, 6, seed=5)
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
        veh = mobility.init_positions(net, 3, speed=60.0, seed=2)
        cfg = HflConfig(eta=0.1, tau_l=4, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=3, record_virtual=True)
        _, assoc = mobility.schedule(net, veh, cfg.cloud_epochs * cfg.tau_e, p_turn=0.3, seed=2)
        self.check(cfg, shards, spec, assoc, net.edge_count)

    @pytest.mark.parametrize("spec", [
        models.ModelSpec(models.QUADRATIC, dim=6, class_count=1, l2_reg=0.05),
        logistic_spec()], ids=["scalar_regression", "logistic"])
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


def gathered_step(spec, W, data, sampler, eta):
    """fleet_step as a fresh gather of every group's batch at every step."""
    for ids, idx in zip(sampler.groups, sampler.next_batches()):
        rows = sampler.offset[ids, None] + idx
        W[ids] -= eta * models.gradient_fleet(spec, W[ids], data.features.take(rows, axis=0),
                                              data.labels[rows])


class TestCachedInputs:
    """run builds the whole-shard groups' inputs once and hands them to
    every fleet_step; every step must equal a fresh gather, bit for bit."""

    SPECS = [models.ModelSpec(models.QUADRATIC, dim=6, class_count=3, l2_reg=0.05),
             models.ModelSpec(models.QUADRATIC, dim=6, class_count=1, l2_reg=0.05),
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
        sampler, ref = (BatchSampler(sizes, batch, seed=7, full_batch=full) for _ in range(2))
        fixed = engine.whole_shard_inputs(spec, data, sampler)
        for tau in range(1, 13):
            fleet_step(spec, W, data, sampler, 0.05, tau, fixed=fixed)
            gathered_step(spec, W_ref, data, ref, 0.05)
            assert W.tobytes() == W_ref.tobytes(), tau

    def test_whole_shard_inputs(self, monkeypatch):
        spec = self.SPECS[0]
        sizes = [5, 5, 30, 5, 12]
        data = datasets.union_of_shards(unequal_shards(sizes))
        s = BatchSampler(sizes, 10, seed=0)
        assert [g.tolist() for g in s.groups] == [[0, 1, 3], [2, 4]]
        fixed = engine.whole_shard_inputs(spec, data, s)
        assert len(fixed) == 1  # the shuffling group is gathered per step
        X, y, T = fixed[0]
        rows = np.array([0, 5, 40])[:, None] + np.arange(5)
        assert np.array_equal(X, data.features[rows]) and np.array_equal(y, data.labels[rows])
        assert T.tobytes() == models.quadratic_targets(spec, y).tobytes()
        assert engine.whole_shard_inputs(self.SPECS[2], data, s)[0][2] is None
        # given fixed, a step builds no whole-shard inputs of its own
        monkeypatch.setattr(engine, "whole_shard_inputs", None)
        W = np.zeros((len(sizes), models.param_length(spec)))
        fleet_step(spec, W, data, s, 0.05, 1, fixed=fixed)


class TestDegenerateEquivalence:
    def test_single_vehicle_bit_identical_to_sgd(self):
        shards = make_shards(1)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.1, tau_l=5, tau_e=4, cloud_epochs=3, batch_size=16, seed=9)
        res = run(cfg, shards, spec)

        batches = reference_batches(shards[0].size, 16, 9, 0)
        w = np.zeros(models.param_length(spec))
        X, y = shards[0].data.features, shards[0].data.labels
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
                X = shards[m].data.features[idx]
                y = shards[m].data.labels[idx]
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
        assignment = {m: m % 4 for m in range(M)}
        veh = mobility.init_positions(net, M, speed=0.0, seed=3,
                                      edge_assignment=assignment)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=4, cloud_epochs=2, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh)
        edge_of = [assignment[m] for m in range(M)]
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
        veh = mobility.init_positions(net, M, speed=30.0, seed=3)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=2, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh)
        st_ = res.final_state
        assert np.max(np.abs(st_.vehicle_params - st_.cloud_params)) == 0.0
        assert np.max(np.abs(st_.edge_params - st_.cloud_params)) == 0.0

    def test_cloud_equals_direct_vehicle_average(self):
        M = 8
        shards = make_shards(M)
        spec = logistic_spec()
        net = mobility.RoadNetwork()
        veh = mobility.init_positions(net, M, speed=30.0, seed=3)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=4, batch_size=16, seed=5)
        res = mobile_run(cfg, shards, spec, net, veh)
        assert max(d for _, d in res.cloud_consistency) <= 1e-12

    def test_virtual_sync_exact_and_trivial_gap(self):
        # identical shards + full batch + every-step sync: u == v throughout
        base = datasets.generate_synthetic(3, 5, 40, 3.0, seed=4)
        shards = [datasets.Shard(m, base) for m in range(4)]
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
        veh = [mobility.VehicleState(0, 100.0, 1, 0.0),
               mobility.VehicleState(1, 200.0, 1, 0.0)]
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=1)
        res = mobile_run(cfg, shards, spec, net, veh)
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
        veh = mobility.init_positions(net, M, speed=60.0, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16,
                        seed=6, record_virtual=True)
        _, assoc = mobility.schedule(net, veh, cfg.cloud_epochs * cfg.tau_e,
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
                s1 += tr.alpha[m] * tr.vehicle_gap[m, tau]
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
        X, y = shards[2].data.features, shards[2].data.labels
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
        shards = make_shards(4)
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=2, cloud_epochs=2, batch_size=16, seed=1,
                        record_virtual=True)
        assoc = np.array([[0, 1, 1, 3]] * 3 + [[2, 1, 0, 3]] * 2)
        res = run(cfg, shards, logistic_spec(), assoc, 4)
        assert res.trace.association_history is assoc
        counts = [r.membership_counts for r in res.metrics]
        assert counts == [(1, 2, 0, 1), (1, 2, 0, 1), (1, 1, 1, 1), (1, 1, 1, 1)]

    def test_metrics_rows_and_determinism(self):
        shards = make_shards(4)
        spec = logistic_spec()
        cfg = HflConfig(eta=0.1, tau_l=2, tau_e=3, cloud_epochs=2, batch_size=16, seed=8)
        a = run(cfg, shards, spec)
        b = run(cfg, shards, spec)
        assert len(a.metrics) == cfg.cloud_epochs * cfg.tau_e
        assert a.metrics_csv_rows() == b.metrics_csv_rows()

    @pytest.mark.parametrize("record", [False, True])
    def test_train_loss_off_changes_nothing_else(self, record):
        # skipping the full-union loss leaves every other output bit alone
        shards = make_shards(6)
        test = datasets.generate_synthetic(3, 6, 20, 3.0, seed=9)
        net = mobility.RoadNetwork(side_length=200.0, intersection_zone=10.0)
        veh = mobility.init_positions(net, 6, speed=60.0, seed=4)
        cfg = HflConfig(eta=0.1, tau_l=3, tau_e=2, cloud_epochs=3, batch_size=16, seed=6,
                        record_virtual=record)
        _, assoc = mobility.schedule(net, veh, cfg.cloud_epochs * cfg.tau_e, p_turn=0.3, seed=4)
        on = run(cfg, shards, logistic_spec(), assoc, net.edge_count, eval_data=test)
        off = run(cfg, shards, logistic_spec(), assoc, net.edge_count, eval_data=test,
                  train_loss=False)
        assert all(np.isfinite(r.train_loss) for r in on.metrics)
        assert all(np.isnan(r.train_loss) for r in off.metrics)
        column = engine.METRICS_HEADER.index("train_loss")

        def other_fields(res):
            return [[f for i, f in enumerate(r.csv_fields()) if i != column] for r in res.metrics]

        assert other_fields(on) == other_fields(off)
        for name in ("tau", "vehicle_params", "edge_params", "cloud_params"):
            assert (np.asarray(getattr(on.final_state, name)).tobytes()
                    == np.asarray(getattr(off.final_state, name)).tobytes()), name
        assert on.cloud_history.tobytes() == off.cloud_history.tobytes()
        assert on.cloud_consistency == off.cloud_consistency
        assert (on.trace is None) == (off.trace is None) == (not record)
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
