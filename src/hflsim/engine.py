"""Hierarchical federated training with mobile clients.

Schedule per edge round: tau_l local SGD steps on every vehicle, then the
next row of the precomputed association schedule takes effect and every
edge aggregates its members; every tau_e-th edge round is followed by a
cloud aggregation. Aggregation weights are data-size proportional and
always use the association in force at the aggregation instant.

When record_virtual is on, the run also materializes the virtual
trajectories used by the analysis module: u (size-weighted average of all
vehicle models at every iteration), the centralized descent v, and its
pre-synchronization value vtilde.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import union_of_shards
from .models import (accuracy, gradient_fleet, init_params, loss, param_length,
                     quadratic_targets, row_norms, write_param_vector, read_param_vector)

CHECKPOINT_MAGIC = b"HFLCKPT1"


class DivergenceError(RuntimeError):
    """Parameters became non-finite; message names vehicle and iteration."""


class InternalInvariantError(AssertionError):
    """A weight-sum or bookkeeping invariant was violated."""


@dataclass
class HflConfig:
    """The schedule of a run; also the [hfl] config section, whose keys
    and defaults are these fields."""
    eta: float = 0.1
    tau_l: int = 6
    tau_e: int = 10
    cloud_epochs: int = 10  # K
    batch_size: int = 20
    seed: int = 4
    record_virtual: bool = False
    full_batch: bool = False

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.tau_l < 1 or self.tau_e < 1 or self.cloud_epochs < 1:
            raise ValueError("tau_l, tau_e and cloud_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def total_iterations(self):
        return self.cloud_epochs * self.tau_l * self.tau_e


# Byte budget of the buffers the engine fills ahead of use: each chunk of
# minibatch indices a BatchSampler draws, and the stacked terms of the
# in-round snapshots a recording run measures together.
BATCH_CHUNK_BYTES = 1 << 18


class BatchSampler:
    """Minibatch index streams for the whole fleet.

    Vehicle m samples without replacement within a pass: a permutation of
    its shard, drawn from its own stream (seed, BATCH_BASE + m), is
    consumed in batch_size chunks, the incomplete tail is dropped, and the
    next pass reshuffles. A vehicle whose shard is no larger than
    batch_size, and every vehicle in full-batch mode, uses its whole shard
    in order at every step. Vehicles are grouped once, by batch length
    (min(batch_size, n_m), or n_m in full-batch mode) and by whether they
    shuffle, so unequal shards need neither padding nor a mask.

    The streams never depend on training, so the shuffling vehicles' batches
    are drawn ahead into one buffer of about BATCH_CHUNK_BYTES, a chunk of
    steps at a time, each vehicle's passes with one Generator.permuted call
    (the same draws as one permutation call per pass).
    """

    def __init__(self, shard_sizes, batch_size, seed, full_batch=False):
        sizes = np.asarray(shard_sizes, dtype=np.int64)
        self.batch_size = batch_size
        # first row of each shard when the shards are stacked in id order
        self.offset = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        shuffled = np.zeros(sizes.size, bool) if full_batch else sizes > batch_size
        self.groups = []   # vehicle ids of each group, ascending
        self._fixed = []   # each whole-shard group's constant (G, n_m) indices
        for n in sorted(set(sizes[~shuffled].tolist())):
            ids = np.flatnonzero(~shuffled & (sizes == n))
            self.groups.append(ids)
            self._fixed.append(np.broadcast_to(np.arange(n), (ids.size, n)))
        ids = np.flatnonzero(shuffled)
        self._gens = [rng.stream(seed, rng.BATCH_BASE + int(m)) for m in ids]
        if ids.size:
            self.groups.append(ids)
            self._n = sizes[ids].tolist()
            steps = max(1, BATCH_CHUNK_BYTES // (ids.size * batch_size * 8))
            self._chunk = np.empty((steps, ids.size, batch_size), dtype=np.int64)
            self._step = steps  # the chunk is used up: draw one at the first step
            # batches drawn past the end of the last chunk, per vehicle
            self._spare = [np.empty((0, batch_size), dtype=np.int64)] * ids.size

    def _draw_chunk(self):
        """Fill the chunk with the next steps of every shuffling vehicle: its
        spare batches, then as many whole passes as the chunk still needs."""
        b, steps = self.batch_size, len(self._chunk)
        for i, (g, n) in enumerate(zip(self._gens, self._n)):
            spare = self._spare[i]
            per_pass = n // b
            passes = max(0, -(-(steps - len(spare)) // per_pass))
            perms = g.permuted(np.tile(np.arange(n), (passes, 1)), axis=1)
            batches = np.concatenate([spare, perms[:, :per_pass * b].reshape(-1, b)])
            self._chunk[:, i] = batches[:steps]
            self._spare[i] = batches[steps:].copy()  # a view would keep all of batches
        self._step = 0

    def next_batches(self):
        """Advance every vehicle one step; returns one (G, b) array of
        shard-local indices per group, aligned with self.groups. The
        shuffling group's array is a view of the chunk, which the step that
        draws the next chunk overwrites."""
        batches = list(self._fixed)
        if self._gens:
            if self._step == len(self._chunk):
                self._draw_chunk()
            batches.append(self._chunk[self._step])
            self._step += 1
        return batches


def _gather(data, offset, ids, idx):
    """Features (G, b, d) and labels (G, b) of batches idx (G, b) of
    vehicles ids, from data, the shards stacked in id order, whose shard
    m starts at row offset[m]."""
    rows = offset[ids, None] + idx
    return data.features.take(rows, axis=0), data.labels[rows]


def whole_shard_inputs(spec, data, sampler):
    """Features, labels and models.quadratic_targets of every whole-shard
    group of sampler (all its groups but a shuffling one), from data, the
    shards stacked in id order. Their batches are the same at every step,
    so a run builds these once and hands them to every fleet_step."""
    inputs = []
    for ids, idx in zip(sampler.groups, sampler._fixed):
        X, y = _gather(data, sampler.offset, ids, idx)
        inputs.append((X, y, quadratic_targets(spec, y)))
    return inputs


def fleet_step(spec, W, data, sampler, eta, iteration, *, fixed):
    """One local SGD step of every vehicle, in place. data holds the shards
    stacked in id order; each sampler group is one gradient_fleet call.
    fixed is whole_shard_inputs(spec, data, sampler), which the caller
    builds once; the shuffling group, if any, is gathered at every step.
    A group whose ids form a run (the whole fleet, when every shard
    shuffles) updates a slice of W, with no gather and scatter of its
    rows. A non-finite result names the lowest-id vehicle."""
    batches = sampler.next_batches()
    inputs = list(fixed)
    if len(inputs) < len(batches):
        inputs.append(_gather(data, sampler.offset, sampler.groups[-1], batches[-1]) + (None,))
    for ids, (X, y, T) in zip(sampler.groups, inputs):
        if ids[-1] - ids[0] + 1 == ids.size:
            ids = slice(ids[0], ids[-1] + 1)
        W[ids] -= eta * gradient_fleet(spec, W[ids], X, y, targets=T)
    finite = np.isfinite(W)
    if not finite.all():
        m = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise DivergenceError(f"non-finite parameters at vehicle {m} iteration {iteration}")


def membership_weights(edge_of, sizes, edge_count):
    """Aggregation weights of one association row.

    Returns A (N, M) with A[n, m] = size_m / (data on edge n) for the
    members of edge n and 0 elsewhere, and theta (N,), each edge's share
    of all data. Empty edges get a zero row and theta 0. Leading axes of
    edge_of (one association row per bracket, say) carry through to A
    and theta. Shard sizes are integer-valued, so every total is exact.
    """
    onehot = np.asarray(edge_of)[..., None, :] == np.arange(edge_count)[:, None]
    S = onehot * sizes                    # (..., N, M) member sizes
    totals = S.sum(axis=-1)               # (..., N)
    A = np.divide(S, totals[..., None], out=np.zeros(S.shape),
                  where=totals[..., None] > 0)
    return A, totals / sizes.sum()


def fleet_averages(B, W):
    """sum_m B[i, m] * W[m] for every row i of B (K, M): a sum from +0.0
    over the vehicles in id order, so every aggregate is bit-reproducible.
    numpy sums the vehicle-major terms over the leading axis in that
    order, one elementwise pass per vehicle; a single (K, P) entry would
    be one contiguous column, which numpy sums pairwise, so that case is
    accumulated. While W is finite this equals a loop that skips the zero
    weights: a zero weight adds a signed zero, which can leave -0.0 where
    the loop gives +0.0, and the final + 0.0 turns it back. (A zero
    weight times inf is NaN, where the loop skips the row.)"""
    terms = np.multiply(B.T[:, :, None], W[:, None, :], order="C")  # (M, K, P)
    total = np.cumsum(terms, axis=0)[-1] if terms[0].size == 1 else terms.sum(axis=0)
    return total + 0.0


def cloud_aggregate(edge_params, theta):
    """theta-weighted average of edge models; theta must sum to one."""
    s = float(np.sum(theta))
    if abs(s - 1.0) > 1e-9:
        raise InternalInvariantError(f"edge weights sum to {s}, expected 1")
    return fleet_averages(theta[None], edge_params)[0]


@dataclass
class FleetState:
    """The models after iteration tau: run's loop state, and what a
    checkpoint holds."""
    tau: int
    vehicle_params: np.ndarray  # (M, P)
    edge_params: np.ndarray     # (N, P)
    cloud_params: np.ndarray    # (P,)


@dataclass
class MetricsRow:
    cloud_epoch: int
    edge_round: int
    iteration: int
    train_loss: float
    test_accuracy: float       # nan when no eval split was given
    u_vtilde_gap: float        # nan when virtual recording is off
    membership_counts: tuple


@dataclass
class VirtualTrace:
    """Per-iteration records of the virtual trajectories.

    Index 0 is the shared initialization. "pre" quantities are taken
    before the aggregation at an aggregation instant (the SGD-evolved
    local models), matching the recursion the bounds are stated for;
    "post" quantities after aggregation and synchronization.
    """
    tau_l: int
    vtilde: np.ndarray            # (T+1, P); row 0 = w0
    gap_u_vtilde: np.ndarray      # (T+1,)  ||u_pre - vtilde||
    gap_u_v: np.ndarray           # (T+1,)  ||u_post - v_post||
    s_vehicle: np.ndarray         # (T+1,)  sum_m alpha_m ||w_m_post - v_post||
    s_edge: np.ndarray            # (T+1,)  sum_n theta_n ||u_n_post - v_post||
    vehicle_gap: np.ndarray       # (M, T+1) ||w_m_pre - vtilde||
    edge_gap: np.ndarray          # (N, T+1) ||u_n_pre - vtilde||, nan for empty edges
    u_cloud: np.ndarray           # (K+1, P) u_post at cloud instants; row 0 = w0
    association_history: np.ndarray  # (K*tau_e + 1, M) edge index per round

    @property
    def total_iterations(self):
        return len(self.gap_u_vtilde) - 1


@dataclass
class RunResult:
    metrics: list
    final_state: FleetState
    trace: VirtualTrace = None
    cloud_consistency: list = field(default_factory=list)  # (k, max |w - u_pre|) per epoch
    cloud_history: np.ndarray = None  # (K+1, P) cloud model after epoch k; row 0 = w0


def run(config, shards, spec, association=None, edge_count=1, *,
        eval_data=None, init_params_vec=None, train_loss=True):
    """Execute the full hierarchical schedule.

    association is the (K*tau_e + 1, M) schedule of edge ids, row j in
    force from the end of edge round j (row 0 from the start); see
    mobility.schedule. None selects the static mode where every vehicle
    stays on edge 0 (used for the single-edge equivalence checks).
    Each local iteration is one fleet_step over all vehicles; the training
    loss and the centralized descent use the shards stacked in id order.
    The loop's state is one FleetState, updated in place and returned as
    final_state. Every round boundary takes two fleet_averages, before and
    after the aggregation, and the recording measures those same averages,
    so config.record_virtual changes no training bit.
    Returns metrics, the final fleet state, per-epoch cloud/vehicle-average
    consistency, the cloud model after every cloud aggregation, and the
    virtual trace when config.record_virtual is set. With train_loss=False
    the metrics rows carry a nan training loss, and the full-union loss is
    not evaluated; nothing else changes.
    """
    M = len(shards)
    if M < 1:
        raise ValueError("need at least one shard")
    K, tau_l, tau_e = config.cloud_epochs, config.tau_l, config.tau_e
    T = config.total_iterations
    rounds = K * tau_e
    if association is None:
        association = np.zeros((rounds + 1, M), dtype=np.int64)
    association = np.asarray(association)
    if association.shape != (rounds + 1, M):
        raise InternalInvariantError(
            f"association has shape {association.shape}, expected {(rounds + 1, M)}")
    if association.min() < 0 or association.max() >= edge_count:
        raise InternalInvariantError(f"association names an edge outside [0, {edge_count})")
    P = param_length(spec)
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    alpha = sizes / sizes.sum()
    if init_params_vec is None:
        w0 = init_params(spec, config.seed)  # zeros for the convex families
    else:
        w0 = np.asarray(init_params_vec, float).copy()
    if w0.shape != (P,):
        raise ValueError("init params have wrong length")

    state = FleetState(tau=0, vehicle_params=np.tile(w0, (M, 1)),
                       edge_params=np.tile(w0, (edge_count, 1)), cloud_params=w0.copy())
    W, edge_params = state.vehicle_params, state.edge_params  # updated in place
    cloud_history = np.empty((K + 1, P))
    cloud_history[0] = w0
    sampler = BatchSampler(sizes.astype(int), config.batch_size, config.seed,
                           full_batch=config.full_batch)
    fleet = union_of_shards(shards)
    fixed = whole_shard_inputs(spec, fleet, sampler)

    # weights of the association in force, and B, the weights of u (row 0)
    # and of every edge's average; refreshed at every round boundary
    A, theta = membership_weights(association[0], sizes, edge_count)
    occupied = np.flatnonzero(theta)
    B = np.vstack([alpha, A])

    record = config.record_virtual
    if record:
        # the centralized descent runs on the whole union as one fleet row
        uX, uy = fleet.features[None], fleet.labels[None]
        uT = quadratic_targets(spec, uy)
        v = w0.copy()
        # W after each step of a round but the last, vehicle-major, so that
        # the snapshots are measured a chunk at a time; a chunk's
        # fleet_averages terms (M, N + 1, chunk * P) stay within
        # BATCH_CHUNK_BYTES, whatever tau_l is
        chunk = max(1, min(tau_l - 1, BATCH_CHUNK_BYTES // (8 * B.size * P)))
        snaps = np.empty((M, chunk, P))
        trace = VirtualTrace(
            tau_l=tau_l,
            vtilde=np.zeros((T + 1, P)),
            gap_u_vtilde=np.zeros(T + 1),
            gap_u_v=np.zeros(T + 1),
            s_vehicle=np.zeros(T + 1),
            s_edge=np.zeros(T + 1),
            vehicle_gap=np.zeros((M, T + 1)),
            edge_gap=np.full((edge_count, T + 1), np.nan),
            u_cloud=np.zeros((K + 1, P)),
            association_history=association,
        )
        trace.vtilde[0] = w0
        trace.edge_gap[:, 0] = 0.0
        trace.u_cloud[0] = w0
    else:
        trace = None

    def store(taus, Ws, avgs, ref, pre, post):
        """Record S snapshots of the fleet, Ws (M, S, P), for the iterations
        taus (a slice): the distances of u, of each W[m] and of every edge's
        average to ref (S, P), taking u and the edge averages from avgs
        (N + 1, S, P), the snapshots' fleet_averages under B. They fill the
        pre-aggregation fields (ref is vtilde), the post-aggregation fields
        (ref is v), or both. The distances are one row_norms, which keeps
        every row's bits; an empty edge's is nan."""
        diff = np.concatenate([Ws, avgs])
        diff -= ref
        dist = row_norms(diff.reshape(-1, P)).reshape(diff.shape[:2])
        gap, vehicle = dist[M], dist[:M]
        edge = np.where(theta[:, None] > 0, dist[M + 1:], np.nan)
        if pre:
            trace.gap_u_vtilde[taus] = gap
            trace.vehicle_gap[:, taus] = vehicle
            trace.edge_gap[:, taus] = edge
        if post:
            trace.gap_u_v[taus] = gap
            # cumsum adds strictly in id order, like a running loop from zero
            trace.s_vehicle[taus] = np.cumsum(alpha[:, None] * vehicle, axis=0)[-1]
            trace.s_edge[taus] = np.cumsum(theta[occupied, None] * edge[occupied], axis=0)[-1]

    metrics = []
    cloud_consistency = []
    for j in range(1, rounds + 1):
        for s in range(1, tau_l + 1):
            state.tau += 1
            fleet_step(spec, W, fleet, sampler, config.eta, state.tau, fixed=fixed)
            if record:
                vtilde = v - config.eta * gradient_fleet(spec, v[None], uX, uy, targets=uT)[0]
                trace.vtilde[state.tau] = vtilde
                if s < tau_l:
                    v = vtilde
                    held = (s - 1) % chunk + 1
                    snaps[:, held - 1] = W
                    if held == chunk or s == tau_l - 1:
                        # no aggregation inside a round: W is unchanged and
                        # v = vtilde, so one measurement of each snapshot,
                        # under the association it trained with, serves as
                        # both the pre and the post fields; the averages of
                        # all snapshots are one fleet_averages over their
                        # concatenated rows, which keeps every row's bits
                        taus = slice(state.tau - held + 1, state.tau + 1)
                        Ws = snaps[:, :held]
                        avgs = fleet_averages(B, Ws.reshape(M, held * P)).reshape(-1, held, P)
                        store(taus, Ws, avgs, trace.vtilde[taus], pre=True, post=True)
        # round boundary: the new association takes effect, then aggregation
        edge_of = association[j]
        A, theta = membership_weights(edge_of, sizes, edge_count)
        occupied = np.flatnonzero(theta)
        B = np.vstack([alpha, A])
        is_cloud = (j % tau_e == 0)
        here = slice(state.tau, state.tau + 1)
        avgs = fleet_averages(B, W)  # u_pre, then every edge's average
        if record:
            store(here, W[:, None], avgs[:, None], vtilde, pre=True, post=False)

        edge_params[occupied] = avgs[1:][occupied]
        # an empty edge keeps its previous model and gets theta = 0
        W[:] = edge_params[edge_of]

        if is_cloud:
            cloud = state.cloud_params = cloud_aggregate(edge_params, theta)
            edge_params[:] = cloud
            W[:] = cloud
            k = j // tau_e
            cloud_history[k] = cloud
            cloud_consistency.append((k, float(np.max(np.abs(cloud - avgs[0])))))

        avgs = fleet_averages(B, W)
        u = avgs[0]
        if record:
            # at a cloud instant v synchronizes exactly to u
            v = u if is_cloud else vtilde
            store(here, W[:, None], avgs[:, None], v, pre=False, post=True)
            if is_cloud:
                trace.u_cloud[k] = u

        round_loss = loss(spec, u, fleet) if train_loss else float("nan")
        test_acc = accuracy(spec, u, eval_data) if eval_data is not None else float("nan")
        gap = trace.gap_u_vtilde[state.tau] if record else float("nan")
        metrics.append(MetricsRow(
            cloud_epoch=(j + tau_e - 1) // tau_e, edge_round=j, iteration=state.tau,
            train_loss=round_loss, test_accuracy=test_acc, u_vtilde_gap=float(gap),
            membership_counts=tuple(int(c) for c in np.bincount(edge_of, minlength=edge_count))))

    return RunResult(metrics=metrics, final_state=state, trace=trace,
                     cloud_consistency=cloud_consistency, cloud_history=cloud_history)


def config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_checkpoint(path, state, cfg_hash):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        digest = bytes.fromhex(cfg_hash)
        f.write(struct.pack("<B", len(digest)))
        f.write(digest)
        M, N = state.vehicle_params.shape[0], state.edge_params.shape[0]
        f.write(struct.pack("<QQQ", state.tau, M, N))
        write_param_vector(f, state.cloud_params)
        for row in state.edge_params:
            write_param_vector(f, row)
        for row in state.vehicle_params:
            write_param_vector(f, row)


def read_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise IOError("not a checkpoint file")
        (hlen,) = struct.unpack("<B", f.read(1))
        cfg_hash = f.read(hlen).hex()
        tau, M, N = struct.unpack("<QQQ", f.read(24))
        cloud = read_param_vector(f)
        edges = np.stack([read_param_vector(f) for _ in range(N)])
        vparams = np.stack([read_param_vector(f) for _ in range(M)])
        return FleetState(tau=tau, vehicle_params=vparams,
                          edge_params=edges, cloud_params=cloud), cfg_hash
