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
from .models import (accuracy, gradient_fleet, gradient_xy, init_params, loss,
                     param_length, row_norms, write_param_vector, read_param_vector)

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
    """

    def __init__(self, shard_sizes, batch_size, seed, full_batch=False):
        sizes = np.asarray(shard_sizes, dtype=np.int64)
        self.batch_size = batch_size
        # first row of each shard when the shards are stacked in id order
        self.offset = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        shuffled = np.zeros(sizes.size, bool) if full_batch else sizes > batch_size
        self.groups = []   # vehicle ids of each group, ascending
        self._fixed = []   # each whole-shard group's constant (G, n_m) indices
        for n in np.unique(sizes[~shuffled]):
            ids = np.flatnonzero(~shuffled & (sizes == n))
            self.groups.append(ids)
            self._fixed.append(np.broadcast_to(np.arange(n), (ids.size, n)))
        ids = np.flatnonzero(shuffled)
        self._gens = [rng.stream(seed, rng.BATCH_BASE + int(m)) for m in ids]
        if ids.size:
            self.groups.append(ids)
            self._n = sizes[ids]
            self._perm = np.zeros((ids.size, self._n.max()), dtype=np.int64)
            self._cursor = self._n.copy()  # every pass "ended": shuffle at the first step

    def next_batches(self):
        """Advance every vehicle one step; returns one (G, b) array of
        shard-local indices per group, aligned with self.groups."""
        batches = list(self._fixed)
        if self._gens:
            b = self.batch_size
            for i in np.flatnonzero(self._cursor + b > self._n):
                self._perm[i, :self._n[i]] = self._gens[i].permutation(self._n[i])
                self._cursor[i] = 0
            rows = np.arange(len(self._gens))[:, None]
            batches.append(self._perm[rows, self._cursor[:, None] + np.arange(b)])
            self._cursor += b
        return batches


def fleet_step(spec, W, data, sampler, eta, iteration):
    """One local SGD step of every vehicle, in place. data holds the shards
    stacked in id order; each sampler group is one gather and one
    gradient_fleet call. A non-finite result names the lowest-id vehicle."""
    for ids, idx in zip(sampler.groups, sampler.next_batches()):
        rows = sampler.offset[ids, None] + idx
        W[ids] -= eta * gradient_fleet(spec, W[ids], data.features[rows], data.labels[rows])
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


def weighted_sum(weights, rows):
    """sum_i weights[i] * rows[i], accumulated from zero over the nonzero
    weights in index order. The fixed order keeps every aggregate
    bit-reproducible."""
    acc = np.zeros(rows.shape[1:])
    for i in np.flatnonzero(weights):
        acc += weights[i] * rows[i]
    return acc


def fleet_averages(B, W):
    """weighted_sum(B[i], W) for every row i of B (K, M) at once, bit for
    bit while W is finite: one running sum over the vehicles in id order.
    A zero weight adds a signed zero, which changes no sum but can leave
    -0.0 where weighted_sum, starting from +0.0, gives +0.0; the final
    + 0.0 turns it back. (A zero weight times inf is NaN, where
    weighted_sum skips the row.)"""
    return np.add.accumulate(B[:, :, None] * W, axis=1)[:, -1] + 0.0


def cloud_aggregate(edge_params, theta):
    """theta-weighted average of edge models; theta must sum to one."""
    s = float(np.sum(theta))
    if abs(s - 1.0) > 1e-9:
        raise InternalInvariantError(f"edge weights sum to {s}, expected 1")
    return weighted_sum(theta, edge_params)


@dataclass
class FleetState:
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

    def csv_fields(self):
        def num(x):
            return "" if np.isnan(x) else repr(float(x))
        return [str(self.cloud_epoch), str(self.edge_round), str(self.iteration),
                repr(float(self.train_loss)), num(self.test_accuracy),
                num(self.u_vtilde_gap),
                ";".join(str(int(c)) for c in self.membership_counts)]


METRICS_HEADER = ["cloud_epoch", "edge_round", "iteration", "train_loss",
                  "test_accuracy", "u_vtilde_gap", "edge_membership_counts"]


@dataclass
class VirtualTrace:
    """Per-iteration records of the virtual trajectories.

    Index 0 is the shared initialization. "pre" quantities are taken
    before the aggregation at an aggregation instant (the SGD-evolved
    local models), matching the recursion the bounds are stated for;
    "post" quantities after aggregation and synchronization.
    """
    eta: float
    tau_l: int
    tau_e: int
    cloud_epochs: int
    alpha: np.ndarray             # (M,) size weights
    shard_sizes: np.ndarray       # (M,)
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
        return self.cloud_epochs * self.tau_l * self.tau_e


@dataclass
class RunResult:
    metrics: list
    final_state: FleetState
    trace: VirtualTrace = None
    cloud_consistency: list = field(default_factory=list)  # (k, max |w - u_pre|) per epoch
    cloud_history: np.ndarray = None  # (K+1, P) cloud model after epoch k; row 0 = w0

    def metrics_csv_rows(self):
        return [METRICS_HEADER] + [r.csv_fields() for r in self.metrics]


def run(config, shards, spec, association=None, edge_count=1, *,
        eval_data=None, init_params_vec=None):
    """Execute the full hierarchical schedule.

    association is the (K*tau_e + 1, M) schedule of edge ids, row j in
    force from the end of edge round j (row 0 from the start); see
    mobility.schedule. None selects the static mode where every vehicle
    stays on edge 0 (used for the single-edge equivalence checks).
    Each local iteration is one fleet_step over all vehicles; the training
    loss and the centralized descent use the shards stacked in id order.
    Returns metrics, the final fleet state, per-epoch cloud/vehicle-average
    consistency, the cloud model after every cloud aggregation, and the
    virtual trace when config.record_virtual is set.
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

    W = np.tile(w0, (M, 1))
    edge_params = np.tile(w0, (edge_count, 1))
    cloud = w0.copy()
    cloud_history = np.empty((K + 1, P))
    cloud_history[0] = w0
    sampler = BatchSampler(sizes.astype(int), config.batch_size, config.seed,
                           full_batch=config.full_batch)
    fleet = union_of_shards(shards)

    # weights of the association in force; refreshed at every round boundary
    A, theta = membership_weights(association[0], sizes, edge_count)
    occupied = np.flatnonzero(theta)

    record = config.record_virtual
    if record:
        uX, uy = fleet.features, fleet.labels
        v = w0.copy()
        trace = VirtualTrace(
            eta=config.eta, tau_l=tau_l, tau_e=tau_e, cloud_epochs=K,
            alpha=alpha.copy(), shard_sizes=sizes.copy(),
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

    def averages():
        """u (row 0), then every edge's average (an empty edge's is unused)."""
        return fleet_averages(np.vstack([alpha, A]), W)

    def measure(ref=None):
        """The fleet against ref (None: against u itself): u, ||u - ref||,
        each ||W[m] - ref||, every edge's average, and each edge average's
        distance to ref (nan for empty edges)."""
        avgs = averages()
        u = avgs[0]
        ref = u if ref is None else ref
        dist = row_norms(np.vstack([W, avgs]) - ref)
        edge = np.where(theta > 0, dist[M + 1:], np.nan)
        return u, dist[M], dist[:M], avgs[1:], edge

    def store(tau, look, pre, post):
        """Store a measurement as the pre-aggregation fields (against
        vtilde), the post-aggregation fields (against v), or both."""
        _, gap, vehicle, _, edge = look
        if pre:
            trace.gap_u_vtilde[tau] = gap
            trace.vehicle_gap[:, tau] = vehicle
            trace.edge_gap[:, tau] = edge
        if post:
            trace.gap_u_v[tau] = gap
            # cumsum adds strictly in id order, like a running loop from zero
            trace.s_vehicle[tau] = np.cumsum(alpha * vehicle)[-1]
            trace.s_edge[tau] = np.cumsum(theta[occupied] * edge[occupied])[-1]

    metrics = []
    cloud_consistency = []
    tau = 0
    for j in range(1, rounds + 1):
        for s in range(1, tau_l + 1):
            tau += 1
            fleet_step(spec, W, fleet, sampler, config.eta, tau)
            if record:
                vtilde = v - config.eta * gradient_xy(spec, v, uX, uy)
                trace.vtilde[tau] = vtilde
                if s < tau_l:
                    # no aggregation: W is unchanged and v = vtilde, so one
                    # measurement serves as both the pre and the post fields
                    v = vtilde
                    store(tau, measure(v), pre=True, post=True)
        # round boundary: the new association takes effect, then aggregation
        edge_of = association[j]
        A, theta = membership_weights(edge_of, sizes, edge_count)
        occupied = np.flatnonzero(theta)
        is_cloud = (j % tau_e == 0)
        if record:
            look = measure(vtilde)
            store(tau, look, pre=True, post=False)
            u_pre, _, _, avgs, _ = look
        else:
            avgs = averages()
            u_pre, avgs = avgs[0], avgs[1:]

        edge_params[occupied] = avgs[occupied]
        # an empty edge keeps its previous model and gets theta = 0
        W[:] = edge_params[edge_of]

        if is_cloud:
            cloud = cloud_aggregate(edge_params, theta)
            edge_params[:] = cloud
            W[:] = cloud
            k = j // tau_e
            cloud_history[k] = cloud
            cloud_consistency.append((k, float(np.max(np.abs(cloud - u_pre)))))

        if record:
            # at a cloud instant v synchronizes exactly to u
            look = measure(None if is_cloud else vtilde)
            store(tau, look, pre=False, post=True)
            u_metric = look[0]
            v = u_metric if is_cloud else vtilde
            if is_cloud:
                trace.u_cloud[k] = u_metric
        else:
            u_metric = weighted_sum(alpha, W)

        train_loss = loss(spec, u_metric, fleet)
        test_acc = accuracy(spec, u_metric, eval_data) if eval_data is not None else float("nan")
        gap = trace.gap_u_vtilde[tau] if record else float("nan")
        metrics.append(MetricsRow(
            cloud_epoch=(j + tau_e - 1) // tau_e, edge_round=j, iteration=tau,
            train_loss=train_loss, test_accuracy=test_acc, u_vtilde_gap=float(gap),
            membership_counts=tuple(int(c) for c in np.bincount(edge_of, minlength=edge_count))))

    final = FleetState(tau=tau, vehicle_params=W.copy(),
                       edge_params=edge_params.copy(), cloud_params=cloud.copy())
    return RunResult(metrics=metrics, final_state=final, trace=trace,
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
