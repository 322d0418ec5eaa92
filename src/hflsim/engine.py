"""Hierarchical federated training with mobile clients.

Schedule per edge round: tau_l local SGD steps on every vehicle, then the
next row of the precomputed association schedule takes effect and every
edge aggregates its members; every tau_e-th edge round is followed by a
cloud aggregation. Aggregation weights are data-size proportional and
always use the association in force at the aggregation instant.

When record_virtual is on, a Recording also materializes the virtual
trajectories used by the analysis module: u (size-weighted average of all
vehicle models at every iteration), the centralized descent v, its
pre-synchronization value vtilde, and the weights every round aggregated with.
"""

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import union_of_shards
from .models import (EvalWorkspace, GradientWorkspace, init_params, model_inputs, one_hot,
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
        if p := self.problems():
            raise ValueError(p[0])

    def problems(self):
        """Every rule the schedule's values break."""
        return [m for broken, m in (
            (self.eta <= 0, "eta must be > 0"),
            (self.tau_l < 1 or self.tau_e < 1 or self.cloud_epochs < 1,
             "tau_l, tau_e and cloud_epochs must be >= 1"),
            (self.batch_size < 1, "batch_size must be >= 1")) if broken]

    @property
    def total_iterations(self):
        return self.cloud_epochs * self.tau_l * self.tau_e


# Byte budget of the buffers the engine fills ahead of use: each chunk of
# minibatch indices a BatchSampler draws, and the stacked terms of the
# in-round snapshots a recording run measures together.
BATCH_CHUNK_BYTES = 1 << 18


class BatchSampler:
    """Minibatch rows of the vehicles whose shards outgrow a batch.

    Each vehicle with n_m > batch_size (ids, ascending) samples without
    replacement within a pass: a permutation of its shard, from its own
    stream (seed, BATCH_BASE + m), is consumed in batch_size chunks, the
    incomplete tail is dropped, and the next pass reshuffles. Rows are
    numbered in the shards stacked in id order: vehicle m permutes
    first_m + arange(n_m), and Generator.permuted shuffles positions, not
    values, so the draws are those of the shard-local indices.

    The streams never depend on training, so they are drawn ahead into
    one buffer of about BATCH_CHUNK_BYTES, a chunk of steps at a time,
    each vehicle's passes with one Generator.permuted call (the same draws
    as one permutation call per pass).
    """

    def __init__(self, shard_sizes, batch_size, seed):
        sizes = np.asarray(shard_sizes, dtype=np.int64)
        self.batch_size = batch_size
        self.ids = np.flatnonzero(sizes > batch_size)
        first = np.cumsum(sizes) - sizes
        self._rows = [first[m] + np.arange(sizes[m]) for m in self.ids]
        self._gens = [rng.stream(seed, rng.BATCH_BASE + int(m)) for m in self.ids]
        steps = max(1, BATCH_CHUNK_BYTES // (max(1, self.ids.size) * batch_size * 8))
        self._chunk = np.empty((steps, self.ids.size, batch_size), dtype=np.int64)
        self._step = steps  # the chunk is used up: draw one at the first step
        # batches drawn past the end of the last chunk, per vehicle
        self._spare = [np.empty((0, batch_size), dtype=np.int64)] * self.ids.size

    def _draw_chunk(self):
        """Fill the chunk with the next steps of every vehicle: its spare
        batches, then as many whole passes as the chunk still needs."""
        b, steps = self.batch_size, len(self._chunk)
        for i, (g, rows) in enumerate(zip(self._gens, self._rows)):
            spare = self._spare[i]
            per_pass = rows.size // b
            passes = max(0, -(-(steps - len(spare)) // per_pass))
            perms = g.permuted(np.tile(rows, (passes, 1)), axis=1)
            batches = np.concatenate([spare, perms[:, :per_pass * b].reshape(-1, b)])
            self._chunk[:, i] = batches[:steps]
            self._spare[i] = batches[steps:].copy()  # a view would keep all of batches
        self._step = 0

    def next_rows(self):
        """Advance every vehicle one step; returns the (len(ids), batch_size)
        stacked rows of their batches, a view of the chunk, which the step
        that draws the next chunk overwrites."""
        if self._step == len(self._chunk):
            self._draw_chunk()
        self._step += 1
        return self._chunk[self._step - 1]


class FleetStep:
    """One local SGD step of every vehicle, in place, built once per run.

    W (M, P) is the fleet's parameters, X and y the model-input rows
    (models.model_inputs) and labels of the shards stacked in id order,
    and shard_sizes their lengths. The sampler's vehicles are one group,
    gathered into the same buffers at every step; every other vehicle (all
    of them without a sampler, or with one that has no ids) uses its whole
    shard, and those are grouped by shard size, so unequal shards need
    neither padding nor a mask, and each group's inputs and one-hot
    targets are gathered once, the targets from the union's, built once
    here. Each group gets one
    models.GradientWorkspace. A group whose ids form a run (the whole fleet,
    when every shard shuffles) works on a slice of W; any other group's
    rows are copied into its workspace's weight buffer and written back
    after the update.
    """

    def __init__(self, spec, W, X, y, shard_sizes, sampler=None):
        sizes = np.asarray(shard_sizes, dtype=np.int64)
        first = np.cumsum(sizes) - sizes
        sampler = sampler if sampler is not None and sampler.ids.size else None
        self.W, self.X, self.sampler = W, X, sampler
        self.T = one_hot(y, spec.class_count)
        self._finite = np.empty(W.shape, dtype=bool)
        whole = np.ones(sizes.size, bool)
        if sampler is not None:
            whole[sampler.ids] = False
        groups = [np.flatnonzero(whole & (sizes == n)) for n in sorted(set(sizes[whole].tolist()))]
        self._groups = []  # (ids, or None for a run; workspace; X; targets)
        for ids in groups + ([] if sampler is None else [sampler.ids]):
            run = ids[-1] - ids[0] + 1 == ids.size
            Wg = W[ids[0]:ids[-1] + 1] if run else np.empty((ids.size, W.shape[1]))
            if whole[ids[0]]:
                rows = first[ids, None] + np.arange(sizes[ids[0]])
                Xg, Tg = X.take(rows, axis=0), self.T.take(rows, axis=0)
            else:
                shape = (ids.size, sampler.batch_size)
                Xg, Tg = np.empty(shape + X.shape[1:]), np.zeros(shape + self.T.shape[1:])
            self._groups.append((None if run else ids, GradientWorkspace(spec, Wg, Tg.shape[1]),
                                 Xg, Tg))

    def step(self, eta, iteration):
        """Advance every vehicle one step. A non-finite result names the
        lowest-id vehicle."""
        W = self.W
        if self.sampler is not None:
            rows = self.sampler.next_rows()
            _, _, X, T = self._groups[-1]
            # every row is in range by construction; take's default mode
            # would copy its output through a temporary
            self.X.take(rows, axis=0, out=X, mode="clip")
            self.T.take(rows, axis=0, out=T, mode="clip")
        for ids, ws, X, T in self._groups:
            if ids is not None:
                W.take(ids, axis=0, out=ws.W, mode="clip")
            g = ws.gradient(X, T)
            g *= eta
            ws.W -= g
            if ids is not None:
                W[ids] = ws.W
        finite = np.isfinite(W, out=self._finite)
        if not finite.all():
            m = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise DivergenceError(f"non-finite parameters at vehicle {m} iteration {iteration}")


def membership_weights(edge_of, sizes, edge_count):
    """Aggregation weights of one association row.

    Returns A (N, M) with A[n, m] = size_m / (data on edge n) for the
    members of edge n and 0 elsewhere, and theta (N,), each edge's share
    of all data. Empty edges get a zero row and theta 0. Leading axes of
    edge_of (one association row per bracket, say) carry through to A
    and theta. The shard sizes are integer-valued, so every total is exact.
    """
    onehot = np.asarray(edge_of)[..., None, :] == np.arange(edge_count)[:, None]
    S = onehot * sizes                    # (..., N, M) member sizes
    totals = S.sum(axis=-1)               # (..., N)
    A = np.divide(S, totals[..., None], out=np.zeros(S.shape),
                  where=totals[..., None] > 0)
    return A, totals / sizes.sum()


def fleet_averages(B, W, terms=None):
    """sum_m B[i, m] * W[m] for every row i of B (K, M): a sum from +0.0
    over the vehicles in id order, so every aggregate is bit-reproducible.
    numpy sums the vehicle-major terms over the leading axis in that
    order, one elementwise pass per vehicle; a single (K, P) entry would
    be one contiguous column, which numpy sums pairwise, so that case is
    accumulated. While W is finite this equals a loop that skips the zero
    weights: a zero weight adds a signed zero, which can leave -0.0 where
    the loop gives +0.0, and the final + 0.0 turns it back. (A zero
    weight times inf is NaN, where the loop skips the row.)

    The terms are one einsum, written into terms, a flat buffer of at
    least B.size * P entries, when given, so a caller that averages at
    every round builds it once (numpy's multiply would give its broadcast
    factor a temporary buffer at every call). einsum writes a -0.0 product
    as +0.0, which changes only the sign of a zero sum."""
    M, P = W.shape
    K = B.shape[0]
    out = np.empty((M, K, P)) if terms is None else terms[:M * K * P].reshape(M, K, P)
    terms = np.einsum("km,mp->mkp", B, W, out=out)  # vehicle-major
    total = np.cumsum(terms, axis=0)[-1] if K * P == 1 else terms.sum(axis=0)
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
    vtilde: np.ndarray            # (T+1, P); row 0 = w0
    gap_u_vtilde: np.ndarray      # (T+1,)  ||u_pre - vtilde||
    gap_u_v: np.ndarray           # (T+1,)  ||u_post - v_post||
    s_vehicle: np.ndarray         # (T+1,)  sum_m alpha_m ||w_m_post - v_post||
    s_edge: np.ndarray            # (T+1,)  sum_n theta_n ||u_n_post - v_post||
    vehicle_gap: np.ndarray       # (M, T+1) ||w_m_pre - vtilde||
    edge_gap: np.ndarray          # (N, T+1) ||u_n_pre - vtilde||, nan for empty edges
    u_cloud: np.ndarray           # (K+1, P) u_post at cloud instants; row 0 = w0
    association_history: np.ndarray  # (K*tau_e + 1, M) edge index per round
    weights: np.ndarray           # (K*tau_e + 1, 1 + N, M) each row's B: alpha, then edges
    hfl: HflConfig                # the schedule the run recorded under

    @property
    def total_iterations(self):
        return len(self.gap_u_vtilde) - 1


@dataclass
class RunResult:
    metrics: list
    final_state: FleetState
    trace: VirtualTrace = None
    cloud_consistency: list = field(default_factory=list)  # (k, max |w - u_pre|) per epoch


class Recording:
    """The virtual trajectories of one run, in trace, whose weights is the
    run's membership schedule itself. step takes the B and theta of the
    association in force, and terms, the run's one fleet_averages buffer,
    of at least B.size * chunk * P entries."""

    def __init__(self, config, spec, w0, X, T, weights, association):
        M, P, K, n = weights.shape[2], len(w0), config.cloud_epochs, config.total_iterations + 1
        self.eta, self.tau_l, self.alpha = config.eta, config.tau_l, weights[0, 0]
        # v, one fleet row on the union, is vtilde after every step
        self._X, self._T, self.v = X[None], T[None], w0.copy()
        self._descent = GradientWorkspace(spec, self.v[None], len(X))
        # snapshots of W, measured a chunk at a time, whose fleet_averages
        # terms (M, N + 1, chunk * P) stay within BATCH_CHUNK_BYTES
        self.chunk = max(1, min(self.tau_l - 1, BATCH_CHUNK_BYTES // (8 * weights[0].size * P)))
        self._snaps = np.empty((M, self.chunk, P))
        self.trace = VirtualTrace(
            vtilde=np.zeros((n, P)), gap_u_vtilde=np.zeros(n), gap_u_v=np.zeros(n),
            s_vehicle=np.zeros(n), s_edge=np.zeros(n), vehicle_gap=np.zeros((M, n)),
            edge_gap=np.full((weights.shape[1] - 1, n), np.nan), u_cloud=np.zeros((K + 1, P)),
            association_history=association, weights=weights, hfl=config)
        self.trace.vtilde[0], self.trace.u_cloud[0] = w0, w0
        self.trace.edge_gap[:, 0] = 0.0

    def step(self, tau, W, B, theta, terms):
        """After local step tau: one step of v, and W kept as a snapshot
        at every step of a round but the last."""
        g = self._descent.gradient(self._X, self._T)
        g *= self.eta
        self.v -= g[0]
        self.trace.vtilde[tau] = self.v
        s = (tau - 1) % self.tau_l + 1  # the step's place in its round
        if s < self.tau_l:
            held = (s - 1) % self.chunk + 1
            self._snaps[:, held - 1] = W
            if held == self.chunk or s == self.tau_l - 1:
                # no aggregation inside a round: v = vtilde, and one
                # measurement serves the pre and the post fields, one
                # fleet_averages over the snapshots' rows keeping their bits
                taus = slice(tau - held + 1, tau + 1)
                Ws = self._snaps[:, :held]
                avgs = fleet_averages(B, Ws.reshape(len(W), -1), terms)
                self._store(taus, Ws, avgs, self.trace.vtilde[taus], theta, pre=True, post=True)

    def before_aggregation(self, tau, W, avgs, theta):
        """The pre fields at tau from avgs, the fleet_averages of W under the
        weights of the association the round ending at tau puts in force,
        and theta, that association's; returns ||u_pre - vtilde||."""
        self._store(slice(tau, tau + 1), W[:, None], avgs, self.v, theta,
                    pre=True, post=False)  # v is vtilde
        return float(self.trace.gap_u_vtilde[tau])

    def after_aggregation(self, tau, W, avgs, theta, cloud_epoch):
        """The post fields at tau from avgs, the fleet_averages of the
        aggregated W; returns u. At the end of cloud epoch k (cloud_epoch,
        else None) v synchronizes exactly to u, which is u_cloud[k]."""
        if cloud_epoch is not None:
            self.v[:] = self.trace.u_cloud[cloud_epoch] = avgs[0]
        self._store(slice(tau, tau + 1), W[:, None], avgs, self.v, theta,
                    pre=False, post=True)
        return avgs[0]

    def _store(self, taus, Ws, avgs, ref, theta, pre, post):
        """Record the snapshots Ws (M, S, P) of the iterations taus (a
        slice): the distances of u, of each W[m] and of every edge's average,
        from avgs (N + 1, S * P), to ref (S, P), vtilde for the pre fields
        and v for the post ones, as one row_norms; an empty edge's is nan."""
        M, S, P = Ws.shape
        tr, alpha = self.trace, self.alpha
        diff = np.concatenate([Ws, avgs.reshape(-1, S, P)])
        diff -= ref
        dist = row_norms(diff.reshape(-1, P)).reshape(diff.shape[:2])
        gap, vehicle = dist[M], dist[:M]
        occupied = theta[:, None] > 0
        edge = np.where(occupied, dist[M + 1:], np.nan)
        if pre:
            tr.gap_u_vtilde[taus] = gap
            tr.vehicle_gap[:, taus] = vehicle
            tr.edge_gap[:, taus] = edge
        if post:
            tr.gap_u_v[taus] = gap
            tr.s_vehicle[taus] = fleet_averages(alpha[None], vehicle)[0]
            tr.s_edge[taus] = fleet_averages(theta[None], np.where(occupied, edge, 0.0))[0]


def edge_rounds(config, shards, spec, association=None, edge_count=1, *,
                eval_data=None, init_params_vec=None, train_loss=True):
    """Execute the full hierarchical schedule, one edge round per step.

    association is the (K*tau_e + 1, M) schedule of edge ids, row j in
    force from the end of edge round j (row 0 from the start); see
    mobility.schedule. None selects the static mode where every vehicle
    stays on edge 0 (used for the single-edge equivalence checks).
    Each local iteration is one FleetStep.step over all vehicles. The step,
    the training loss and a Recording read the model-input rows of the
    shards stacked in id order, and the accuracy those of eval_data, each
    built once per run, as are the loss's and the accuracy's
    models.EvalWorkspace, the loss's on the step's one-hot targets, and the
    weights of every association row. Every
    round boundary takes two fleet_averages, before and after the
    aggregation, into one terms buffer built once per run, and the
    Recording (built when config.record_virtual is set) measures those same
    averages, so it changes no training bit.
    After every edge round yields one RunResult, updated in place: the
    metrics rows (the last is this round's), the loop's state as
    final_state, per-epoch cloud/vehicle-average consistency, and the
    Recording's VirtualTrace, filled up to this round but for its weights,
    the whole schedule from the first round on. An empty edge takes
    its zero average, so a state yielded mid-epoch holds zeros for empty
    edges. With train_loss=False the metrics rows carry a nan training
    loss, and the full-union loss is not evaluated; nothing else changes.
    """
    M = len(shards)
    if M < 1:
        raise ValueError("need at least one shard")
    K, tau_l, tau_e = config.cloud_epochs, config.tau_l, config.tau_e
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
    counts = sizes.astype(int)
    sampler = None if config.full_batch else BatchSampler(counts, config.batch_size, config.seed)
    fleet = union_of_shards(shards)
    X = model_inputs(spec, fleet.features)
    local = FleetStep(spec, W, X, fleet.labels, counts, sampler)
    union_eval = EvalWorkspace(spec, X, fleet.labels, local.T) if train_loss else None
    split_eval = None if eval_data is None else EvalWorkspace(
        spec, model_inputs(spec, eval_data.features), eval_data.labels)

    # the membership schedule, built once: weights[j] (1 + N, M) is B, the
    # weights of u (row 0) and of every edge's average under association
    # row j, and thetas[j] each edge's share of the data under it
    weights, thetas = membership_weights(association, sizes, edge_count)
    weights = np.concatenate([np.broadcast_to(alpha, weights[:, :1].shape), weights], axis=1)

    recording = Recording(config, spec, w0, X, local.T, weights,
                          association) if config.record_virtual else None
    # every fleet_averages call's terms: a round boundary's, or a recorded chunk's
    terms = np.empty(weights[0].size * P * (1 if recording is None else recording.chunk))

    result = RunResult([], state, None if recording is None else recording.trace)
    for j in range(1, rounds + 1):
        for _ in range(tau_l):
            state.tau += 1
            local.step(config.eta, state.tau)
            if recording is not None:
                recording.step(state.tau, W, weights[j - 1], thetas[j - 1], terms)
        # round boundary: the new association takes effect, then aggregation
        edge_of, B, theta = association[j], weights[j], thetas[j]
        avgs = fleet_averages(B, W, terms)  # u_pre, then every edge's average
        gap = float("nan") if recording is None else recording.before_aggregation(
            state.tau, W, avgs, theta)

        edge_params[:] = avgs[1:]
        # every edge id is in range; take's default mode would copy its
        # output through a temporary
        edge_params.take(edge_of, axis=0, out=W, mode="clip")

        k = j // tau_e if j % tau_e == 0 else None  # the cloud epoch a cloud round ends
        if k is not None:
            cloud = state.cloud_params = cloud_aggregate(edge_params, theta)
            edge_params[:] = W[:] = cloud
            result.cloud_consistency.append((k, float(np.max(np.abs(cloud - avgs[0])))))

        # only the recording reads the edge averages; each row is summed on
        # its own, so B[:1] gives u bit for bit
        u = (fleet_averages(B[:1], W, terms)[0] if recording is None else
             recording.after_aggregation(state.tau, W, fleet_averages(B, W, terms), theta, k))

        round_loss = union_eval.loss(u) if train_loss else float("nan")
        test_acc = float("nan") if split_eval is None else split_eval.accuracy(u)
        result.metrics.append(MetricsRow(
            cloud_epoch=(j + tau_e - 1) // tau_e, edge_round=j, iteration=state.tau,
            train_loss=round_loss, test_accuracy=test_acc, u_vtilde_gap=gap,
            membership_counts=tuple(int(c) for c in np.bincount(edge_of, minlength=edge_count))))
        yield result


def run(config, shards, spec, association=None, edge_count=1, *,
        eval_data=None, init_params_vec=None, train_loss=True):
    """edge_rounds run to the end: the RunResult after the last round."""
    *_, last = edge_rounds(config, shards, spec, association, edge_count, eval_data=eval_data,
                           init_params_vec=init_params_vec, train_loss=train_loss)
    return last


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


def _read_exactly(f, size, what):
    raw = f.read(size)
    if len(raw) != size:
        raise IOError(f"truncated checkpoint: {what} needs {size} bytes, got {len(raw)}")
    return raw


def read_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise IOError("not a checkpoint file")
        (hlen,) = struct.unpack("<B", _read_exactly(f, 1, "the hash length"))
        cfg_hash = _read_exactly(f, hlen, "the config hash").hex()
        tau, M, N = struct.unpack("<QQQ", _read_exactly(f, 24, "the tau, M, N fields"))
        if M == 0 or N == 0:
            raise IOError(f"malformed checkpoint: M = {M} vehicles, N = {N} edges")
        cloud = read_param_vector(f)
        edges = [read_param_vector(f) for _ in range(N)]
        vparams = [read_param_vector(f) for _ in range(M)]
        if any(len(w) != len(cloud) for w in edges + vparams):
            raise IOError(f"malformed checkpoint: an edge or vehicle vector's length "
                          f"differs from the cloud vector's {len(cloud)}")
        return FleetState(tau=tau, vehicle_params=np.stack(vparams),
                          edge_params=np.stack(edges), cloud_params=cloud), cfg_hash
