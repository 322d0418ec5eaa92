"""Heterogeneity constants and empirical checks of the convergence bounds.

The bounds relate the recorded virtual trajectories of a full-batch convex
run to constants estimated from the data: per-vehicle gradient divergence
delta_m, per-edge divergence Delta_n (time-varying through the association
history), the smoothness constant beta and the region Lipschitz constant
rho. Suprema are taken over a finite probe set (the recorded centralized
trajectory plus the origin and the optimum), so every constant is a
region-restricted estimate, not a global bound.
"""

from dataclasses import dataclass, replace

import numpy as np

from .datasets import DegenerateDataError
from .engine import fleet_averages, membership_weights
from .models import EvalWorkspace, UnsupportedModelError, gradient_probes, one_hot, row_norms

DEFAULT_SLACK = 1e-9

# estimate_divergences takes as many probes per chunk as keep its buffers near
# this size, so its memory does not grow with the probe count.
CHUNK_BYTES = 1 << 20


@dataclass
class DivergenceEstimates:
    """Gradient-divergence constants over a probe set.

    Bracket index j refers to the association snapshot in force at local
    iteration j*tau_l (j = 0 is the initial association).
    """
    delta_m: np.ndarray          # (M,)
    delta: float                 # sum_m alpha_m delta_m
    alpha: np.ndarray            # (M,)
    Delta_n_bracket: np.ndarray  # (J+1, N); nan for empty edges
    Delta_bracket: np.ndarray    # (J+1,)  sum_n theta_n Delta_n
    grad_norm: np.ndarray        # (Q,)    ||grad F|| at each probe

    def scaled(self, s):
        """The estimates with every divergence scaled by s; an empty
        edge's NaN stays NaN. The scale is verify-bounds' test hook, under
        which a scale below 1 must make the checks report violations."""
        delta_m = self.delta_m * s
        return replace(self, delta_m=delta_m, delta=float(self.alpha @ delta_m),
                       Delta_n_bracket=self.Delta_n_bracket * s,
                       Delta_bracket=self.Delta_bracket * s)


def estimate_divergences(spec, shards, association_history, probes):
    """Definition-style divergence constants, maximized over the probes.

    delta_m = max_w ||grad f_m(w) - grad F(w)||; Delta_n at bracket j uses
    the weighted edge objective over the snapshot at j. Full-batch
    gradients throughout. grad_norm[q] = ||grad F(probe q)||,
    whose maximum over a probe subset is the region Lipschitz constant rho.

    Delta_n depends on a bracket only through its association row, so the
    edge gradients are computed once per distinct row and expanded to the
    brackets afterwards. Probes are taken in chunks (CHUNK_BYTES), and
    every value is bitwise the one a loop over single probes gives: each
    group of equal-size shards is one gradient_probes call, and each
    probe's edge gradients are the same (R*N, M) @ (M, P) product over
    the R distinct rows, whatever the chunk size.
    """
    if not spec.is_convex:
        raise UnsupportedModelError("divergence constants require a convex family")
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    if probes.shape[0] == 0:
        raise ValueError("need at least one probe point")
    M = len(shards)
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    alpha = sizes / sizes.sum()
    hist = np.asarray(association_history)
    N = int(hist.max()) + 1 if hist.size else 1

    # rows[inv[j]] is bracket j's association; A_rows[r, n, m] = alpha_{m,n}
    rows, inv = np.unique(hist, axis=0, return_inverse=True)
    inv = inv.reshape(-1)  # its shape varies across numpy 2.0.x releases
    A_rows, theta_rows = membership_weights(rows, sizes, N)
    theta = theta_rows[inv]
    occupied = theta > 0
    B = A_rows.reshape(-1, M)  # one row per (distinct row, edge)
    P, C = probes.shape[1], spec.class_count
    by_size = [np.flatnonzero(sizes == n) for n in sorted(set(sizes.tolist()))]
    group_rows = max(len(ids) * shards[ids[0]].size for ids in by_size)
    # a probe's share of the buffers: its scores on the largest group of
    # equal-size shards, its gradients in the groups' buffers and in G, and
    # its edge gradients. They are allocated once: a fresh array at every
    # chunk would be mapped and unmapped each time, at the cost of a page
    # fault per page
    chunk = max(1, CHUNK_BYTES // (8 * (group_rows * C + (2 * M + len(B)) * P)))
    G = np.empty((chunk, M, P))
    ge_out = np.empty((chunk, len(B), P))
    scores = np.empty(chunk * group_rows * C)
    groups = []  # (shard ids, features, one-hot targets, gradient buffer) per shard size
    for ids in by_size:
        groups.append((ids, np.stack([shards[m].features for m in ids]),
                       one_hot(np.stack([shards[m].labels for m in ids]), C),
                       np.empty((chunk, len(ids), P))))

    # running maxima of the squared norms. np.linalg.norm(x, axis=2) is
    # sqrt(add.reduce(x * x, axis=2)), and sqrt is correctly rounded and
    # monotone, so one sqrt after the loop gives the same maxima
    delta_sq = np.zeros(M)
    Delta_sq = np.zeros(len(B))
    grad_norm = np.empty(probes.shape[0])
    for i in range(0, probes.shape[0], chunk):
        w = probes[i:i + chunk]
        q = len(w)
        for ids, X, T, out in groups:
            R = scores[:q * T.size].reshape((q,) + T.shape)
            G[:q, ids] = gradient_probes(spec, w, X, T, out=out[:q], residual=R)
        Gq = G[:q]
        gF = alpha @ Gq  # (q, P)
        grad_norm[i:i + q] = row_norms(gF)
        ge = np.matmul(B, Gq, out=ge_out[:q])
        for D, sq in ((Gq, delta_sq), (ge, Delta_sq)):
            D -= gF[:, None]
            D *= D
            np.maximum(sq, D.sum(axis=2).max(axis=0), out=sq)
    delta_m, Delta_u = np.sqrt(delta_sq), np.sqrt(Delta_sq)
    Delta_n = np.where(occupied, Delta_u.reshape(-1, N)[inv], np.nan)
    Delta = np.nansum(np.where(occupied, theta * Delta_n, 0.0), axis=1)
    return DivergenceEstimates(delta_m=delta_m, delta=float(alpha @ delta_m), alpha=alpha,
                               Delta_n_bracket=Delta_n, Delta_bracket=Delta, grad_norm=grad_norm)


def shared_input_delta_m(shards):
    """Exact delta_m for the shared-input quadratic construction.

    With a common feature matrix the gap grad f_m - grad F equals
    X'(Ybar - Y_m)/n for every w, so the constant is closed-form.
    """
    X = shards[0].features
    n = X.shape[0]
    for s in shards:
        if s.features.shape != X.shape or not np.array_equal(s.features, X):
            raise ValueError("shards do not share a feature matrix")
    onehots = one_hot(np.stack([s.labels for s in shards]), shards[0].class_count)
    Ybar = onehots.mean(axis=0)
    return np.array([np.linalg.norm(X.T @ (Ybar - Ym)) / n for Ym in onehots])


@dataclass
class BoundInputs:
    """The constants estimated from a run's data; the schedule they are
    checked against is the trace's hfl."""
    beta: float           # the union's smoothness
    beta_m: np.ndarray    # (M,) each shard's
    rho: float
    epsilon: float
    w_star: np.ndarray
    f_star: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.beta <= 0 or self.rho <= 0:
            raise DegenerateDataError(
                f"beta and rho must be > 0, got beta={self.beta!r}, rho={self.rho!r}")


@dataclass
class DriftBounds:
    """Each drift bound at tau = 1..T, taken before the aggregation at tau."""
    vehicle: np.ndarray  # (T, M) bounds ||w_m - vtilde||
    edge: np.ndarray     # (T, N) bounds ||u_n - vtilde||; nan for an empty edge
    central: np.ndarray  # (T,)   bounds ||u - vtilde||


def drift_recursion(trace, estimates, inputs):
    """Every drift bound of the trace's run, from one pass per round over
    trace.weights, the weights the run aggregated with: under association
    row j, weights[j] (1 + N, M) weighs u in row 0 and edge n in row 1 + n.

    The state is B (M,) per vehicle, E (N,) per edge and U, all 0 after a
    cloud round. Each step of round j adds eta*weights[j - 1]@(beta_m*B) +
    eta*(0, Delta_n) to (U, E), then sets B to (1 + eta*beta_m)*B +
    eta*delta_m: B takes the round's steps first, then one fleet_averages
    (the id-order sum) and one cumsum from (U, E) add their terms. At a
    round boundary an edge whose weights stay keeps E, a changed edge
    restarts at its new weights@B and an empty one (a zero row) is NaN;
    those are the edges' bounds before the aggregation, after which each
    vehicle takes its edge's bound."""
    hfl, hist = trace.hfl, trace.association_history
    eta, beta_m = hfl.eta, inputs.beta_m
    N, tau_l = estimates.Delta_n_bracket.shape[1], hfl.tau_l
    V = trace.weights[:, :1 + N]
    occupied = V[:, 1:].any(axis=2)
    c = eta * np.concatenate([np.zeros((len(V), 1)), estimates.Delta_n_bracket], axis=1)
    grow, kick = 1.0 + eta * beta_m, eta * estimates.delta_m
    B, S, T = np.zeros(V.shape[2]), np.zeros(N + 1), trace.total_iterations  # S = (U, E)
    vehicle, layers = np.empty((T, len(B))), np.empty((T, N + 1))
    for j in range(1, hfl.cloud_epochs * hfl.tau_e + 1):
        taus, before = range((j - 1) * tau_l, j * tau_l), []  # B before each step
        for tau in taus:
            before.append(B)
            vehicle[tau] = B = grow * B + kick
        steps = fleet_averages(V[j - 1], beta_m[:, None] * np.array(before).T)
        layers[taus] = np.cumsum(np.vstack([S, eta * steps.T + c[j - 1]]), axis=0)[1:]
        S = layers[tau].copy()
        changed = (V[j, 1:] != V[j - 1, 1:]).any(axis=1)
        restart = fleet_averages(V[j, 1:], B[:, None])[:, 0]
        S[1:] = layers[tau, 1:] = np.where(occupied[j], np.where(changed, restart, S[1:]), np.nan)
        if j % hfl.tau_e == 0:
            B, S = np.zeros_like(B), np.zeros_like(S)
        else:
            B = S[1 + hist[j]]
    return DriftBounds(vehicle=vehicle, edge=layers[:, 1:], central=layers[:, 0])


@dataclass
class Violation:
    check: str
    where: dict
    measured: float
    bound: float

    def __str__(self):
        loc = ", ".join(f"{k}={v}" for k, v in self.where.items())
        return f"{self.check} violated at {loc}: {self.measured} > {self.bound}"


def _exceeds(measured, bound):
    """The one comparison of a measurement with its bound; NaN never exceeds."""
    return measured > bound + DEFAULT_SLACK


@dataclass
class Check:
    """One checked inequality, measured <= bound entry by entry; a scalar
    is one entry with an empty index. label(*index) gives the entry's
    check name and location."""
    measured: np.ndarray
    bound: np.ndarray
    label: object

    def __post_init__(self):
        self.measured, self.bound = np.asarray(self.measured), np.asarray(self.bound)

    @property
    def satisfied(self):
        return ~_exceeds(self.measured, self.bound)


def violations(check):
    """One Violation per entry of check with measured > bound + slack, in
    row-major order: iteration first, then vehicle or edge id. A NaN entry
    never fires."""
    out = []
    for i in map(tuple, np.argwhere(~check.satisfied)):
        name, where = check.label(*i)
        out.append(Violation(name, where, float(check.measured[i]), float(check.bound[i])))
    return out


def drift_checks(trace, bounds, inputs):
    """Every drift inequality of the trace's run, in report order: vehicle
    and edge drift against their bounds at each iteration, the three-case
    recursion on ||u - vtilde|| and the central drift against U_k at each
    cloud instant, entry k-1 for cloud epoch k = 1..K.

    The recursion's step reads each vehicle's own shard, so its smoothness
    is max_m beta_m (the union's beta where a shard's rounds below it)."""
    hfl = trace.hfl
    span = hfl.tau_l * hfl.tau_e
    # tau = 1..T and tau0, the steps since the last cloud synchronization
    tau = np.arange(1, trace.total_iterations + 1)
    prev = tau - 1
    tau0 = tau - (prev // span) * span
    beta = max(inputs.beta, float(inputs.beta_m.max()))
    cloud = prev % span == 0
    edge = ~cloud & (prev % hfl.tau_l == 0)
    s = np.where(edge, trace.s_edge[prev], trace.s_vehicle[prev])
    rhs = np.where(cloud, 0.0, trace.gap_u_v[prev] + hfl.eta * beta * s)
    case = np.where(cloud, "cloud", np.where(edge, "edge", "local"))

    def drift(name, key):
        return lambda t, i: (name, {key: int(i), "tau": int(tau[t]), "tau0": int(tau0[t])})

    return [
        Check(trace.vehicle_gap[:, 1:].T, bounds.vehicle, drift("vehicle_drift", "m")),
        # the estimates stop at the highest edge the association history
        # names; an edge past it never held a vehicle, so its gaps are all NaN
        Check(trace.edge_gap[:bounds.edge.shape[1], 1:].T, bounds.edge,
              drift("edge_drift", "n")),
        Check(trace.gap_u_vtilde[1:], rhs,
              lambda t: (f"recursion[{case[t]}]", {"tau": int(tau[t])})),
        Check(trace.gap_u_vtilde[span::span], bounds.central[span - 1::span],
              lambda i: ("central_drift", {"k": int(i) + 1})),
    ]


@dataclass
class GapBoundReport:
    applicable: bool
    bound: float          # nan when not applicable
    measured_gap: float
    phi: float
    epsilon: float
    conditions: dict      # name -> bool (over all epochs)
    degenerate: bool = False
    note: str = ""


def epoch_losses(spec, union, trace):
    """(K, 2): F(vtilde) and F(u) at the trace's cloud instants k*span,
    k = 1..K, the losses that choose_epsilon and check_gap_bound read."""
    union_eval = EvalWorkspace(spec, union.features, union.labels)  # convex: model inputs
    span = trace.hfl.tau_l * trace.hfl.tau_e
    return np.array([(union_eval.loss(trace.vtilde[k * span]), union_eval.loss(trace.u_cloud[k]))
                     for k in range(1, trace.hfl.cloud_epochs + 1)])


def check_gap_bound(trace, inputs, central, losses):
    """Evaluate the convergence-gap bound and its applicability gates.

    central is drift_checks' central-drift row: its bound is U_k and its
    measured the central-cloud gap at each cloud instant. Gates: step size
    at most 1/beta, a positive per-epoch margin, two loss-level floors, and
    the definitional premise that every supplied U_k actually upper-bounds
    the measured central-cloud gap, read from the row's `satisfied`. Each
    per-epoch gate holds when it holds in every epoch. The fourth gate is
    evaluated twice: on the raw loss, F(w) >= epsilon, and in a strict
    centered mode, F(w) - F* >= epsilon. Both are reported; applicability
    follows the raw form. losses are epoch_losses(...).
    """
    eta, span, K = trace.hfl.eta, trace.hfl.tau_l * trace.hfl.tau_e, trace.hfl.cloud_epochs
    T = K * span
    eps = inputs.epsilon
    f_vt, f_w = np.asarray(losses).T
    measured = float(f_w[K - 1] - inputs.f_star)

    # the distance to w* at each epoch's start
    dists = row_norms(trace.vtilde[:T:span] - inputs.w_star)
    if dists.min() == 0.0:
        return GapBoundReport(
            applicable=False, bound=float("nan"), measured_gap=measured, phi=float("inf"),
            epsilon=eps, conditions={}, degenerate=True,
            note="bound degenerate, training already optimal")
    phi = float(((1.0 - inputs.beta * eta / 2.0) / (dists * dists)).min())

    conditions = {
        "eta_le_inv_beta": eta <= 1.0 / inputs.beta,
        "positive_margin": bool(np.all(
            eta * phi - inputs.rho * central.bound / (span * (eps * eps)) > 0.0)),
        "vtilde_gap_ge_eps": bool(np.all(f_vt - inputs.f_star >= eps)),
        "w_loss_ge_eps": bool(np.all(f_w >= eps)),
        "w_gap_ge_eps_strict": bool(np.all(f_w - inputs.f_star >= eps)),
        "uk_upper_bounds_gap": bool(np.all(central.satisfied)),
    }
    applicable = all(v for name, v in conditions.items() if name != "w_gap_ge_eps_strict")
    # sum U_k left to right: from 8 terms up np.sum adds pairwise
    denom = T * eta * phi - inputs.rho * sum(central.bound.tolist()) / (eps * eps)
    bound = 1.0 / denom if (applicable and denom > 0.0) else float("nan")
    if applicable and denom <= 0.0:
        applicable = False
    return GapBoundReport(applicable=applicable, bound=bound, measured_gap=measured,
                          phi=phi, epsilon=eps, conditions=conditions)


def choose_epsilon(losses, f_star):
    """Largest epsilon for which the two loss-level gates can hold.

    Returns min over epochs of min(F(vtilde) - F*, F(w)), losses being
    epoch_losses(...); nonpositive means no feasible epsilon exists for
    this run.
    """
    f_vt, f_w = losses.T
    return float(min((f_vt - f_star).min(), f_w.min()))


@dataclass
class MixingReport:
    first_quarter_mean: float
    last_quarter_mean: float


def mobility_mixing_report(estimates):
    """Quarter means of the edge divergence trajectory Delta^[j]."""
    D = estimates.Delta_bracket
    J = D.shape[0]
    q = max(1, J // 4)
    return MixingReport(first_quarter_mean=float(D[:q].mean()),
                        last_quarter_mean=float(D[J - q:].mean()))
