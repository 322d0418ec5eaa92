"""Heterogeneity constants and empirical checks of the convergence bounds.

The bounds relate the recorded virtual trajectories of a full-batch convex
run to constants estimated from the data: per-vehicle gradient divergence
delta_m, per-edge divergence Delta_n (time-varying through the association
history), the smoothness constant beta and the region Lipschitz constant
rho. Suprema are taken over a finite probe set (the recorded centralized
trajectory plus the origin and the optimum), so every constant is a
region-restricted estimate, not a global bound.
"""

from dataclasses import dataclass

import numpy as np

from .engine import membership_weights
from .models import (UnsupportedModelError, gradient_probes, loss, quadratic_targets,
                     row_norms)

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
    tau_l: int
    delta_m: np.ndarray          # (M,)
    delta: float                 # sum_m alpha_m delta_m
    alpha: np.ndarray            # (M,)
    delta_n_bracket: np.ndarray  # (J+1, N); nan for empty edges
    Delta_n_bracket: np.ndarray  # (J+1, N); nan for empty edges
    Delta_bracket: np.ndarray    # (J+1,)  sum_n theta_n Delta_n
    theta_bracket: np.ndarray    # (J+1, N)
    grad_norm: np.ndarray        # (Q,)    ||grad F|| at each probe
    probe_count: int


def estimate_divergences(spec, shards, association_history, probes, tau_l=1):
    """Definition-style divergence constants, maximized over the probes.

    delta_m = max_w ||grad f_m(w) - grad F(w)||; Delta_n at bracket j uses
    the weighted edge objective over the snapshot at j. Full-batch
    gradients throughout. tau_l maps local iteration tau onto bracket
    tau // tau_l for the edge-drift check. grad_norm[q] = ||grad F(probe q)||,
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
    A, theta = A_rows[inv], theta_rows[inv]
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
    groups = []  # (shard ids, features, labels, targets, gradient buffer) per shard size
    for ids in by_size:
        y = np.stack([shards[m].data.labels for m in ids])
        groups.append((ids, np.stack([shards[m].data.features for m in ids]), y,
                       quadratic_targets(spec, y), np.empty((chunk, len(ids), P))))

    # running maxima of the squared norms. np.linalg.norm(x, axis=2) is
    # sqrt(add.reduce(x * x, axis=2)), and sqrt is correctly rounded and
    # monotone, so one sqrt after the loop gives the same maxima
    delta_sq = np.zeros(M)
    Delta_sq = np.zeros(len(B))
    grad_norm = np.empty(probes.shape[0])
    for i in range(0, probes.shape[0], chunk):
        w = probes[i:i + chunk]
        q = len(w)
        for ids, X, y, T, out in groups:
            R = scores[:q * y.size * C].reshape((q,) + y.shape + (C,))
            G[:q, ids] = gradient_probes(spec, w, X, y, targets=T, out=out[:q], residual=R)
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
    delta_n = np.where(occupied, A @ delta_m, np.nan)
    Delta = np.nansum(np.where(occupied, theta * Delta_n, 0.0), axis=1)
    return DivergenceEstimates(
        tau_l=tau_l,
        delta_m=delta_m, delta=float(alpha @ delta_m), alpha=alpha,
        delta_n_bracket=delta_n, Delta_n_bracket=Delta_n,
        Delta_bracket=Delta, theta_bracket=theta, grad_norm=grad_norm, probe_count=len(probes))


def shared_input_delta_m(shards):
    """Exact delta_m for the shared-input quadratic construction.

    With a common feature matrix the gap grad f_m - grad F equals
    X'(Ybar - Y_m)/n for every w, so the constant is closed-form.
    """
    X = shards[0].data.features
    n = X.shape[0]
    C = shards[0].data.class_count
    onehots = []
    for s in shards:
        if s.data.features.shape != X.shape or not np.array_equal(s.data.features, X):
            raise ValueError("shards do not share a feature matrix")
        T = np.zeros((n, C))
        T[np.arange(n), s.data.labels] = 1.0
        onehots.append(T)
    Ybar = np.mean(onehots, axis=0)
    return np.array([np.linalg.norm(X.T @ (Ybar - Ym)) / n for Ym in onehots])


def _powi(base, n):
    """base**n by square-and-multiply on the exact binary value.

    Element-wise over an integer array of exponents, each element getting
    the same products as a scalar call; a scalar exponent gives a float.
    Overflow saturates to inf, as scalar float arithmetic does.
    """
    k = np.asarray(n, dtype=np.int64)
    if np.any(k < 0):
        raise ValueError("exponent must be >= 0")
    result = np.ones(k.shape)
    acc = float(base)
    with np.errstate(over="ignore"):
        while np.any(k):
            np.multiply(result, acc, out=result, where=(k & 1) == 1)
            acc *= acc
            k = k >> 1
    return float(result) if result.ndim == 0 else result


def drift_polynomial(tau, eta, delta, beta):
    """delta/beta * ((1+eta*beta)^tau - 1) - tau*eta*delta."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return delta / beta * (_powi(1.0 + eta * beta, tau) - 1.0) - tau * eta * delta


def vehicle_drift_bound(tau0, delta_m, eta, beta):
    """Drift of one vehicle from the centralized trajectory, tau0 steps
    after the last cloud synchronization. Broadcasts over arrays."""
    if not np.all(0 < np.asarray(tau0)):
        raise ValueError("tau0 must be positive")
    return delta_m / beta * (_powi(1.0 + eta * beta, tau0) - 1.0)


def edge_drift_bound(tau0, delta_n, Delta_n, eta, beta):
    """Drift of one edge's virtual average from the centralized trajectory.
    Broadcasts over arrays."""
    if not np.all(0 < np.asarray(tau0)):
        raise ValueError("tau0 must be positive")
    return (delta_n / beta * (_powi(1.0 + eta * beta, tau0) - 1.0)
            - eta * tau0 * (delta_n - Delta_n))


@dataclass
class BoundInputs:
    beta: float
    rho: float
    eta: float
    tau_l: int
    tau_e: int
    cloud_epochs: int
    epsilon: float
    w_star: np.ndarray
    f_star: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.beta <= 0 or self.rho <= 0:
            raise ValueError(f"beta and rho must be > 0, got beta={self.beta!r}, rho={self.rho!r}")

    @property
    def eta_feasible(self):
        return self.eta <= 1.0 / self.beta


@dataclass
class DriftBoundEntry:
    k: int                 # cloud epoch, 1-based
    value: float           # U_k
    r_term: float
    mobility_term: float
    measured: float        # ||u - vtilde|| at the epoch's cloud instant
    satisfied: bool


@dataclass
class DriftBoundReport:
    entries: list

    @property
    def total(self):
        return sum(e.value for e in self.entries)


def central_drift_bound(k, estimates, inputs):
    """Central-cloud drift bound for the window starting at k*tau_l*tau_e.

    k is 0-based here: the returned value bounds ||u - vtilde|| at
    iteration (k+1)*tau_l*tau_e, and consumes the bracket divergences
    Delta^[k*tau_e + j] for j = 1..tau_e-1.
    """
    tau_l, tau_e, eta = inputs.tau_l, inputs.tau_e, inputs.eta
    delta = estimates.delta
    r_term = drift_polynomial(tau_l * tau_e, eta, delta, inputs.beta)
    js = np.arange(1, tau_e)
    idx = k * tau_e + js
    if idx.size and idx.max() >= estimates.Delta_bracket.shape[0]:
        raise ValueError(f"missing Delta bracket entries for window {k}")
    mix = float(np.sum(js * estimates.Delta_bracket[idx])) if idx.size else 0.0
    mobility_term = -eta * tau_l * (0.5 * tau_e * (tau_e - 1) * delta - mix)
    return r_term + mobility_term, r_term, mobility_term


def build_drift_report(trace, estimates, inputs):
    """Per-cloud-epoch bound vs the measured central-cloud gap."""
    entries = []
    span = inputs.tau_l * inputs.tau_e
    for k in range(1, inputs.cloud_epochs + 1):
        value, r_term, mob = central_drift_bound(k - 1, estimates, inputs)
        measured = float(trace.gap_u_vtilde[k * span])
        entries.append(DriftBoundEntry(
            k=k, value=value, r_term=r_term, mobility_term=mob,
            measured=measured, satisfied=measured <= value + DEFAULT_SLACK))
    return DriftBoundReport(entries=entries)


@dataclass
class Violation:
    check: str
    where: dict
    measured: float
    bound: float

    def __str__(self):
        loc = ", ".join(f"{k}={v}" for k, v in self.where.items())
        return f"{self.check} violated at {loc}: {self.measured} > {self.bound}"


def _clock(trace, inputs):
    """tau = 1..T and tau0, the steps since the last cloud synchronization."""
    span = inputs.tau_l * inputs.tau_e
    tau = np.arange(1, trace.total_iterations + 1)
    return tau, tau - ((tau - 1) // span) * span


def _violations(measured, bound, label):
    """One Violation per entry with measured > bound + DEFAULT_SLACK, in
    row-major order: iteration first, then vehicle or edge id. A NaN entry
    never fires. label(*index) gives the entry's check name and location."""
    out = []
    for i in map(tuple, np.argwhere(measured > bound + DEFAULT_SLACK)):
        check, where = label(*i)
        out.append(Violation(check, where, float(measured[i]), float(bound[i])))
    return out


def check_vehicle_drift(trace, estimates, inputs):
    """Vehicle drift vs its bound, for every vehicle and iteration."""
    tau, tau0 = _clock(trace, inputs)
    bound = vehicle_drift_bound(tau0[:, None], estimates.delta_m, inputs.eta, inputs.beta)
    return _violations(
        trace.vehicle_gap[:, 1:].T, bound,
        lambda t, m: ("vehicle_drift", {"m": int(m), "tau": int(tau[t]), "tau0": int(tau0[t])}))


def check_edge_drift(trace, estimates, inputs):
    """Edge drift vs its bound; empty edges (NaN) never fire."""
    tau, tau0 = _clock(trace, inputs)
    bracket = tau // estimates.tau_l
    bound = edge_drift_bound(tau0[:, None], estimates.delta_n_bracket[bracket],
                             estimates.Delta_n_bracket[bracket], inputs.eta, inputs.beta)
    # the estimates stop at the highest edge the association history
    # names; an edge past it never held a vehicle, so its gaps are all NaN
    return _violations(
        trace.edge_gap[:bound.shape[1], 1:].T, bound,
        lambda t, n: ("edge_drift", {"n": int(n), "tau": int(tau[t]), "tau0": int(tau0[t])}))


def check_recursion(trace, inputs):
    """Three-case recursion on ||u - vtilde||, one inequality per iteration."""
    tau, _ = _clock(trace, inputs)
    prev = tau - 1
    cloud = prev % (inputs.tau_l * inputs.tau_e) == 0
    edge = ~cloud & (prev % inputs.tau_l == 0)
    s = np.where(edge, trace.s_edge[prev], trace.s_vehicle[prev])
    rhs = np.where(cloud, 0.0, trace.gap_u_v[prev] + inputs.eta * inputs.beta * s)
    case = np.where(cloud, "cloud", np.where(edge, "edge", "local"))
    return _violations(trace.gap_u_vtilde[1:], rhs,
                       lambda t: (f"recursion[{case[t]}]", {"tau": int(tau[t])}))


def check_central_drift(trace, estimates, inputs):
    out = []
    report = build_drift_report(trace, estimates, inputs)
    for e in report.entries:
        if not e.satisfied:
            out.append(Violation("central_drift", {"k": e.k}, e.measured, e.value))
    return out, report


@dataclass
class GapBoundReport:
    applicable: bool
    bound: float          # nan when not applicable
    measured_gap: float
    phi: float
    epsilon: float
    conditions: dict      # name -> bool (over all epochs)
    per_epoch: list       # dicts with the per-k condition values
    degenerate: bool = False
    note: str = ""


def epoch_losses(spec, union, trace, span, cloud_epochs):
    """(F(vtilde), F(u)) at each cloud instant k*span, k = 1..K: the losses
    that choose_epsilon and check_gap_bound read."""
    return [(loss(spec, trace.vtilde[k * span], union), loss(spec, trace.u_cloud[k], union))
            for k in range(1, cloud_epochs + 1)]


def check_gap_bound(trace, inputs, drift_report, losses):
    """Evaluate the convergence-gap bound and its applicability gates.

    Gates: step size at most 1/beta, a positive per-epoch margin, two
    loss-level floors, and the definitional premise that every supplied
    U_k actually upper-bounds the measured central-cloud gap (with
    small-eta iid-like runs the drift formula can go negative, in which
    case no valid U_k exists and the bound is inapplicable), read from the
    entries' `satisfied`. The fourth gate is evaluated twice: on the raw
    loss, F(w) >= epsilon, and in a strict centered mode, F(w) - F* >=
    epsilon. Both are reported; applicability follows the raw form.
    losses are epoch_losses(...).
    """
    span = inputs.tau_l * inputs.tau_e
    K = inputs.cloud_epochs
    T = K * span
    eps = inputs.epsilon
    measured = float(losses[K - 1][1] - inputs.f_star)

    dists = [float(np.linalg.norm(trace.vtilde[(k - 1) * span] - inputs.w_star))
             for k in range(1, K + 1)]
    if min(dists) == 0.0:
        return GapBoundReport(
            applicable=False, bound=float("nan"),
            measured_gap=measured,
            phi=float("inf"), epsilon=eps, conditions={}, per_epoch=[],
            degenerate=True, note="bound degenerate, training already optimal")
    phi = min((1.0 - inputs.beta * inputs.eta / 2.0) / d ** 2 for d in dists)

    cond1 = inputs.eta_feasible
    per_epoch = []
    cond2 = cond3 = cond4 = cond4_strict = premise = True
    for k, (f_vt, f_w) in enumerate(losses, 1):
        entry = drift_report.entries[k - 1]
        uk = entry.value
        c2 = inputs.eta * phi - inputs.rho * uk / (span * eps ** 2) > 0.0
        cp = entry.satisfied
        c3 = f_vt - inputs.f_star >= eps
        c4 = f_w >= eps
        c4s = f_w - inputs.f_star >= eps
        per_epoch.append({"k": k, "U_k": uk, "cond2": c2, "cond3": c3,
                          "cond4": c4, "cond4_strict": c4s, "uk_premise": cp,
                          "F_vtilde": f_vt, "F_w": f_w})
        cond2 &= c2
        cond3 &= c3
        cond4 &= c4
        cond4_strict &= c4s
        premise &= cp

    conditions = {"eta_le_inv_beta": cond1, "positive_margin": cond2,
                  "vtilde_gap_ge_eps": cond3, "w_loss_ge_eps": cond4,
                  "w_gap_ge_eps_strict": cond4_strict,
                  "uk_upper_bounds_gap": premise}
    applicable = cond1 and cond2 and cond3 and cond4 and premise
    denom = T * inputs.eta * phi - inputs.rho * drift_report.total / eps ** 2
    bound = 1.0 / denom if (applicable and denom > 0.0) else float("nan")
    if applicable and denom <= 0.0:
        applicable = False
    return GapBoundReport(applicable=applicable, bound=bound, measured_gap=measured,
                          phi=phi, epsilon=eps, conditions=conditions,
                          per_epoch=per_epoch)


def choose_epsilon(losses, f_star):
    """Largest epsilon for which the two loss-level gates can hold.

    Returns min over epochs of min(F(vtilde) - F*, F(w)), losses being
    epoch_losses(...); nonpositive means no feasible epsilon exists for
    this run.
    """
    return float(min(v for f_vt, f_w in losses for v in (f_vt - f_star, f_w)))


@dataclass
class MixingReport:
    first_quarter_mean: float
    last_quarter_mean: float


def mobility_mixing_report(estimates):
    """Quarter means of the edge divergence trajectory Delta^[j]."""
    D = estimates.Delta_bracket
    J = D.shape[0]
    q = max(1, J // 4)
    return MixingReport(
        first_quarter_mean=float(D[:q].mean()),
        last_quarter_mean=float(D[J - q:].mean()))


def convex_combination_residuals(estimates):
    """Recompute delta and Delta^[j] from their definitions; max residual."""
    r1 = abs(float(estimates.alpha @ estimates.delta_m) - estimates.delta)
    th = estimates.theta_bracket
    Dn = np.where(np.isnan(estimates.Delta_n_bracket), 0.0, estimates.Delta_n_bracket)
    r2 = float(np.max(np.abs((th * Dn).sum(axis=1) - estimates.Delta_bracket)))
    return max(r1, r2)
