"""Loss functions, gradients and analytic constants for the learning tasks.

Three families: "quadratic" (least squares on one-hot labels, or raw
targets when class_count == 1), "multinomial_logistic" (softmax
cross-entropy) and "mlp1" (one tanh hidden layer; accepted by the
training engine but rejected by everything bound-related).

All losses are sample means plus (l2_reg/2)*||w||^2; the smoothness and
Lipschitz constants follow that normalization.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import rng

QUADRATIC = "quadratic"
MULTINOMIAL_LOGISTIC = "multinomial_logistic"
MLP1 = "mlp1"
FAMILIES = (QUADRATIC, MULTINOMIAL_LOGISTIC, MLP1)

POWER_ITERATION_TOL = 1e-8
POWER_ITERATION_MAX = 10_000

# The batched probe estimates (rho here, the divergences in analysis) take
# as many probes per chunk as keep a chunk's largest array near this size,
# so their memory does not grow with the probe count.
CHUNK_BYTES = 1 << 16


class UnsupportedModelError(ValueError):
    """Operation requires a convex family."""


class PowerIterationError(RuntimeError):
    """Eigenvalue iteration failed to converge; never silently ignored."""


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dim: int
    class_count: int
    l2_reg: float = 0.0
    hidden_width: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dim < 1 or self.class_count < 1:
            raise ValueError("dim and class_count must be >= 1")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")
        if self.family == MLP1 and self.hidden_width < 1:
            raise ValueError("mlp1 needs hidden_width >= 1")
        # class_count == 1 selects scalar regression, quadratic-only
        if self.class_count == 1 and self.family != QUADRATIC:
            raise ValueError("class_count == 1 is only meaningful for quadratic")

    @property
    def is_convex(self):
        return self.family in (QUADRATIC, MULTINOMIAL_LOGISTIC)


def param_length(spec):
    d, c, h = spec.dim, spec.class_count, spec.hidden_width
    if spec.family == MLP1:
        return d * h + h + h * c + c
    return d * c


def init_params(spec, seed=0):
    """Zero start for the convex families, small Gaussian for mlp1."""
    p = param_length(spec)
    if spec.family != MLP1:
        return np.zeros(p)
    g = rng.stream(seed, rng.MODEL_INIT)
    return 0.1 * g.normal(size=p)


def _check_dims(spec, w, X):
    if w.shape != (param_length(spec),):
        raise ValueError(f"parameter length {w.shape} != {param_length(spec)}")
    if X.shape[1] != spec.dim:
        raise ValueError(f"feature dim {X.shape[1]} != spec dim {spec.dim}")


def _targets(spec, y):
    if spec.class_count == 1:
        return y.astype(np.float64)[:, None]
    T = np.zeros((y.size, spec.class_count))
    T[np.arange(y.size), y] = 1.0
    return T


def _softmax(logits):
    """Row softmax over the last axis (class scores), any leading axes."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _mlp_unpack(spec, w):
    """Views W1 (d, h), b1 (1, h), W2 (h, c), b2 (1, c) of an mlp1 parameter
    vector; leading axes of w (one row per vehicle) stay in front."""
    d, c, h = spec.dim, spec.class_count, spec.hidden_width
    i, j, k = d * h, d * h + h, d * h + h + h * c
    lead = w.shape[:-1]
    return (w[..., :i].reshape(lead + (d, h)), w[..., i:j].reshape(lead + (1, h)),
            w[..., j:k].reshape(lead + (h, c)), w[..., k:].reshape(lead + (1, c)))


def _logits(spec, w, X):
    if spec.family == MLP1:
        W1, b1, W2, b2 = _mlp_unpack(spec, w)
        return np.tanh(X @ W1 + b1) @ W2 + b2
    return X @ w.reshape(spec.dim, spec.class_count)


def loss_xy(spec, w, X, y):
    _check_dims(spec, w, X)
    n = X.shape[0]
    reg = 0.5 * spec.l2_reg * float(w @ w)
    if spec.family == QUADRATIC:
        R = X @ w.reshape(spec.dim, -1) - _targets(spec, y)
        return 0.5 * float((R * R).sum()) / n + reg
    logits = _logits(spec, w, X)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    return float((lse - logits[np.arange(n), y]).mean()) + reg


def gradient_xy(spec, w, X, y):
    _check_dims(spec, w, X)
    n = X.shape[0]
    if spec.family == QUADRATIC:
        R = X @ w.reshape(spec.dim, -1) - _targets(spec, y)
        return (X.T @ R).ravel() / n + spec.l2_reg * w
    if spec.family == MULTINOMIAL_LOGISTIC:
        S = _softmax(X @ w.reshape(spec.dim, spec.class_count))
        S[np.arange(n), y] -= 1.0
        return (X.T @ S).ravel() / n + spec.l2_reg * w
    W1, b1, W2, b2 = _mlp_unpack(spec, w)
    Z = np.tanh(X @ W1 + b1)
    S = _softmax(Z @ W2 + b2)
    S[np.arange(n), y] -= 1.0
    S /= n
    gW2 = Z.T @ S
    gb2 = S.sum(axis=0)
    dZ = (S @ W2.T) * (1.0 - Z * Z)
    gW1 = X.T @ dZ
    gb1 = dZ.sum(axis=0)
    g = np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])
    return g + spec.l2_reg * w


def gradient_fleet(spec, W, X, y):
    """gradient_xy for a whole fleet: W (M, P), X (M, B, d), y (M, B).

    Row m is bitwise gradient_xy(spec, W[m], X[m], y[m]): the same
    operations in the same order on stacked arrays, with batched matmul
    (numpy runs one product per vehicle, as in the 2-D code) and every
    reduction over the axis the 2-D code reduces.
    """
    M, n = y.shape
    if W.shape != (M, param_length(spec)) or X.shape != (M, n, spec.dim):
        raise ValueError(f"fleet shapes W {W.shape}, X {X.shape}, y {y.shape} "
                         f"do not match P={param_length(spec)}, d={spec.dim}")
    Xt = np.swapaxes(X, 1, 2)
    mi, bi = np.arange(M)[:, None], np.arange(n)
    if spec.family == QUADRATIC:
        if spec.class_count == 1:
            T = y.astype(np.float64)[..., None]
        else:
            T = np.zeros((M, n, spec.class_count))
            T[mi, bi, y] = 1.0
        R = X @ W.reshape(M, spec.dim, -1) - T
        return (Xt @ R).reshape(M, -1) / n + spec.l2_reg * W
    if spec.family == MULTINOMIAL_LOGISTIC:
        S = _softmax(X @ W.reshape(M, spec.dim, spec.class_count))
        S[mi, bi, y] -= 1.0
        return (Xt @ S).reshape(M, -1) / n + spec.l2_reg * W
    W1, b1, W2, b2 = _mlp_unpack(spec, W)
    Z = np.tanh(X @ W1 + b1)
    S = _softmax(Z @ W2 + b2)
    S[mi, bi, y] -= 1.0
    S /= n
    gW2 = np.swapaxes(Z, 1, 2) @ S
    gb2 = S.sum(axis=1)
    dZ = (S @ np.swapaxes(W2, 1, 2)) * (1.0 - Z * Z)
    gW1 = Xt @ dZ
    gb1 = dZ.sum(axis=1)
    g = np.concatenate([gW1.reshape(M, -1), gb1, gW2.reshape(M, -1), gb2], axis=1)
    return g + spec.l2_reg * W


def gradient_probes(spec, W, X, y):
    """Full-batch gradients of G equal-size datasets at Q probe points:
    W (Q, P), X (G, n, d), y (G, n) -> (Q, G, P).

    Entry [q, g] is bitwise gradient_xy(spec, W[q], X[g], y[g]): one
    gradient_fleet call over the Q*G (probe, dataset) pairs, the probe
    rows repeated and the datasets tiled (a single dataset or a single
    probe needs no copy).
    """
    Q, G = W.shape[0], X.shape[0]
    if G == 1:
        X, y = np.broadcast_to(X, (Q,) + X.shape[1:]), np.broadcast_to(y, (Q,) + y.shape[1:])
    elif Q > 1:
        X, y = np.tile(X, (Q, 1, 1)), np.tile(y, (Q, 1))
    return gradient_fleet(spec, np.repeat(W, G, axis=0), X, y).reshape(Q, G, -1)


def row_norms(D):
    """Euclidean norm of every row of D (R, P), each bitwise equal to
    np.linalg.norm(D[r]). That norm is sqrt(dot(x, x)); a stacked
    (1, P) @ (P, 1) product makes the same dot call per row, which
    np.linalg.norm(D, axis=1) and einsum do not."""
    return np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(-1)


def loss(spec, w, data):
    """Mean per-sample loss over `data` plus the l2 term."""
    return loss_xy(spec, w, data.features, data.labels)


def gradient(spec, w, data):
    """Exact gradient of loss() restricted to `data`."""
    return gradient_xy(spec, w, data.features, data.labels)


def predict(spec, w, data):
    if spec.class_count == 1:
        raise UnsupportedModelError("prediction undefined for scalar regression")
    return np.argmax(_logits(spec, w, data.features), axis=1)


def accuracy(spec, w, data):
    return float(np.mean(predict(spec, w, data) == data.labels))


@dataclass
class SmoothnessEstimate:
    beta: float
    rho: float
    method: str  # "power_iteration" | "analytic" | "trajectory_sup"


def _lambda_max(A):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    g = rng.stream(0, rng.POWER_ITERATION)  # fixed start vector, deterministic
    v = g.normal(size=A.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITERATION_MAX):
        Av = A @ v
        norm = np.linalg.norm(Av)
        if norm == 0.0:
            return 0.0
        v = Av / norm
        lam_new = float(v @ (A @ v))
        if abs(lam_new - lam) <= POWER_ITERATION_TOL * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    raise PowerIterationError(
        f"no convergence after {POWER_ITERATION_MAX} iterations (last {lam})")


def estimate_constants(spec, data, probes):
    """Smoothness bound beta and region-restricted Lipschitz constant rho.

    beta: quadratic -> top eigenvalue of X'X/n plus l2_reg (power
    iteration); logistic -> the softmax-Hessian bound 0.5*lmax(X'X)/n
    plus l2_reg. rho: max over probe points of the full-loss gradient
    norm, i.e. a Lipschitz constant valid over the probed region only.
    The probe gradients come in chunks from gradient_probes and their norms
    from row_norms, so rho is bitwise the per-probe loop's value.
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} has no certified constants")
    if len(probes) == 0:
        raise ValueError("need at least one probe point for rho")
    X = data.features
    A = (X.T @ X) / X.shape[0]
    lam = _lambda_max(A)
    if spec.family == QUADRATIC:
        beta = lam + spec.l2_reg
        method = "power_iteration"
    else:
        beta = 0.5 * lam + spec.l2_reg
        method = "analytic"
    W = np.asarray(probes, dtype=np.float64).reshape(len(probes), -1)
    chunk = max(1, CHUNK_BYTES // (8 * data.n_samples * spec.class_count))
    G = np.concatenate([gradient_probes(spec, W[i:i + chunk], X[None], data.labels[None])[:, 0]
                        for i in range(0, len(W), chunk)])
    # Python's max over the same floats in probe order, as one call per probe gave
    rho = max(row_norms(G).tolist())
    return SmoothnessEstimate(beta=beta, rho=rho, method=method)


@dataclass
class Optimum:
    w: np.ndarray
    value: float
    min_norm_fallback: bool = False


def solve_optimum(spec, data, grad_tol=1e-8, max_iter=2_000_000):
    """Minimizer of the full loss for the convex families.

    quadratic: regularized normal equations (minimum-norm least squares
    when l2_reg == 0 and the system is singular, flagged). logistic:
    full-batch gradient descent with step 1/beta until the gradient norm
    falls below grad_tol.
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} is not convex")
    X, y = data.features, data.labels
    n = X.shape[0]
    if spec.family == QUADRATIC:
        T = _targets(spec, y)
        A = (X.T @ X) / n + spec.l2_reg * np.eye(spec.dim)
        B = (X.T @ T) / n
        fallback = False
        if spec.l2_reg == 0.0:
            W, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
            fallback = rank < spec.dim
        else:
            W = np.linalg.solve(A, B)
        w = W.ravel()
        return Optimum(w, loss(spec, w, data), fallback)
    est = estimate_constants(spec, data, probes=[np.zeros(param_length(spec))])
    step = 1.0 / est.beta
    w = np.zeros(param_length(spec))
    for _ in range(max_iter):
        g = gradient(spec, w, data)
        if np.linalg.norm(g) <= grad_tol:
            return Optimum(w, loss(spec, w, data))
        w = w - step * g
    raise RuntimeError(f"descent did not reach grad_tol={grad_tol} in {max_iter} steps")


# --- parameter-vector wire format: u64 little-endian length, then f64 values ---

def write_param_vector(fh, w):
    w = np.ascontiguousarray(w, dtype=np.float64)
    fh.write(struct.pack("<Q", w.size))
    fh.write(w.astype("<f8").tobytes())


def read_param_vector(fh):
    raw = fh.read(8)
    if len(raw) != 8:
        raise IOError("truncated parameter vector header")
    (size,) = struct.unpack("<Q", raw)
    buf = fh.read(8 * size)
    if len(buf) != 8 * size:
        raise IOError("truncated parameter vector payload")
    return np.frombuffer(buf, dtype="<f8").astype(np.float64)
