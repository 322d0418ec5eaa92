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


class UnsupportedModelError(ValueError):
    """Operation requires a convex family."""


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


def _label_index(y, c):
    """Flat index of entry [..., b, y[..., b]] of a C-contiguous array of
    shape y.shape + (c,): one index, where fancy indexing over every axis
    would build one index array per axis."""
    label = np.arange(0, y.size * c, c).reshape(y.shape)
    label += y
    return label


def quadratic_targets(spec, y):
    """What the quadratic family regresses on for labels y (any leading
    axes): one-hot rows, or the raw labels as a column when
    class_count == 1. None for the cross-entropy families, which index
    the labels directly. gradient_fleet and gradient_probes take it as
    targets, so a caller whose labels do not change builds it once."""
    if spec.family != QUADRATIC:
        return None
    if spec.class_count == 1:
        return y.astype(np.float64)[..., None]
    T = np.zeros(y.shape + (spec.class_count,))
    T.reshape(-1)[_label_index(y, spec.class_count)] = 1.0
    return T


# Reductions over a short axis. numpy's reduce runs one inner loop per
# output element, so over the class axis (a few entries per row) or the
# batch axis of a fleet array it costs far more than an elementwise pass.
# These helpers add (or compare) the same entries in numpy's own order at
# elementwise speed, so every result keeps its bits. Below 8 terms numpy
# folds a contiguous axis in index order, a sum from +0.0. From 8 up its
# sum is pairwise (and past 8 its max can settle a tie of -0.0 and +0.0
# the other way), so from 8 up the helpers call numpy.

def _class_max(Z):
    """Z.max(axis=-1) bit for bit (signed zeros included)."""
    c = Z.shape[-1]
    if c >= 8:
        return Z.max(axis=-1)
    m = Z[..., 0].copy()
    for j in range(1, c):
        np.maximum(m, Z[..., j], out=m)
    return m


def _class_sum(Z):
    """Z.sum(axis=-1) bit for bit."""
    c = Z.shape[-1]
    if c >= 8:
        return Z.sum(axis=-1)
    s = Z[..., 0] + 0.0
    for j in range(1, c):
        s += Z[..., j]
    return s


def _batch_sum(A):
    """A.sum(axis=1) of a fleet array A (M, B, k), bit for bit: for k > 1
    numpy adds the B rows of each vehicle in order, and so does a sum over
    the leading axis of a batch-major copy, one elementwise pass per batch
    row. A (B, 1) column is contiguous, and numpy sums it pairwise, as
    gradient_xy does; that case keeps numpy's reduce."""
    if A.shape[2] == 1:
        return A.sum(axis=1)
    return np.ascontiguousarray(np.swapaxes(A, 0, 1)).sum(axis=0)


def _softmax(logits):
    """Row softmax over the last axis (class scores), any leading axes;
    in place when logits is C-contiguous, as the fresh products the
    callers pass are."""
    Z = logits.reshape(-1, logits.shape[-1])  # the rows on one axis
    Z -= _class_max(Z)[:, None]
    np.exp(Z, out=Z)
    Z /= _class_sum(Z)[:, None]
    return Z.reshape(logits.shape)


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
        R = X @ w.reshape(spec.dim, -1) - quadratic_targets(spec, y)
        return 0.5 * float((R * R).sum()) / n + reg
    logits = _logits(spec, w, X)
    zmax = _class_max(logits)
    lse = zmax + np.log(_class_sum(np.exp(logits - zmax[:, None])))
    return float((lse - logits[np.arange(n), y]).mean()) + reg


def gradient_xy(spec, w, X, y):
    _check_dims(spec, w, X)
    n = X.shape[0]
    if spec.family == QUADRATIC:
        R = X @ w.reshape(spec.dim, -1) - quadratic_targets(spec, y)
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


def gradient_fleet(spec, W, X, y, *, targets=None):
    """gradient_xy for a whole fleet: W (M, P), X (M, B, d), y (M, B).
    targets is quadratic_targets(spec, y), built here when not given.

    Row m is bitwise gradient_xy(spec, W[m], X[m], y[m]): the same
    operations in the same order on stacked arrays, with batched matmul
    (numpy runs one product per vehicle, as in the 2-D code), some of
    them in place, and every reduction adding the terms the 2-D code adds
    in its order (_class_max, _class_sum, _batch_sum).
    """
    M, n = y.shape
    if W.shape != (M, param_length(spec)) or X.shape != (M, n, spec.dim):
        raise ValueError(f"fleet shapes W {W.shape}, X {X.shape}, y {y.shape} "
                         f"do not match P={param_length(spec)}, d={spec.dim}")
    if spec.is_convex:
        return _convex_gradients(spec, W.reshape(M, spec.dim, -1), X, y,
                                 targets).reshape(M, -1)
    W1, b1, W2, b2 = _mlp_unpack(spec, W)
    Z = X @ W1
    Z += b1
    np.tanh(Z, out=Z)
    S = Z @ W2
    S += b2
    S = _softmax(S)
    S.reshape(-1)[_label_index(y, spec.class_count)] -= 1.0
    S /= n
    g = np.empty(W.shape)
    gW1, gb1, gW2, gb2 = _mlp_unpack(spec, g)  # views of g's rows
    np.matmul(np.swapaxes(Z, 1, 2), S, out=gW2)
    gb2[:, 0] = _batch_sum(S)
    dZ = S @ np.swapaxes(W2, 1, 2)
    Z *= Z
    dZ *= np.subtract(1.0, Z, out=Z)
    np.matmul(np.swapaxes(X, 1, 2), dZ, out=gW1)
    gb1[:, 0] = _batch_sum(dZ)
    g += spec.l2_reg * W
    return g


def _convex_gradients(spec, Wm, X, y, targets, out=None, residual=None):
    """Gradients of a convex family at the weight matrices Wm (..., d, c)
    over the datasets X (..., n, d), y (..., n), their leading axes
    broadcast; targets is quadratic_targets(spec, y) or None. Each
    (weights, dataset) pair gets gradient_xy's operations: an (n, d) @ (d, c)
    product, the residual or softmax scores, and X' @ R, divided by n plus
    the l2 term. The scores are written to residual and the gradients,
    (..., d, c), to out, when given."""
    n = X.shape[-2]
    R = np.matmul(X, Wm, out=residual)
    if spec.family == QUADRATIC:
        R -= quadratic_targets(spec, y) if targets is None else targets
    else:
        _softmax(R)
        # entry [..., b, y[..., b]] of the contiguous (..., n, c) scores
        R.reshape(-1)[_label_index(np.broadcast_to(y, R.shape[:-1]), spec.class_count)] -= 1.0
    g = np.matmul(np.swapaxes(X, -1, -2), R, out=out)
    g /= n
    g += spec.l2_reg * Wm
    return g


def gradient_probes(spec, W, X, y, *, targets=None, out=None, residual=None):
    """Full-batch gradients of G equal-size datasets at Q probe points, for
    the convex families: W (Q, P), X (G, n, d), y (G, n) -> (Q, G, P).
    targets is quadratic_targets(spec, y), built per call when not given.
    out (Q, G, P), whose rows are contiguous, receives the gradients, and
    residual (Q, G, n, c), C-contiguous, the scores, so a caller can reuse
    both.

    Entry [q, g] is bitwise gradient_xy(spec, W[q], X[g], y[g]): the probe
    weights, as (Q, 1, d, c), broadcast against the datasets, so each
    (probe, dataset) product is the one gradient_xy makes and nothing is
    copied.
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} has no probe gradients")
    Q, G = W.shape[0], X.shape[0]
    if out is not None and out.strides[-1] != out.itemsize:
        raise ValueError("out needs contiguous rows")
    # the softmax and the label entries are taken in place on a flat view
    if residual is not None and not residual.flags.c_contiguous:
        raise ValueError("residual must be C-contiguous")
    g = _convex_gradients(spec, W.reshape(Q, 1, spec.dim, -1), X, y, targets,
                          out=None if out is None else out.reshape(Q, G, spec.dim, -1),
                          residual=residual)
    return g.reshape(Q, G, -1) if out is None else out


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


def estimate_constants(spec, data):
    """Smoothness constant beta of the full loss over `data`, as a float.

    With lmax the largest eigenvalue of X'X/n, taken exactly by
    np.linalg.eigvalsh: quadratic -> lmax plus l2_reg; logistic -> the
    softmax-Hessian bound 0.5*lmax plus l2_reg. The region Lipschitz
    constant rho is a supremum of gradient norms over probe points;
    analysis.estimate_divergences measures it (grad_norm).
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} has no certified constants")
    X = data.features
    lam = float(np.linalg.eigvalsh((X.T @ X) / X.shape[0])[-1])
    return (lam if spec.family == QUADRATIC else 0.5 * lam) + spec.l2_reg


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
        T = quadratic_targets(spec, y)
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
    step = 1.0 / estimate_constants(spec, data)
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
