"""Loss functions, gradients and analytic constants for the learning tasks.

Three families: "quadratic" (least squares on one-hot labels),
"multinomial_logistic" (softmax cross-entropy) and "mlp1" (one tanh hidden layer; accepted by the
training engine but rejected by everything bound-related).

All losses are sample means plus (l2_reg/2)*||w||^2; the smoothness and
Lipschitz constants follow that normalization.

Parameter layout: a convex row is the (d, c) weight matrix, row-major; an
mlp1 row is the blocks [W1; b1] (d+1, h) and [W2; b2] (h+1, c), row-major,
each bias the last row. model_inputs gives each mlp1 layer's inputs (the
features, the hidden activations) a trailing ones column, so every bias
joins its layer's product.
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
        if self.dim < 1 or self.class_count < 2:
            raise ValueError("dim must be >= 1 and class_count >= 2")
        if p := spec_problems(self.family, self.l2_reg, self.hidden_width):
            raise ValueError(p[0])

    @property
    def is_convex(self):
        return self.family in (QUADRATIC, MULTINOMIAL_LOGISTIC)


def spec_problems(family, l2_reg, hidden_width):
    """Every rule a model's family, l2_reg and hidden_width break."""
    return [m for broken, m in (
        (family not in FAMILIES, f"family must be one of {FAMILIES}"),
        (l2_reg < 0, "l2_reg must be >= 0"),
        (family == MLP1 and hidden_width < 1, "mlp1 needs hidden_width >= 1")) if broken]


def param_length(spec):
    d, c, h = spec.dim, spec.class_count, spec.hidden_width
    if spec.family == MLP1:
        return (d + 1) * h + (h + 1) * c
    return d * c


def init_params(spec, seed=0):
    """Zero start for the convex families, small Gaussian for mlp1."""
    p = param_length(spec)
    if spec.family != MLP1:
        return np.zeros(p)
    g = rng.stream(seed, rng.MODEL_INIT)
    return 0.1 * g.normal(size=p)


def _check_dims(spec, w, X, width):
    if w.shape != (param_length(spec),):
        raise ValueError(f"parameter length {w.shape} != {param_length(spec)}")
    if X.shape[1] != width:
        raise ValueError(f"input width {X.shape[1]} != {width}")


def one_hot(y, class_count):
    """The one-hot rows of the labels y (any leading axes), shape
    y.shape + (class_count,): the targets every gradient but gradient_xy,
    and GradientWorkspace.loss, take. The quadratic family regresses on
    them, and the cross-entropy families subtract them from the softmax,
    so a caller whose labels do not change builds them once."""
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= class_count):
        raise ValueError(f"labels outside [0, {class_count})")
    T = np.zeros(y.shape + (class_count,))
    np.put_along_axis(T, y[..., None], 1.0, axis=-1)
    return T


# Reductions over a short axis. numpy's reduce runs one inner loop per
# output element, so over the class axis (a few entries per row) it costs
# far more than an elementwise pass.
# These helpers add (or compare) the same entries in numpy's own order at
# elementwise speed, so every result keeps its bits. Below 8 terms numpy
# folds a contiguous axis in index order, a sum from +0.0. From 8 up its
# sum is pairwise (and past 8 its max can settle a tie of -0.0 and +0.0
# the other way), so from 8 up the helpers call numpy.

def _class_max(Z, out=None):
    """Z.max(axis=-1) bit for bit (signed zeros included), into out when
    given."""
    c = Z.shape[-1]
    if c >= 8:
        return Z.max(axis=-1, out=out)
    m = np.empty(Z.shape[:-1]) if out is None else out
    m[...] = Z[..., 0]
    for j in range(1, c):
        np.maximum(m, Z[..., j], out=m)
    return m


def _class_sum(Z, out=None):
    """Z.sum(axis=-1) bit for bit, into out when given."""
    c = Z.shape[-1]
    if c >= 8:
        return Z.sum(axis=-1, out=out)
    s = np.add(Z[..., 0], 0.0, out=out)
    for j in range(1, c):
        s += Z[..., j]
    return s


def _softmax(logits, rows=None, spread=None):
    """Row softmax over the last axis (class scores), any leading axes;
    in place when logits is C-contiguous, as the fresh products the
    callers pass are. rows, one entry per row, holds the row maxima and
    then the row sums when given, and spread, shaped like logits, each
    spread over its row: numpy would give a broadcast operand a temporary
    buffer of its own."""
    Z = logits.reshape(-1, logits.shape[-1])  # the rows on one axis
    E = np.empty_like(Z) if spread is None else spread.reshape(Z.shape)
    np.copyto(E, _class_max(Z, rows)[:, None])
    Z -= E
    np.exp(Z, out=Z)
    np.copyto(E, _class_sum(Z, rows)[:, None])
    Z /= E
    return Z.reshape(logits.shape)


def model_inputs(spec, X):
    """The rows a layer multiplies by its weights: X itself for the convex
    families, and for mlp1 X (any leading axes) with a trailing ones column."""
    if spec.family != MLP1:
        return X
    return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)


def _mlp_unpack(spec, w):
    """Views of the blocks [W1; b1] (d+1, h) and [W2; b2] (h+1, c) of an
    mlp1 parameter vector; leading axes of w (one row per vehicle) stay in
    front."""
    d, c, h = spec.dim, spec.class_count, spec.hidden_width
    i, lead = (d + 1) * h, w.shape[:-1]
    return w[..., :i].reshape(lead + (d + 1, h)), w[..., i:].reshape(lead + (h + 1, c))


def loss(spec, w, X, y):
    """Mean per-sample loss over the model-input rows X and their labels
    y, plus the l2 term: EvalWorkspace.loss for a single evaluation."""
    return EvalWorkspace(spec, X, y).loss(w)


def accuracy(spec, w, X, y):
    """Share of the model-input rows X whose highest class score is their
    label y: EvalWorkspace.accuracy for a single evaluation."""
    return EvalWorkspace(spec, X, y).accuracy(w)


class EvalWorkspace:
    """The loss and the accuracy at any parameter vector over fixed
    model-input rows X (n, .) and their labels y (n,), for a caller that
    evaluates many vectors on the same rows (a run's training union and
    eval split at every edge round): a one-row GradientWorkspace over
    X[None] and y's one-hot targets T (passed, as a run's union passes its
    local step's, or built by the first loss call, so a workspace that only
    scores the accuracy holds none), whose row each vector is copied into."""

    def __init__(self, spec, X, y, T=None):
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels {y.shape} do not match {X.shape[0]} rows")
        if y.size and (y.min() < 0 or y.max() >= spec.class_count):
            raise ValueError(f"labels outside [0, {spec.class_count})")  # as one_hot would
        self.spec, self.X, self.y = spec, X[None], y[None]
        self.T = None if T is None else T[None]
        self._w = np.empty(param_length(spec))
        self._ws = GradientWorkspace(spec, self._w[None], len(y))

    def _set(self, w):
        _check_dims(self.spec, w, self.X[0], self.spec.dim + (self.spec.family == MLP1))
        self._w[:] = w

    def loss(self, w):
        """Mean per-sample loss at w plus the l2 term."""
        self._set(w)
        if self.T is None:
            self.T = one_hot(self.y, self.spec.class_count)
        return float(self._ws.loss(self.X, self.T)[0])

    def accuracy(self, w):
        """Share of the rows whose highest class score at w is their label."""
        self._set(w)
        return float(self._ws.accuracy(self.X, self.y)[0])


def gradient_xy(spec, w, X, y):
    _check_dims(spec, w, X, spec.dim)
    n = X.shape[0]
    if spec.family == QUADRATIC:
        R = X @ w.reshape(spec.dim, -1) - np.eye(spec.class_count)[y]
        return (X.T @ R).ravel() / n + spec.l2_reg * w
    if spec.family == MULTINOMIAL_LOGISTIC:
        S = _softmax(X @ w.reshape(spec.dim, spec.class_count))
        S[np.arange(n), y] -= 1.0
        return (X.T @ S).ravel() / n + spec.l2_reg * w
    B1, B2 = _mlp_unpack(spec, w)
    X1 = model_inputs(spec, X)
    Z1 = model_inputs(spec, np.tanh(X1 @ B1))
    S = _softmax(Z1 @ B2)
    S[np.arange(n), y] -= 1.0
    S /= n
    gB2 = Z1.T @ S
    Z = Z1[:, :-1]
    dZ = (S @ B2[:-1].T) * (1.0 - Z * Z)
    gB1 = X1.T @ dZ
    return np.concatenate([gB1.ravel(), gB2.ravel()]) + spec.l2_reg * w


class GradientWorkspace:
    """gradient_xy, the loss and the accuracy for a whole fleet, on buffers
    that outlive a call: at the weight rows W (M, P), C-contiguous, over
    batches of n rows, for a caller that takes many steps (or evaluations)
    on the same W and updates it in place.

    The workspace keeps views of W's blocks ([W1; b1] and [W2; b2] for mlp1,
    the (M, d, c) matrices otherwise) and of g's, and every intermediate:
    for mlp1 the hidden activations Z1, with their ones column, and tanh's
    derivative D and dZ (built by the first gradient call, so a workspace
    that only evaluates holds neither), the scores S, the softmax's row
    reductions and their spread over the rows, the l2 product, and the
    loss's and the accuracy's rows (each built by its first call, so a
    workspace that only steps holds neither). Every method writes into them
    with the 2-D numpy operations in their order on the stacked arrays,
    with batched matmul (numpy runs one product per vehicle, as in the 2-D
    code) and every reduction adding the terms the 2-D code adds in its
    order (_class_max, _class_sum). gradient() returns g, the same (M, P)
    array at every call, and allocates nothing.
    """

    def __init__(self, spec, W, n):
        M, P = W.shape
        if P != param_length(spec) or not W.flags.c_contiguous:
            raise ValueError(f"W {W.shape} must be C-contiguous with P={param_length(spec)}")
        d, c, h = spec.dim, spec.class_count, spec.hidden_width
        self.spec, self.W, self.n = spec, W, n
        self.g = np.empty((M, P))
        self._S = np.empty((M, n, c))
        # the softmax's row maxima, then its row sums, alone and spread
        self._rows, self._spread = np.empty(M * n), np.empty((M, n, c))
        self._lse = self._best = self._hit = None
        if spec.is_convex:
            self._Wm, self._gm = W.reshape(M, d, c), self.g.reshape(M, d, c)
            self._reg = np.empty((M, d, c))
        else:
            self._B1, self._B2 = _mlp_unpack(spec, W)
            self._W2T = np.swapaxes(self._B2[:, :h], 1, 2)
            self._gB1, self._gB2 = _mlp_unpack(spec, self.g)
            self._reg = np.empty((M, P))
            self._Z1 = np.ones((M, n, h + 1))
            self._Z, self._Z1T = self._Z1[..., :h], np.swapaxes(self._Z1, 1, 2)
            self._D = self._dZ = None

    def gradient(self, X, T):
        """Gradients at the current W over the model-input rows X (M, n, .)
        of the batches, model_inputs(spec, Xraw) with Xraw (M, n, d), and
        their one-hot targets T (M, n, c), one_hot(y, c) of their labels
        y (M, n): row m is bitwise gradient_xy(spec, W[m], Xraw[m], y[m]).
        Returns g, which the next call overwrites."""
        spec = self.spec
        if spec.is_convex:
            _convex_gradients(spec, self._Wm, X, T, out=self._gm, residual=self._S,
                              rows=self._rows, spread=self._spread, reg=self._reg)
            return self.g
        if self._D is None:  # the backward buffers, at the first call
            self._D, self._dZ = np.empty(self._Z.shape), np.empty(self._Z.shape)
        S = self._scores(X)
        _softmax(S, self._rows, self._spread)
        S -= T
        S /= self.n
        np.matmul(self._Z1T, S, out=self._gB2)
        dZ = np.matmul(S, self._W2T, out=self._dZ)
        # tanh's derivative on a contiguous copy of the activations: a
        # ufunc would give Z1's first h columns, a strided view, a
        # temporary buffer, and a strided dZ would change the bits of the
        # last product at h = 1
        D = self._D
        np.copyto(D, self._Z)
        D *= D
        np.subtract(1.0, D, out=D)
        dZ *= D
        np.matmul(X.swapaxes(1, 2), dZ, out=self._gB1)
        self.g += np.multiply(spec.l2_reg, self.W, out=self._reg)
        return self.g

    def _scores(self, X):
        """The class scores at the current W of the model-input rows X
        (M, n, .), into S. For mlp1 the product fills Z1's first h columns;
        tanh over the whole buffer is faster than over the view and keeps a
        fresh product's bits, and the last column is set back to ones
        after it."""
        if self.spec.is_convex:
            return np.matmul(X, self._Wm, out=self._S)
        np.matmul(X, self._B1, out=self._Z1[..., :-1])
        np.tanh(self._Z1, out=self._Z1)
        self._Z1[..., -1] = 1.0  # the ones column
        return np.matmul(self._Z1, self._B2, out=self._S)

    def loss(self, X, T):
        """Each row's mean per-sample loss at the current W over the
        model-input rows X (M, n, .) and their one-hot targets T (M, n, c),
        plus the l2 term: (M,), row m bitwise the 2-D formula at W[m]."""
        S, E = self._scores(X), self._spread
        # each row's w @ w, by the dot call the 1-D product makes
        reg = 0.5 * self.spec.l2_reg * (self.W[:, None, :] @ self.W[:, :, None]).reshape(-1)
        if self.spec.family == QUADRATIC:
            R = np.subtract(S, T, out=E)
            R *= R
            return 0.5 * R.reshape(len(R), -1).sum(axis=1) / self.n + reg
        if self._lse is None:
            self._lse = np.empty(S.shape[:2])
        rows, lse = self._rows.reshape(self._lse.shape), self._lse
        zmax = _class_max(S, rows)
        # the row maxima spread over the rows first: numpy would give the
        # broadcast operand a temporary buffer of its own
        np.copyto(E, zmax[..., None])
        np.subtract(S, E, out=E)
        np.exp(E, out=E)
        np.log(_class_sum(E, lse), out=lse)
        lse += zmax
        # each label's score, into zmax's spent buffer: the class sum of
        # the scores times the targets, every term but the label's a
        # signed zero where the scores are finite
        lse -= _class_sum(np.multiply(S, T, out=E), rows)
        return lse.mean(axis=1) + reg

    def accuracy(self, X, y):
        """Each row's share of the model-input rows X (M, n, .) whose
        highest class score at the current W is their label y (M, n): (M,)."""
        if self._best is None:
            self._best, self._hit = (np.empty(self._S.shape[:2], t) for t in (np.intp, bool))
        best = np.argmax(self._scores(X), axis=-1, out=self._best)
        return np.count_nonzero(np.equal(best, y, out=self._hit), axis=-1) / self.n


def _convex_gradients(spec, Wm, X, T, out=None, residual=None, *, rows=None, spread=None,
                      reg=None):
    """Gradients of a convex family at the weight matrices Wm (..., d, c)
    over the datasets X (..., n, d) and their one-hot targets T
    (..., n, c), their leading axes broadcast. Each (weights, dataset)
    pair gets gradient_xy's operations: an (n, d) @ (d, c) product, the
    softmax for the cross-entropy family, minus the targets, and X' @ R,
    divided by n plus the l2 term. Subtracting a target's exact 0.0 keeps
    every bit, and 1.0 is what gradient_xy subtracts at a label. The
    residual is written to residual and the gradients, (..., d, c), to
    out, when given. A caller that keeps buffers passes rows and spread
    for the softmax, and reg, shaped like Wm, for the l2 product."""
    n = X.shape[-2]
    R = np.matmul(X, Wm, out=residual)
    if spec.family != QUADRATIC:
        _softmax(R, rows, spread)
    R -= T
    g = np.matmul(np.swapaxes(X, -1, -2), R, out=out)
    g /= n
    g += np.multiply(spec.l2_reg, Wm, out=reg)
    return g


def gradient_probes(spec, W, X, T, *, out=None, residual=None):
    """Full-batch gradients of G equal-size datasets at Q probe points, for
    the convex families: W (Q, P), X (G, n, d) and the datasets' one-hot
    targets T (G, n, c) -> (Q, G, P). out (Q, G, P), whose rows are
    contiguous, receives the gradients, and residual (Q, G, n, c),
    C-contiguous, the residuals, so a caller can reuse both.

    Entry [q, g] is bitwise gradient_xy(spec, W[q], X[g], y[g]) for the
    labels y behind T: the probe weights, as (Q, 1, d, c), broadcast
    against the datasets, so each (probe, dataset) product is the one
    gradient_xy makes and nothing is copied.
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} has no probe gradients")
    Q, G = W.shape[0], X.shape[0]
    if out is not None and out.strides[-1] != out.itemsize:
        raise ValueError("out needs contiguous rows")
    # the softmax is taken in place on a flat view
    if residual is not None and not residual.flags.c_contiguous:
        raise ValueError("residual must be C-contiguous")
    g = _convex_gradients(spec, W.reshape(Q, 1, spec.dim, -1), X, T,
                          out=None if out is None else out.reshape(Q, G, spec.dim, -1),
                          residual=residual)
    return g.reshape(Q, G, -1) if out is None else out


def row_norms(D):
    """Euclidean norm of every row of D (R, P), each bitwise equal to
    np.linalg.norm(D[r]). That norm is sqrt(dot(x, x)); a stacked
    (1, P) @ (P, 1) product makes the same dot call per row, which
    np.linalg.norm(D, axis=1) and einsum do not."""
    return np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(-1)


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


def optimum_problems(family, l2_reg):
    """Why solve_optimum's loss may have no minimizer. A logistic loss
    without l2 has none on separable data, where the descent would run to
    its step cap; the rule rejects every such input up front, separable or
    not."""
    if family == MULTINOMIAL_LOGISTIC and l2_reg == 0:
        return [f"l2_reg = 0 leaves the {family} loss without a minimizer on "
                "separable data; the optimum needs l2_reg > 0"]
    return []


def solve_optimum(spec, data, grad_tol=1e-8, max_iter=2_000_000):
    """Minimizer of the full loss for the convex families.

    quadratic: regularized normal equations (minimum-norm least squares
    when l2_reg == 0 and the system is singular, flagged). logistic:
    full-batch descent with step 1/beta, on a one-row GradientWorkspace,
    until the gradient norm falls below grad_tol.
    """
    if not spec.is_convex:
        raise UnsupportedModelError(f"{spec.family} is not convex")
    if p := optimum_problems(spec.family, spec.l2_reg):
        raise ValueError(p[0])
    X, y = data.features, data.labels
    n = X.shape[0]
    if spec.family == QUADRATIC:
        T = one_hot(y, spec.class_count)
        A = (X.T @ X) / n + spec.l2_reg * np.eye(spec.dim)
        B = (X.T @ T) / n
        fallback = False
        if spec.l2_reg == 0.0:
            W, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
            fallback = rank < spec.dim
        else:
            W = np.linalg.solve(A, B)
        w = W.ravel()
        return Optimum(w, loss(spec, w, X, y), fallback)
    step = 1.0 / estimate_constants(spec, data)
    W = np.zeros((1, param_length(spec)))
    descent, XT = GradientWorkspace(spec, W, n), (X[None], one_hot(y, spec.class_count)[None])
    for _ in range(max_iter):
        g = descent.gradient(*XT)[0]
        if np.linalg.norm(g) <= grad_tol:
            return Optimum(W[0], loss(spec, W[0], X, y))
        g *= step  # then W -= g: the two roundings of w - step * g
        W -= g
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
    # a corrupt length is compared with the bytes left, never allocated
    here = fh.tell()
    left = fh.seek(0, 2) - here
    fh.seek(here)
    if 8 * size > left:
        raise IOError(f"truncated parameter vector payload: {size} values, {left} bytes left")
    return np.frombuffer(fh.read(8 * size), dtype="<f8").astype(np.float64)
