import io
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import datasets, models
from hflsim.models import (
    MLP1, MULTINOMIAL_LOGISTIC, QUADRATIC,
    ModelSpec, UnsupportedModelError, estimate_constants, gradient_xy,
    init_params, param_length, read_param_vector, solve_optimum,
    write_param_vector,
)


def loss(spec, w, ds):
    """models.loss over a dataset's model-input rows."""
    return models.loss(spec, w, models.model_inputs(spec, ds.features), ds.labels)


def small_dataset(C=4, d=6, n_per=30, seed=3):
    return datasets.generate_synthetic(C, d, n_per, 3.0, seed=seed)


def rand_params(spec, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    return scale * g.normal(size=param_length(spec))


SPECS = [
    ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=0.1),
    ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=4, l2_reg=0.05),
    ModelSpec(MLP1, dim=6, class_count=4, l2_reg=0.01, hidden_width=5),
]


class TestLoss:
    def test_quadratic_least_squares_oracle(self):
        # independent oracle: minimum found by numpy lstsq directly
        ds = small_dataset()
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=0.0)
        T = np.zeros((ds.size, 4))
        T[np.arange(ds.size), ds.labels] = 1.0
        W, _, _, _ = np.linalg.lstsq(ds.features, T, rcond=None)
        w = W.ravel()
        R = ds.features @ W - T
        expected = 0.5 * np.sum(R * R) / ds.size
        assert loss(spec, w, ds) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(gradient_xy(spec, w, ds.features, ds.labels)) <= 1e-10

    def test_logistic_at_zero_is_log_c(self):
        ds = small_dataset(C=5)
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=5, l2_reg=0.0)
        w = np.zeros(param_length(spec))
        assert loss(spec, w, ds) == pytest.approx(np.log(5), rel=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_duplicated_dataset_same_loss(self, spec):
        ds = small_dataset()
        dup = datasets.LabeledDataset(
            np.concatenate([ds.features, ds.features]),
            np.concatenate([ds.labels, ds.labels]), ds.class_count)
        w = init_params(spec, seed=1) + rand_params(spec, seed=2, scale=0.3)
        assert loss(spec, w, dup) == pytest.approx(loss(spec, w, ds), rel=1e-12)

    def test_dimension_mismatch(self):
        ds = small_dataset()
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4)
        with pytest.raises(ValueError):
            loss(spec, np.zeros(5), ds)
        # loss takes model-input rows: an mlp1 row has a ones column
        mlp = ModelSpec(MLP1, dim=6, class_count=4, hidden_width=5)
        with pytest.raises(ValueError, match="input width 6 != 7"):
            models.loss(mlp, np.zeros(param_length(mlp)), ds.features, ds.labels)
        with pytest.raises(ValueError, match="labels outside"):
            models.EvalWorkspace(spec, ds.features, ds.labels + 1)

    def test_one_class_rejected(self):
        # a label is a class id: one class leaves nothing to learn
        with pytest.raises(ValueError, match="class_count >= 2"):
            ModelSpec(QUADRATIC, dim=6, class_count=1)
        with pytest.raises(ValueError, match="class_count must be >= 2"):
            datasets.LabeledDataset(np.ones((3, 2)), np.zeros(3, dtype=int), class_count=1)


class TestGradient:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_finite_difference_per_coordinate(self, spec):
        # central differences on 20 random (w, sample) pairs
        ds = small_dataset()
        g = np.random.default_rng(5)
        for trial in range(20):
            w = init_params(spec, seed=trial) + 0.3 * g.normal(size=param_length(spec))
            i = int(g.integers(0, ds.size))
            sample = ds.subset(np.array([i]))
            anal = gradient_xy(spec, w, sample.features, sample.labels)
            eps = 1e-5
            for j in g.choice(param_length(spec), size=5, replace=False):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                num = (loss(spec, wp, sample) - loss(spec, wm, sample)) / (2 * eps)
                assert num == pytest.approx(anal[j], rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_directional_derivative_probes(self, spec):
        ds = small_dataset()
        g = np.random.default_rng(6)
        for _ in range(100):
            w = 0.3 * g.normal(size=param_length(spec))
            d = g.normal(size=param_length(spec))
            d /= np.linalg.norm(d)
            eps = 1e-5
            num = (loss(spec, w + eps * d, ds) - loss(spec, w - eps * d, ds)) / (2 * eps)
            anal = float(gradient_xy(spec, w, ds.features, ds.labels) @ d)
            assert num == pytest.approx(anal, rel=1e-4, abs=1e-8)

    def test_union_batch_is_weighted_average(self):
        ds = small_dataset()
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=4, l2_reg=0.07)
        w = rand_params(spec, seed=9, scale=0.5)
        a = ds.subset(np.arange(0, 40))
        b = ds.subset(np.arange(40, ds.size))
        g_union = gradient_xy(spec, w, ds.features, ds.labels)
        g_avg = (a.size * gradient_xy(spec, w, a.features, a.labels)
                 + b.size * gradient_xy(spec, w, b.features, b.labels)) / ds.size
        assert np.max(np.abs(g_union - g_avg)) <= 1e-12

    def test_quadratic_zero_at_closed_form_optimum(self):
        ds = small_dataset()
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=0.3)
        opt = solve_optimum(spec, ds)
        assert np.linalg.norm(gradient_xy(spec, opt.w, ds.features, ds.labels)) <= 1e-10


def unfolded_mlp1(spec, w, X, y):
    """mlp1's loss and gradient in the unfolded layer algebra: the biases
    added after the products, and their gradients the batch sums of S and
    dZ."""
    d, c, h, n = spec.dim, spec.class_count, spec.hidden_width, X.shape[0]
    W1, b1 = w[:d * h].reshape(d, h), w[d * h:(d + 1) * h]
    W2, b2 = w[(d + 1) * h:-c].reshape(h, c), w[-c:]
    Z = np.tanh(X @ W1 + b1)
    logits = Z @ W2 + b2
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    loss = (lse - logits[np.arange(n), y]).mean() + 0.5 * spec.l2_reg * (w @ w)
    S = np.exp(logits - lse[:, None])
    S[np.arange(n), y] -= 1.0
    S /= n
    dZ = (S @ W2.T) * (1.0 - Z * Z)
    g = np.concatenate([(X.T @ dZ).ravel(), dZ.sum(axis=0), (Z.T @ S).ravel(), S.sum(axis=0)])
    return loss, g + spec.l2_reg * w


@pytest.mark.parametrize("h", [1, 5, 16])
@pytest.mark.parametrize("c", [2, 4, 10])
def test_folded_mlp1_equals_unfolded_layers(h, c):
    # the fold adds each bias inside its layer's product, so it agrees with
    # the unfolded algebra to rounding, not bit for bit
    spec = ModelSpec(MLP1, dim=6, class_count=c, l2_reg=0.01, hidden_width=h)
    g = np.random.default_rng(10 * h + c)
    for n in (1, 7, 40):
        for _ in range(5):
            w = 0.5 * g.normal(size=param_length(spec))
            X = 3.0 * g.normal(size=(n, spec.dim))
            y = g.integers(0, c, size=n)
            want_loss, want_g = unfolded_mlp1(spec, w, X, y)
            np.testing.assert_allclose(models.loss(spec, w, models.model_inputs(spec, X), y),
                                       want_loss, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(gradient_xy(spec, w, X, y), want_g, rtol=1e-13, atol=1e-15)


FLEET_SPECS = SPECS + [
    ModelSpec(QUADRATIC, dim=6, class_count=2, l2_reg=0.2),        # two classes
    ModelSpec(QUADRATIC, dim=6, class_count=4),
    ModelSpec(MLP1, dim=6, class_count=2, hidden_width=1),          # single hidden unit
    # from 8 classes up numpy sums the class axis pairwise
    ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=8, l2_reg=0.05),
    ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=10),
    ModelSpec(MLP1, dim=6, class_count=10, l2_reg=0.01, hidden_width=16),
    ModelSpec(MLP1, dim=6, class_count=4, hidden_width=1),          # one-column products
]


def short_axis_values(g, shape):
    """Entries over 1e-300..1e300 of both signs, with ties, signed zeros
    and infinities mixed in."""
    Z = g.normal(size=shape) * 10.0 ** g.integers(-300, 301, size=shape)
    pick = g.random(shape)
    Z[pick < 0.1] = 0.0
    Z[(pick >= 0.1) & (pick < 0.2)] = -0.0
    Z[(pick >= 0.2) & (pick < 0.25)] = np.inf
    Z[(pick >= 0.25) & (pick < 0.3)] = -np.inf
    Z[(pick >= 0.3) & (pick < 0.4)] = 2.5  # ties
    return Z


class TestShortAxisReductions:
    """The class-axis helpers reproduce numpy's reductions bit for bit, in
    whichever order numpy adds at each length."""

    @pytest.mark.parametrize("lead", [(50,), (6, 9), (1, 1)])
    @pytest.mark.parametrize("c", range(1, 13))
    def test_class_max_and_sum_equal_numpy(self, lead, c):
        g = np.random.default_rng(100 * c + len(lead))
        for _ in range(20):
            Z = short_axis_values(g, lead + (c,))
            with np.errstate(over="ignore", invalid="ignore"):
                assert models._class_max(Z).tobytes() == Z.max(axis=-1).tobytes()
                assert models._class_sum(Z).tobytes() == Z.sum(axis=-1).tobytes()
            # softmax inputs: a row's exponentials, all in [0, 1]
            E = np.exp(g.normal(size=lead + (c,)) * 20.0 - 30.0)
            assert models._class_sum(E).tobytes() == E.sum(axis=-1).tobytes()


def numpy_logits(spec, w, X):
    """Class scores of the feature rows X on fresh arrays; the mlp1 logits
    are the folded blocks' products."""
    n = X.shape[0]
    if spec.family == MLP1:
        B1, B2 = models._mlp_unpack(spec, w)
        Z = np.tanh(np.column_stack([X, np.ones(n)]) @ B1)
        return np.column_stack([Z, np.ones(n)]) @ B2
    return X @ w.reshape(spec.dim, spec.class_count)


def numpy_loss(spec, w, X, y):
    """models.loss written with numpy's own reductions on fresh arrays: the
    reference for the helpers' order and for the workspace's reused
    buffers, not for the layer formula."""
    n = X.shape[0]
    logits = numpy_logits(spec, w, X)
    reg = 0.5 * spec.l2_reg * float(w @ w)
    if spec.family == QUADRATIC:
        T = np.eye(spec.class_count)[y]
        return float(0.5 * ((logits - T) ** 2).sum() / n) + reg
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    return float((lse - logits[np.arange(n), y]).mean()) + reg


@pytest.mark.parametrize("c", [2, 4, 7, 8, 10])
@pytest.mark.parametrize("family", models.FAMILIES)
def test_loss_equals_numpy_reductions(family, c):
    # one EvalWorkspace takes five parameter vectors in turn, so a buffer
    # left stale by the call before, or a ones column not restored after
    # tanh, shows; models.loss and models.accuracy build one per call
    spec = ModelSpec(family, dim=5, class_count=c, l2_reg=0.03,
                     hidden_width=7 if family == MLP1 else 0)
    g = np.random.default_rng(c)
    for n in (1, 9, 40):
        X = 3.0 * g.normal(size=(n, spec.dim))
        y = g.integers(0, c, size=n)
        X1 = models.model_inputs(spec, X)
        ws = models.EvalWorkspace(spec, X1, y)
        for _ in range(5):
            w = 2.0 * g.normal(size=param_length(spec))
            want_loss = numpy_loss(spec, w, X, y)
            want_acc = float(np.mean(np.argmax(numpy_logits(spec, w, X), 1) == y))
            for got_loss, got_acc in ((ws.loss(w), ws.accuracy(w)),
                                      (models.loss(spec, w, X1, y),
                                       models.accuracy(spec, w, X1, y))):
                assert got_loss.hex() == want_loss.hex()
                assert got_acc.hex() == want_acc.hex()


@pytest.mark.parametrize("spec", FLEET_SPECS,
                         ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
def test_workspace_evaluates_every_row(spec):
    # a GradientWorkspace's loss and accuracy over M rows: row m is the
    # numpy formula at W[m] over batch m, bit for bit, and a workspace
    # that only evaluates never builds mlp1's backward buffers
    g = np.random.default_rng(spec.class_count)
    M, n = 3, 33
    W = init_params(spec, seed=1) + g.normal(size=(M, param_length(spec)))
    X = 3.0 * g.normal(size=(M, n, spec.dim))
    y = g.integers(0, spec.class_count, size=(M, n))
    X1 = models.model_inputs(spec, X)
    ws = models.GradientWorkspace(spec, W, n)
    losses = ws.loss(X1, models.one_hot(y, spec.class_count))
    hits = ws.accuracy(X1, y)
    for m in range(M):
        assert losses[m].hex() == numpy_loss(spec, W[m], X[m], y[m]).hex()
        assert hits[m] == np.mean(np.argmax(numpy_logits(spec, W[m], X[m]), 1) == y[m])
    assert getattr(ws, "_D", None) is None


@pytest.mark.parametrize("spec", FLEET_SPECS,
                         ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
def test_workspaces_build_only_what_they_use(spec):
    # a workspace that only steps holds no loss or accuracy rows, and an
    # EvalWorkspace that only scores the accuracy (a run's eval split)
    # holds no one-hot targets; the first loss call builds them
    g = np.random.default_rng(spec.class_count)
    M, n = 3, 33
    W = init_params(spec, seed=1) + g.normal(size=(M, param_length(spec)))
    X1 = models.model_inputs(spec, 3.0 * g.normal(size=(M, n, spec.dim)))
    y = g.integers(0, spec.class_count, size=(M, n))
    ws = models.GradientWorkspace(spec, W, n)
    ws.gradient(X1, models.one_hot(y, spec.class_count))
    assert all(getattr(ws, a, None) is None for a in ("_lse", "_best", "_hit"))
    ev = models.EvalWorkspace(spec, X1[0], y[0])
    ev.accuracy(W[0])
    assert getattr(ev, "T", None) is None
    ev.loss(W[0])
    assert ev.T.tobytes() == models.one_hot(y[:1], spec.class_count).tobytes()


def test_one_hot_rejects_labels_outside_the_classes():
    for y in ([0, 3], [-1, 0], [[1], [2]]):
        with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
            models.one_hot(np.array(y), 2)
    assert models.one_hot(np.zeros(0, int), 2).shape == (0, 2)


@pytest.mark.parametrize("c", [2, 4])
def test_one_hot_rows(c):
    # the targets every fast gradient takes: 1.0 at each label, 0.0
    # elsewhere, over any leading axes
    g = np.random.default_rng(c)
    for M, B in ((1, 1), (4, 7), (32, 40)):
        y = g.integers(0, c, size=(M, B))
        want = np.zeros((M, B, c))
        want[np.arange(M)[:, None], np.arange(B), y] = 1.0
        assert models.one_hot(y, c).tobytes() == want.tobytes()
        assert models.one_hot(y[0], c).tobytes() == want[0].tobytes()


class TestWorkspaceMatchesGradientXy:
    """A fresh GradientWorkspace is the fast path of the local step;
    gradient_xy on each vehicle in turn is its reference, and they must
    agree bitwise."""

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    @pytest.mark.parametrize("M, B", [(1, 1), (1, 20), (5, 1), (4, 7), (32, 20), (3, 33)])
    def test_rows_equal_looped_gradient_xy_bitwise(self, spec, M, B):
        g = np.random.default_rng(1000 * M + B)
        # the last weights saturate the softmax: its entries are exactly
        # 0.0 or 1.0, and the targets subtract 0.0 or 1.0 from them
        for scale in (0.5, 0.5, 0.5, 300.0):
            W = init_params(spec, seed=M) + scale * g.normal(size=(M, param_length(spec)))
            X = 3.0 * g.normal(size=(M, B, spec.dim))
            y = g.integers(0, spec.class_count, size=(M, B))
            want = np.stack([gradient_xy(spec, W[m], X[m], y[m]) for m in range(M)])
            got = models.GradientWorkspace(spec, W, B).gradient(
                models.model_inputs(spec, X), models.one_hot(y, spec.class_count))
            assert got.shape == (M, param_length(spec))
            assert np.array_equal(got, want)

    def test_gathered_batches_of_real_shards(self):
        # the engine passes fancy-index gathers of one stacked dataset
        ds = small_dataset()
        spec = SPECS[2]
        g = np.random.default_rng(4)
        rows = g.integers(0, ds.size, size=(6, 20))
        W = init_params(spec, seed=1) + 0.1 * g.normal(size=(6, param_length(spec)))
        X = models.model_inputs(spec, ds.features)
        T = models.one_hot(ds.labels[rows], spec.class_count)
        got = models.GradientWorkspace(spec, W, 20).gradient(X[rows], T)
        for m in range(6):
            want = gradient_xy(spec, W[m], ds.features[rows[m]], ds.labels[rows[m]])
            assert np.array_equal(got[m], want)

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    def test_one_row_equals_gradient_xy_at_union_shape(self, spec):
        # the recorded run's centralized descent: one row over the whole union
        g = np.random.default_rng(7)
        for n in (1280, 297):
            w = init_params(spec, seed=1) + 0.5 * g.normal(size=param_length(spec))
            X = 3.0 * g.normal(size=(n, spec.dim))
            y = g.integers(0, spec.class_count, size=n)
            T = models.one_hot(y[None], spec.class_count)
            X1 = models.model_inputs(spec, X)[None]
            got = models.GradientWorkspace(spec, w[None], n).gradient(X1, T)[0]
            assert got.tobytes() == gradient_xy(spec, w, X, y).tobytes()


class TestGradientWorkspace:
    """One workspace serves every step of a run: each call must equal
    gradient_xy on every row, bitwise, whatever earlier calls left in its
    buffers, with W updated in place between calls."""

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    @pytest.mark.parametrize("M, n", [(5, 7), (1, 20), (3, 1)])
    def test_reused_over_steps_equals_gradient_xy(self, spec, M, n):
        g = np.random.default_rng(100 * M + n)
        W = init_params(spec, seed=2) + 0.5 * g.normal(size=(M, param_length(spec)))
        ws = models.GradientWorkspace(spec, W, n)
        for step in range(64):
            X = 3.0 * g.normal(size=(M, n, spec.dim))
            y = g.integers(0, spec.class_count, size=(M, n))
            want = np.stack([gradient_xy(spec, W[m], X[m], y[m]) for m in range(M)])
            got = ws.gradient(models.model_inputs(spec, X), models.one_hot(y, spec.class_count))
            assert got is ws.g and got.tobytes() == want.tobytes(), step
            W -= 0.05 * got

    @pytest.mark.parametrize("spec", [s for s in FLEET_SPECS if s.l2_reg == 0.0],
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    def test_l2_zero_with_signed_zeros(self, spec):
        # l2_reg * W is -0.0 where W is negative or -0.0 and +0.0 elsewhere,
        # and gradient_xy adds it even when l2_reg is 0: a convex gradient
        # entry that underflows to -0.0 (the smallest subnormal feature,
        # divided by n) becomes +0.0 where W is positive, so skipping the
        # term would flip it
        g = np.random.default_rng(5)
        M, n, P = 4, 6, param_length(spec)
        W = g.normal(size=(M, P))
        W[:, ::3] = -0.0
        W[:, 1::5] = 0.0
        ws = models.GradientWorkspace(spec, W, n)
        for step in range(4):
            X = g.normal(size=(M, n, spec.dim))
            X[:, :, 0] = np.nextafter(0.0, 1.0)
            X[:, :, 1] = -0.0
            y = g.integers(0, spec.class_count, size=(M, n))
            want = np.stack([gradient_xy(spec, W[m], X[m], y[m]) for m in range(M)])
            got = ws.gradient(models.model_inputs(spec, X), models.one_hot(y, spec.class_count))
            assert got.tobytes() == want.tobytes(), step

    def test_needs_contiguous_weights(self):
        spec = SPECS[2]
        W = np.zeros((4, 2 * param_length(spec)))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            models.GradientWorkspace(spec, W, 3)


PROBE_SPECS = [s for s in FLEET_SPECS if s.is_convex]


class TestGradientProbes:
    """The divergence probes' gradients: every (probe, dataset) entry is
    the reference gradient_xy, bit for bit."""

    @pytest.mark.parametrize("spec", PROBE_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-l2{s.l2_reg}")
    @pytest.mark.parametrize("Q", [1, 3, 16])
    @pytest.mark.parametrize("G", [1, 5])
    def test_entries_equal_gradient_xy_bitwise(self, spec, Q, G):
        g = np.random.default_rng(100 * Q + G)
        n = 37
        W = g.normal(size=(Q, param_length(spec)))
        X = 3.0 * g.normal(size=(G, n, spec.dim))
        y = g.integers(0, spec.class_count, size=(G, n))
        want = np.array([[gradient_xy(spec, W[q], X[i], y[i]) for i in range(G)]
                         for q in range(Q)])
        T = models.one_hot(y, spec.class_count)
        assert models.gradient_probes(spec, W, X, T).tobytes() == want.tobytes()
        # into reused buffers, the gradients into rows of a wider array
        out = np.full((Q, G + 2, param_length(spec)), np.nan)
        residual = np.empty((Q, G, n, spec.class_count))
        got = models.gradient_probes(spec, W, X, T, out=out[:, 1:G + 1], residual=residual)
        assert got.base is out and out[:, 1:G + 1].tobytes() == want.tobytes()
        assert np.isnan(out[:, [0, -1]]).all()

    @pytest.mark.parametrize("spec", PROBE_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-l2{s.l2_reg}")
    def test_strided_residual_rejected(self, spec):
        # a strided score buffer would take the softmax on a copy, leaving
        # raw products behind
        W = np.ones((2, param_length(spec)))
        X, T = np.ones((3, 5, spec.dim)), np.zeros((3, 5, spec.class_count))
        residual = np.empty((2, 3, 5, spec.class_count + 1))[..., :spec.class_count]
        with pytest.raises(ValueError, match="residual"):
            models.gradient_probes(spec, W, X, T, residual=residual)

    def test_non_convex_rejected(self):
        spec = SPECS[2]
        with pytest.raises(UnsupportedModelError):
            models.gradient_probes(spec, np.zeros((1, param_length(spec))),
                                   np.zeros((1, 4, spec.dim)),
                                   np.zeros((1, 4, spec.class_count)))


class TestConstants:
    def test_identity_features_beta_is_one(self):
        ds = datasets.LabeledDataset(np.array([[1.0]]), np.array([2]), class_count=3)
        spec = ModelSpec(QUADRATIC, dim=1, class_count=3, l2_reg=0.0)
        assert estimate_constants(spec, ds) == pytest.approx(1.0, abs=1e-8)

    def test_beta_matches_top_singular_value(self):
        # an oracle independent of the eigendecomposition: lmax(X'X/n) = s_max(X)^2/n
        ds = small_dataset(C=3, d=8, n_per=50, seed=8)
        spec = ModelSpec(QUADRATIC, dim=8, class_count=3, l2_reg=0.0)
        lam = np.linalg.svd(ds.features, compute_uv=False)[0] ** 2 / ds.size
        assert estimate_constants(spec, ds) == pytest.approx(lam, rel=1e-12)

    def test_l2_shifts_beta_exactly(self):
        ds = small_dataset()
        b0 = estimate_constants(ModelSpec(QUADRATIC, dim=6, class_count=4), ds)
        b1 = estimate_constants(ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=0.7), ds)
        assert b1 - b0 == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.family)
    def test_beta_bounds_gradient_lipschitz(self, spec):
        ds = small_dataset()
        beta = estimate_constants(spec, ds)
        X, y = ds.features, ds.labels
        g = np.random.default_rng(12)
        for _ in range(100):
            w1 = 0.5 * g.normal(size=param_length(spec))
            w2 = 0.5 * g.normal(size=param_length(spec))
            lhs = np.linalg.norm(gradient_xy(spec, w1, X, y) - gradient_xy(spec, w2, X, y))
            assert lhs <= beta * np.linalg.norm(w1 - w2) * (1 + 1e-9)

    @pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s.family)
    def test_convexity_witness(self, spec):
        ds = small_dataset()
        g = np.random.default_rng(13)
        for _ in range(100):
            w1 = 0.7 * g.normal(size=param_length(spec))
            w2 = 0.7 * g.normal(size=param_length(spec))
            mid = loss(spec, 0.5 * (w1 + w2), ds)
            assert mid <= 0.5 * loss(spec, w1, ds) + 0.5 * loss(spec, w2, ds) + 1e-12

    def test_mlp_rejected(self):
        ds = small_dataset()
        spec = ModelSpec(MLP1, dim=6, class_count=4, hidden_width=5)
        with pytest.raises(UnsupportedModelError):
            estimate_constants(spec, ds)
        with pytest.raises(UnsupportedModelError):
            solve_optimum(spec, ds)


class TestSolveOptimum:
    def test_one_dimensional_interpolation(self):
        # one sample of class 2 with feature 1: the optimum is its one-hot row
        ds = datasets.LabeledDataset(np.array([[1.0]]), np.array([2]), class_count=3)
        spec = ModelSpec(QUADRATIC, dim=1, class_count=3, l2_reg=0.0)
        opt = solve_optimum(spec, ds)
        assert opt.w == pytest.approx([0.0, 0.0, 1.0])
        assert opt.value == pytest.approx(0.0, abs=1e-15)

    def test_gradient_residual_contract(self):
        ds = small_dataset()
        for spec in SPECS[:2]:
            opt = solve_optimum(spec, ds)
            assert np.linalg.norm(gradient_xy(spec, opt.w, ds.features, ds.labels)) <= 1e-8

    def test_logistic_beats_uniform_on_separable_data(self):
        feats = np.vstack([np.full((20, 2), -2.0), np.full((20, 2), 2.0)])
        labels = np.array([0] * 20 + [1] * 20)
        ds = datasets.LabeledDataset(feats, labels, 2)
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=2, class_count=2, l2_reg=0.1)
        opt = solve_optimum(spec, ds)
        assert opt.value < np.log(2)

    def test_logistic_without_l2_raises_before_any_step(self):
        # separable data leaves the logistic loss without a minimizer, where
        # the descent would run to its step cap
        ds = datasets.generate_synthetic(2, 2, 50, 8.0, seed=1)
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=2, class_count=2, l2_reg=0.0)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^l2_reg = 0 leaves the multinomial_logistic "
                                             "loss without a minimizer on separable data; "
                                             "the optimum needs l2_reg > 0$"):
            solve_optimum(spec, ds)
        assert time.perf_counter() - t0 < 1.0

    def test_singular_min_norm_flagged(self):
        feats = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1
        ds = datasets.LabeledDataset(feats, np.array([0, 1]), 2)
        spec = ModelSpec(QUADRATIC, dim=2, class_count=2, l2_reg=0.0)
        opt = solve_optimum(spec, ds)
        assert opt.min_norm_fallback


@pytest.mark.parametrize("C", [4, 8])  # from 8 classes up numpy's own sums
def test_logistic_optimum_takes_no_gradient_xy(monkeypatch, C):
    # the descent runs on a workspace row, bit for bit the reference
    # descent w - step * gradient_xy(w), which the test takes first
    ds = small_dataset(C=C)
    spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=C, l2_reg=0.05)
    step = 1.0 / estimate_constants(spec, ds)
    w = np.zeros(param_length(spec))
    while np.linalg.norm(g := gradient_xy(spec, w, ds.features, ds.labels)) > 1e-8:
        w = w - step * g

    def refuse(*args):
        raise AssertionError("gradient_xy is the oracle only")

    monkeypatch.setattr(models, "gradient_xy", refuse)
    opt = solve_optimum(spec, ds)
    assert opt.w.tobytes() == w.tobytes()
    assert opt.value == loss(spec, w, ds)


class TestHypothesisProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0))
    def test_gradient_linearity_over_splits(self, seed, lam):
        ds = small_dataset(seed=1)
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=lam)
        g = np.random.default_rng(seed)
        w = 0.4 * g.normal(size=param_length(spec))
        cut = int(g.integers(1, ds.size - 1))
        a, b = ds.subset(np.arange(cut)), ds.subset(np.arange(cut, ds.size))
        combined = (cut * gradient_xy(spec, w, a.features, a.labels)
                    + (ds.size - cut) * gradient_xy(spec, w, b.features, b.labels)
                    ) / ds.size
        assert np.allclose(combined, gradient_xy(spec, w, ds.features, ds.labels), atol=1e-12)


class TestWireFormat:
    def test_round_trip(self):
        w = np.random.default_rng(3).normal(size=17)
        buf = io.BytesIO()
        write_param_vector(buf, w)
        buf.seek(0)
        back = read_param_vector(buf)
        assert np.array_equal(w, back)

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_param_vector(buf, np.ones(4))
        raw = buf.getvalue()[:-3]
        with pytest.raises(IOError):
            read_param_vector(io.BytesIO(raw))

    def test_truncated_header(self):
        with pytest.raises(IOError, match="truncated parameter vector header"):
            read_param_vector(io.BytesIO(b"\x04\x00\x00"))
