import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import datasets, models
from hflsim.models import (
    MLP1, MULTINOMIAL_LOGISTIC, QUADRATIC,
    ModelSpec, UnsupportedModelError, estimate_constants, gradient, gradient_fleet,
    gradient_xy, init_params, loss, param_length, read_param_vector, solve_optimum,
    write_param_vector,
)


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
        T = np.zeros((ds.n_samples, 4))
        T[np.arange(ds.n_samples), ds.labels] = 1.0
        W, _, _, _ = np.linalg.lstsq(ds.features, T, rcond=None)
        w = W.ravel()
        R = ds.features @ W - T
        expected = 0.5 * np.sum(R * R) / ds.n_samples
        assert loss(spec, w, ds) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.norm(gradient(spec, w, ds)) <= 1e-10

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


class TestGradient:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_finite_difference_per_coordinate(self, spec):
        # central differences on 20 random (w, sample) pairs
        ds = small_dataset()
        g = np.random.default_rng(5)
        for trial in range(20):
            w = init_params(spec, seed=trial) + 0.3 * g.normal(size=param_length(spec))
            i = int(g.integers(0, ds.n_samples))
            sample = ds.subset(np.array([i]))
            anal = gradient(spec, w, sample)
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
            anal = float(gradient(spec, w, ds) @ d)
            assert num == pytest.approx(anal, rel=1e-4, abs=1e-8)

    def test_union_batch_is_weighted_average(self):
        ds = small_dataset()
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=4, l2_reg=0.07)
        w = rand_params(spec, seed=9, scale=0.5)
        a = ds.subset(np.arange(0, 40))
        b = ds.subset(np.arange(40, ds.n_samples))
        g_union = gradient(spec, w, ds)
        g_avg = (a.n_samples * gradient(spec, w, a)
                 + b.n_samples * gradient(spec, w, b)) / ds.n_samples
        assert np.max(np.abs(g_union - g_avg)) <= 1e-12

    def test_quadratic_zero_at_closed_form_optimum(self):
        ds = small_dataset()
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=0.3)
        opt = solve_optimum(spec, ds)
        assert np.linalg.norm(gradient(spec, opt.w, ds)) <= 1e-10


FLEET_SPECS = SPECS + [
    ModelSpec(QUADRATIC, dim=6, class_count=1, l2_reg=0.2),        # scalar regression
    ModelSpec(QUADRATIC, dim=6, class_count=4),
    ModelSpec(MLP1, dim=6, class_count=2, hidden_width=1),          # single hidden unit
    # from 8 classes up numpy sums the class axis pairwise
    ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=8, l2_reg=0.05),
    ModelSpec(MULTINOMIAL_LOGISTIC, dim=6, class_count=10),
    ModelSpec(MLP1, dim=6, class_count=10, l2_reg=0.01, hidden_width=16),
    ModelSpec(MLP1, dim=6, class_count=4, hidden_width=1),          # a pairwise batch sum
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
    """The class-axis and batch-axis helpers reproduce numpy's reductions
    bit for bit, in whichever order numpy adds at each length."""

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

    @pytest.mark.parametrize("M, B, k", [(1, 1, 1), (1, 20, 1), (5, 20, 1), (5, 20, 4),
                                         (1, 20, 16), (32, 20, 16), (3, 33, 2)])
    def test_batch_sum_equals_numpy(self, M, B, k):
        g = np.random.default_rng(M * B * k)
        for A in (g.normal(size=(M, B, k)), np.full((M, B, k), -0.0),
                  short_axis_values(g, (M, B, k))):
            with np.errstate(over="ignore", invalid="ignore"):
                got = models._batch_sum(A)
                assert got.tobytes() == A.sum(axis=1).tobytes()
                assert got.tobytes() == np.stack([a.sum(axis=0) for a in A]).tobytes()


def parent_loss_xy(spec, w, X, y):
    """loss_xy of the cross-entropy families, written with numpy's own
    reductions: the reference for the helpers' order."""
    n = X.shape[0]
    if spec.family == MLP1:
        W1, b1, W2, b2 = models._mlp_unpack(spec, w)
        logits = np.tanh(X @ W1 + b1) @ W2 + b2
    else:
        logits = X @ w.reshape(spec.dim, spec.class_count)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    return float((lse - logits[np.arange(n), y]).mean()) + 0.5 * spec.l2_reg * float(w @ w)


@pytest.mark.parametrize("c", [2, 4, 7, 8, 10])
@pytest.mark.parametrize("family", [MULTINOMIAL_LOGISTIC, MLP1])
def test_loss_xy_equals_numpy_reductions(family, c):
    spec = ModelSpec(family, dim=5, class_count=c, l2_reg=0.03,
                     hidden_width=7 if family == MLP1 else 0)
    g = np.random.default_rng(c)
    for n in (1, 9, 40):
        for _ in range(5):
            w = 2.0 * g.normal(size=param_length(spec))
            X = 3.0 * g.normal(size=(n, spec.dim))
            y = g.integers(0, c, size=n)
            assert models.loss_xy(spec, w, X, y).hex() == parent_loss_xy(spec, w, X, y).hex()


class TestGradientFleet:
    """gradient_fleet is the fast path of the local step; gradient_xy on
    each vehicle in turn is its reference, and they must agree bitwise."""

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    @pytest.mark.parametrize("M, B", [(1, 1), (1, 20), (5, 1), (4, 7), (32, 20), (3, 33)])
    def test_rows_equal_looped_gradient_xy_bitwise(self, spec, M, B):
        g = np.random.default_rng(1000 * M + B)
        for _ in range(3):
            W = init_params(spec, seed=M) + 0.5 * g.normal(size=(M, param_length(spec)))
            X = 3.0 * g.normal(size=(M, B, spec.dim))
            if spec.class_count == 1:
                y = g.integers(-3, 4, size=(M, B))
            else:
                y = g.integers(0, spec.class_count, size=(M, B))
            want = np.stack([gradient_xy(spec, W[m], X[m], y[m]) for m in range(M)])
            got = gradient_fleet(spec, W, X, y)
            assert got.shape == (M, param_length(spec))
            assert np.array_equal(got, want)

    def test_gathered_batches_of_real_shards(self):
        # the engine passes fancy-index gathers of one stacked dataset
        ds = small_dataset()
        spec = SPECS[2]
        g = np.random.default_rng(4)
        rows = g.integers(0, ds.n_samples, size=(6, 20))
        W = init_params(spec, seed=1) + 0.1 * g.normal(size=(6, param_length(spec)))
        got = gradient_fleet(spec, W, ds.features[rows], ds.labels[rows])
        for m in range(6):
            assert np.array_equal(got[m], gradient(spec, W[m], ds.subset(rows[m])))

    @pytest.mark.parametrize("spec", [s for s in FLEET_SPECS if s.family == QUADRATIC],
                             ids=lambda s: f"C{s.class_count}-l2{s.l2_reg}")
    def test_targets_given_equal_targets_built(self, spec):
        g = np.random.default_rng(spec.class_count)
        for M, B in ((1, 1), (4, 7), (32, 40)):
            W = g.normal(size=(M, param_length(spec)))
            X = 3.0 * g.normal(size=(M, B, spec.dim))
            y = g.integers(-3, 4, size=(M, B)) if spec.class_count == 1 else \
                g.integers(0, spec.class_count, size=(M, B))
            T = models.quadratic_targets(spec, y)
            want = np.zeros((M, B, spec.class_count))
            if spec.class_count == 1:
                want[..., 0] = y
            else:
                want[np.arange(M)[:, None], np.arange(B), y] = 1.0
            assert T.tobytes() == want.tobytes()
            assert gradient_fleet(spec, W, X, y, targets=T).tobytes() == \
                gradient_fleet(spec, W, X, y).tobytes()
            # the probes tile the targets as they tile the datasets
            for Q in (1, 3):
                assert models.gradient_probes(spec, W[:Q], X, y, targets=T).tobytes() == \
                    models.gradient_probes(spec, W[:Q], X, y).tobytes()
        assert models.quadratic_targets(SPECS[1], y) is None

    @pytest.mark.parametrize("spec", FLEET_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-h{s.hidden_width}")
    def test_one_row_equals_gradient_xy_at_union_shape(self, spec):
        # the recorded run's centralized descent: one row over the whole union
        g = np.random.default_rng(7)
        for n in (1280, 297):
            w = init_params(spec, seed=1) + 0.5 * g.normal(size=param_length(spec))
            X = 3.0 * g.normal(size=(n, spec.dim))
            y = g.integers(-3, 4, size=n) if spec.class_count == 1 else \
                g.integers(0, spec.class_count, size=n)
            T = models.quadratic_targets(spec, y[None])
            got = gradient_fleet(spec, w[None], X[None], y[None], targets=T)[0]
            assert got.tobytes() == gradient_xy(spec, w, X, y).tobytes()

    def test_shape_mismatch_rejected(self):
        spec = SPECS[0]
        with pytest.raises(ValueError):
            gradient_fleet(spec, np.zeros((2, param_length(spec))),
                           np.zeros((3, 4, spec.dim)), np.zeros((3, 4), dtype=int))


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
        y = g.integers(-3, 4, size=(G, n)) if spec.class_count == 1 else \
            g.integers(0, spec.class_count, size=(G, n))
        want = np.array([[gradient_xy(spec, W[q], X[i], y[i]) for i in range(G)]
                         for q in range(Q)])
        T = models.quadratic_targets(spec, y)
        assert models.gradient_probes(spec, W, X, y).tobytes() == want.tobytes()
        assert models.gradient_probes(spec, W, X, y, targets=T).tobytes() == want.tobytes()
        # into reused buffers, the gradients into rows of a wider array
        out = np.full((Q, G + 2, param_length(spec)), np.nan)
        residual = np.empty((Q, G, n, spec.class_count))
        got = models.gradient_probes(spec, W, X, y, targets=T, out=out[:, 1:G + 1],
                                     residual=residual)
        assert got.base is out and out[:, 1:G + 1].tobytes() == want.tobytes()
        assert np.isnan(out[:, [0, -1]]).all()

    @pytest.mark.parametrize("spec", PROBE_SPECS,
                             ids=lambda s: f"{s.family}-C{s.class_count}-l2{s.l2_reg}")
    def test_strided_residual_rejected(self, spec):
        # a strided score buffer would take the softmax and the label
        # entries on a copy, leaving raw products behind
        W = np.ones((2, param_length(spec)))
        X, y = np.ones((3, 5, spec.dim)), np.zeros((3, 5), dtype=int)
        residual = np.empty((2, 3, 5, spec.class_count + 1))[..., :spec.class_count]
        with pytest.raises(ValueError, match="residual"):
            models.gradient_probes(spec, W, X, y, residual=residual)

    def test_non_convex_rejected(self):
        spec = SPECS[2]
        with pytest.raises(UnsupportedModelError):
            models.gradient_probes(spec, np.zeros((1, param_length(spec))),
                                   np.zeros((1, 4, spec.dim)), np.zeros((1, 4), dtype=int))


class TestConstants:
    def test_identity_features_beta_is_one(self):
        ds = datasets.LabeledDataset(np.array([[1.0]]), np.array([2]), class_count=1)
        spec = ModelSpec(QUADRATIC, dim=1, class_count=1, l2_reg=0.0)
        assert estimate_constants(spec, ds) == pytest.approx(1.0, abs=1e-8)

    def test_beta_matches_top_singular_value(self):
        # an oracle independent of the eigendecomposition: lmax(X'X/n) = s_max(X)^2/n
        ds = small_dataset(C=3, d=8, n_per=50, seed=8)
        spec = ModelSpec(QUADRATIC, dim=8, class_count=3, l2_reg=0.0)
        lam = np.linalg.svd(ds.features, compute_uv=False)[0] ** 2 / ds.n_samples
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
        g = np.random.default_rng(12)
        for _ in range(100):
            w1 = 0.5 * g.normal(size=param_length(spec))
            w2 = 0.5 * g.normal(size=param_length(spec))
            lhs = np.linalg.norm(gradient(spec, w1, ds) - gradient(spec, w2, ds))
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
        ds = datasets.LabeledDataset(np.array([[1.0]]), np.array([2]), class_count=1)
        spec = ModelSpec(QUADRATIC, dim=1, class_count=1, l2_reg=0.0)
        opt = solve_optimum(spec, ds)
        assert opt.w == pytest.approx([2.0])
        assert opt.value == pytest.approx(0.0, abs=1e-15)

    def test_gradient_residual_contract(self):
        ds = small_dataset()
        for spec in SPECS[:2]:
            opt = solve_optimum(spec, ds)
            assert np.linalg.norm(gradient(spec, opt.w, ds)) <= 1e-8

    def test_logistic_beats_uniform_on_separable_data(self):
        feats = np.vstack([np.full((20, 2), -2.0), np.full((20, 2), 2.0)])
        labels = np.array([0] * 20 + [1] * 20)
        ds = datasets.LabeledDataset(feats, labels, 2)
        spec = ModelSpec(MULTINOMIAL_LOGISTIC, dim=2, class_count=2, l2_reg=0.1)
        opt = solve_optimum(spec, ds)
        assert opt.value < np.log(2)

    def test_singular_min_norm_flagged(self):
        feats = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1
        ds = datasets.LabeledDataset(feats, np.array([0, 1]), 2)
        spec = ModelSpec(QUADRATIC, dim=2, class_count=2, l2_reg=0.0)
        opt = solve_optimum(spec, ds)
        assert opt.min_norm_fallback


class TestHypothesisProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0))
    def test_gradient_linearity_over_splits(self, seed, lam):
        ds = small_dataset(seed=1)
        spec = ModelSpec(QUADRATIC, dim=6, class_count=4, l2_reg=lam)
        g = np.random.default_rng(seed)
        w = 0.4 * g.normal(size=param_length(spec))
        cut = int(g.integers(1, ds.n_samples - 1))
        a, b = ds.subset(np.arange(cut)), ds.subset(np.arange(cut, ds.n_samples))
        combined = (cut * gradient(spec, w, a)
                    + (ds.n_samples - cut) * gradient(spec, w, b)) / ds.n_samples
        assert np.allclose(combined, gradient(spec, w, ds), atol=1e-12)


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
