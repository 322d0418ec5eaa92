import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import datasets, models, rng
from hflsim.datasets import (
    EDGE_NONIID, IID, LOCAL_NONIID,
    CsvFormatError, InfeasiblePartitionError, LabeledDataset,
    generate_synthetic, load_csv, partition, shared_input_shards,
    train_test_split, union_of_shards,
)


def write_csv(dataset, path):
    """Write a dataset in the load_csv format (floats round-trip exactly)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        for x, y in zip(dataset.features, dataset.labels):
            w.writerow([repr(float(v)) for v in x] + [int(y)])


def multiset_equal(a, b):
    """Sample multiset equality, ignoring order."""
    if a.features.shape != b.features.shape:
        return False
    rows_a = np.lexsort(np.column_stack([a.features, a.labels]).T)
    rows_b = np.lexsort(np.column_stack([b.features, b.labels]).T)
    return (np.array_equal(a.features[rows_a], b.features[rows_b])
            and np.array_equal(a.labels[rows_a], b.labels[rows_b]))


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        ds = generate_synthetic(8, 16, 500, 4.0, seed=1)
        assert ds.size == 4000 and ds.dim == 16 and ds.class_count == 8
        assert np.array_equal(np.sort(np.unique(ds.labels)), np.arange(8))
        assert np.all(ds.label_histogram() == 500)

    def test_two_point_separation(self):
        ds = generate_synthetic(2, 2, 1, 10.0, seed=7)
        d = np.linalg.norm(ds.features[0] - ds.features[1])
        # means are exactly 10 apart; unit noise moves the pair a little
        assert d >= 7.0
        assert set(ds.labels.tolist()) == {0, 1}

    def test_determinism(self):
        a = generate_synthetic(8, 16, 500, 4.0, seed=1)
        b = generate_synthetic(8, 16, 500, 4.0, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_min_pairwise_mean_distance(self):
        ds = generate_synthetic(6, 4, 200, 5.0, seed=3)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(6)])
        dists = [np.linalg.norm(means[i] - means[j])
                 for i in range(6) for j in range(i + 1, 6)]
        # empirical means sit near the true means, which are >= 5 apart
        assert min(dists) > 3.5

    def test_centralized_logistic_reaches_90pct(self):
        # oracle: full-batch descent to the optimum on the generated task
        ds = generate_synthetic(8, 16, 500, 4.0, seed=1)
        spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=16, class_count=8,
                                l2_reg=1e-3)
        opt = models.solve_optimum(spec, ds, grad_tol=1e-6)
        assert models.accuracy(spec, opt.w, ds.features, ds.labels) >= 0.90

    def test_clusters_per_class(self):
        ds = generate_synthetic(4, 8, 500, 4.0, seed=1, clusters_per_class=2)
        assert ds.size == 2000 and ds.class_count == 4
        assert np.all(ds.label_histogram() == 500)

    def test_layout_matches_sample_by_sample_construction(self):
        # oracle: each class's clusters dealt their samples one list entry
        # at a time, the first clusters taking the remainder of an uneven split
        def oracle(class_count, dim, samples_per_class, separation, seed, clusters_per_class):
            g = rng.stream(seed, rng.SYNTHETIC_DATA)
            n_clusters = class_count * clusters_per_class
            means = g.normal(size=(n_clusters, dim))
            diffs = means[:, None, :] - means[None, :, :]
            dist = np.sqrt((diffs ** 2).sum(axis=2))
            means *= separation / dist[np.triu_indices(n_clusters, k=1)].min()
            cluster_of = np.arange(n_clusters) % class_count
            labels, assignments = [], []
            for c in range(class_count):
                own = np.flatnonzero(cluster_of == c)
                counts = np.array_split(np.empty(samples_per_class), clusters_per_class)
                for cl, chunk in zip(own, counts):
                    assignments.extend([cl] * len(chunk))
                    labels.extend([c] * len(chunk))
            assignments = np.array(assignments)
            labels = np.array(labels, dtype=np.int64)
            return means[assignments] + g.normal(size=(labels.size, dim)), labels

        for args in itertools.product((2, 3, 4, 8), (3,), (1, 5, 40, 501), (2.0,), (1, 9),
                                      (1, 2, 3, 7)):
            ds = generate_synthetic(*args)
            features, labels = oracle(*args)
            assert ds.features.dtype == features.dtype and ds.labels.dtype == labels.dtype
            assert ds.features.tobytes() == features.tobytes(), args
            assert ds.labels.tobytes() == labels.tobytes(), args

    @pytest.mark.parametrize("kwargs", [
        dict(class_count=1), dict(dim=1), dict(samples_per_class=0),
        dict(separation=0.0), dict(clusters_per_class=0),
    ])
    def test_parameter_errors(self, kwargs):
        base = dict(class_count=4, dim=8, samples_per_class=10, separation=2.0,
                    seed=0, clusters_per_class=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            generate_synthetic(**base)


class TestPartition:
    def test_edge_noniid_class_locality(self):
        ds = generate_synthetic(8, 16, 500, 4.0, seed=1)
        shards = partition(ds, EDGE_NONIID, vehicle_count=32, edge_count=4,
                           classes_per_unit=2, seed=3)
        per_edge = {}
        for m, s in enumerate(shards):
            # vehicle m holds edge m // (M // N)'s data, classes 2n and 2n + 1
            n = m // 8
            assert set(s.labels.tolist()) <= {2 * n, 2 * n + 1}
            per_edge.setdefault(n, set()).update(s.labels.tolist())
        assert all(len(labs) == 2 for labs in per_edge.values())
        covered = set().union(*per_edge.values())
        assert covered == set(range(8))

    def test_iid_single_vehicle_degenerate(self):
        ds = generate_synthetic(4, 4, 25, 2.0, seed=2)
        shards = partition(ds, IID, vehicle_count=1, edge_count=1, seed=0)
        assert len(shards) == 1
        assert multiset_equal(shards[0], ds)

    def test_local_noniid_40000_sample_recount(self):
        # 40000/32 = 1250 samples per shard, one label each at l=1
        ds = generate_synthetic(8, 4, 5000, 3.0, seed=5)
        shards = partition(ds, LOCAL_NONIID, vehicle_count=32, edge_count=4,
                           classes_per_unit=1, seed=6)
        assert all(s.size == 1250 for s in shards)
        assert all(len(np.unique(s.labels)) == 1 for s in shards)

    def test_iid_statistical_balance(self):
        ds = generate_synthetic(4, 4, 2000, 3.0, seed=7)
        shards = partition(ds, IID, vehicle_count=8, edge_count=4, seed=8)
        global_frac = ds.label_histogram() / ds.size
        for s in shards:
            assert s.size >= 500
            frac = s.label_histogram() / s.size
            assert np.max(np.abs(frac - global_frac)) <= 0.05

    @settings(max_examples=25, deadline=None)
    @given(regime=st.sampled_from([IID, LOCAL_NONIID, EDGE_NONIID]),
           seed=st.integers(0, 1000))
    def test_partition_is_exact(self, regime, seed):
        ds = generate_synthetic(4, 3, 64, 3.0, seed=11)
        shards = partition(ds, regime, vehicle_count=8, edge_count=4,
                           classes_per_unit=1 if regime == EDGE_NONIID else 2,
                           seed=seed)
        assert len(shards) == 8
        assert multiset_equal(union_of_shards(shards), ds)
        if regime == EDGE_NONIID:
            # one class per edge: vehicle m holds edge m // 2's, class m // 2
            assert [set(s.labels.tolist()) for s in shards] == [{m // 2} for m in range(8)]

    def test_determinism(self):
        ds = generate_synthetic(4, 4, 100, 3.0, seed=1)
        spec = dict(regime=EDGE_NONIID, vehicle_count=8, edge_count=4,
                    classes_per_unit=1, seed=9)
        a = partition(ds, **spec)
        b = partition(ds, **spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_local_truncation_drops_from_largest_class(self):
        # 10 + 7 samples, 4 vehicles, l=1: blocks of (17 - 17 % 4)/4
        feats = np.arange(34, dtype=float).reshape(17, 2)
        labels = np.array([0] * 10 + [1] * 7)
        ds = LabeledDataset(feats, labels, 2)
        shards = partition(ds, LOCAL_NONIID, vehicle_count=4, edge_count=1,
                           classes_per_unit=1, seed=0)
        total = sum(s.size for s in shards)
        assert total == 16
        kept = union_of_shards(shards)
        hist = kept.label_histogram()
        assert hist[0] == 9 and hist[1] == 7  # one sample dropped from class 0

    def test_infeasible_errors(self):
        ds = generate_synthetic(8, 4, 16, 3.0, seed=0)
        with pytest.raises(InfeasiblePartitionError):
            partition(ds, EDGE_NONIID, vehicle_count=8, edge_count=4,
                      classes_per_unit=1, seed=0)
        with pytest.raises(InfeasiblePartitionError):
            partition(ds, LOCAL_NONIID, vehicle_count=4, edge_count=4,
                      classes_per_unit=1, seed=0)
        with pytest.raises(InfeasiblePartitionError):
            partition(ds, EDGE_NONIID, vehicle_count=6, edge_count=4,
                      classes_per_unit=2, seed=0)

    def test_edge_pool_smaller_than_its_vehicles(self):
        # 4 samples of class 0 on edge 0, which is home to 8 vehicles
        ds = generate_synthetic(4, 4, 4, 3.0, seed=0)
        with pytest.raises(InfeasiblePartitionError,
                           match="edge 0 pool too small to cover its vehicles"):
            partition(ds, EDGE_NONIID, vehicle_count=32, edge_count=4,
                      classes_per_unit=1, seed=0)

    def test_classes_per_unit_checked_for_every_regime(self):
        # iid ignores classes_per_unit, but a config file cannot set it to
        # 0, and neither can partition's caller
        ds = generate_synthetic(4, 4, 4, 3.0, seed=0)
        with pytest.raises(ValueError, match="classes_per_unit must be >= 1"):
            partition(ds, IID, vehicle_count=4, edge_count=4, classes_per_unit=0)

    def test_edges_checked_for_every_regime(self):
        ds = generate_synthetic(4, 4, 4, 3.0, seed=0)
        with pytest.raises(InfeasiblePartitionError, match="edges must be >= 1"):
            partition(ds, IID, vehicle_count=4, edge_count=0)

    def test_partial_class_coverage_flag(self):
        ds = generate_synthetic(8, 4, 16, 3.0, seed=0)
        shards = partition(ds, EDGE_NONIID, vehicle_count=8, edge_count=4,
                           classes_per_unit=1, seed=0,
                           allow_partial_class_coverage=True)
        labels = set(union_of_shards(shards).labels.tolist())
        assert labels == {0, 1, 2, 3}  # surplus classes dropped
        # edge n keeps class n, and vehicle m holds edge m // 2's data
        assert [set(s.labels.tolist()) for s in shards] == [{m // 2} for m in range(8)]


class TestSharedInput:
    def test_structure(self):
        shards = shared_input_shards(8, 4, 1, 4, 10, 3, seed=2)
        X = shards[0].features
        assert all(np.array_equal(s.features, X) for s in shards)
        for m, s in enumerate(shards):
            # vehicle m draws its labels from edge m // 2's one class
            assert set(s.labels.tolist()) <= {m // 2}

    def test_vehicle_count_must_divide(self):
        with pytest.raises(ValueError):
            shared_input_shards(6, 4, 1, 4, 10, 3, seed=2)

    @pytest.mark.parametrize("classes, dim, rule", [(1, 3, "classes must be >= 2"),
                                                    (4, 1, "dim must be >= 2")])
    def test_generated_shape_rules(self, classes, dim, rule):
        # the rules generate_synthetic has on the same two values
        with pytest.raises(ValueError, match=rule):
            shared_input_shards(8, 4, 1, classes, 10, dim, seed=2)
        with pytest.raises(ValueError, match=rule):
            generate_synthetic(classes, dim, 10, 3.0, seed=2)


class TestCsv:
    def test_three_row_readback(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n0.5,0.1,1\n2.2,3.3,0\n")
        ds = load_csv(p)
        assert ds.size == 3 and ds.dim == 2 and ds.class_count == 2
        assert np.allclose(ds.features[2], [2.2, 3.3])

    def test_negative_label_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,0\n2.0,-1\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(p)

    def test_bad_feature_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,0\nxyz,1\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(p)

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 5, 20, 2.0, seed=4)
        p = tmp_path / "d.csv"
        write_csv(ds, p)
        back = load_csv(p)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)


class TestTrainTestSplit:
    def test_split_sizes_and_balance(self):
        ds = generate_synthetic(4, 4, 100, 3.0, seed=1)
        train, test = train_test_split(ds, 0.2, seed=2)
        assert train.size == 320 and test.size == 80
        assert np.all(train.label_histogram() == 80)
        assert np.all(test.label_histogram() == 20)

    def test_disjoint_and_exact(self):
        ds = generate_synthetic(3, 4, 50, 3.0, seed=1)
        train, test = train_test_split(ds, 0.25, seed=2)
        both = LabeledDataset(
            np.concatenate([train.features, test.features]),
            np.concatenate([train.labels, test.labels]), 3)
        assert multiset_equal(both, ds)
