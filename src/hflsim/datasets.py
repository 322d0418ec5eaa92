"""Labeled datasets and their split into per-vehicle shards.

A shard list is a list of LabeledDataset indexed by vehicle id: a
vehicle's id is its place in the list. Three partition regimes are
supported: uniform (iid), label-skewed per vehicle (local_noniid) and
label-skewed per edge region (edge_noniid). Partitions are exact: the
multiset of samples across shards equals the (possibly truncated) parent
dataset.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import rng

IID = "iid"
LOCAL_NONIID = "local_noniid"
EDGE_NONIID = "edge_noniid"
REGIMES = (IID, LOCAL_NONIID, EDGE_NONIID)


class InfeasiblePartitionError(ValueError):
    """The requested regime cannot cover the dataset's classes."""


class CsvFormatError(ValueError):
    """Malformed dataset file; message names the offending row."""


class DegenerateDataError(ValueError):
    """The data a config's values drew, split or measured cannot serve the
    run, which validate cannot see before the data exists."""


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] == 0 or self.features.shape[1] == 0:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the sample count")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")

    @property
    def size(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, idx):
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_count)

    def label_histogram(self):
        return np.bincount(self.labels, minlength=self.class_count)


def partition_problems(regime, vehicle_count, edge_count, classes_per_unit,
                       allow_partial_class_coverage=False, class_count=None, shared_input=False):
    """Every rule a partition's values break: on the counts alone (regime,
    vehicles, edges, classes_per_unit), then whether the regime, or shared
    input (which ignores it), fits the edges and covers the classes. A
    class_count of None, a CSV's before loading, skips the rules on it."""
    M, N, l, C = vehicle_count, edge_count, classes_per_unit, class_count
    p = [m for broken, m in (
        (regime not in REGIMES, f"regime must be one of {REGIMES}"),
        (M < 1, "vehicles must be >= 1"),
        (N < 1, "edges must be >= 1"),
        (l < 1, "classes_per_unit must be >= 1")) if broken]
    # edge-skewed vehicles split evenly over the edges (home_edges)
    if N >= 1 and edge_skewed(regime, shared_input) and M % N != 0:
        p.append(f"vehicles must be divisible by edges ({M} % {N})")
    if C is None:
        return p
    if regime == LOCAL_NONIID and not shared_input and l * M < C:
        p.append(f"local_noniid needs classes_per_unit*vehicles >= classes ({l}*{M} < {C})")
    if l * N < C:
        # the shared-input construction gives every class to some edge,
        # whatever the regime; the partial-coverage flag is edge_noniid's
        if shared_input:
            p.append(f"shared_input needs classes_per_unit*edges >= classes "
                     f"({l}*{N} < {C}); allow_partial_class_coverage does not apply to it")
        elif regime == EDGE_NONIID and not allow_partial_class_coverage:
            p.append(f"edge_noniid needs classes_per_unit*edges >= classes "
                     f"({l}*{N} < {C}); set allow_partial_class_coverage to override")
    if (regime != IID or shared_input) and l > C:
        p.append(f"classes_per_unit exceeds classes ({l} > {C})")
    return p


def shape_problems(classes, dim):
    """Every rule a generated dataset's class count and dimension break:
    generate_synthetic's and shared_input_shards' values."""
    return [m for broken, m in (
        (classes < 2, "classes must be >= 2"), (dim < 2, "dim must be >= 2")) if broken]


def synthetic_problems(classes, dim, samples_per_class, separation, clusters_per_class):
    """Every rule generate_synthetic's values break."""
    return shape_problems(classes, dim) + [m for broken, m in (
        (samples_per_class < 1, "samples_per_class must be >= 1"),
        (separation <= 0, "separation must be > 0"),
        (clusters_per_class < 1, "clusters_per_class must be >= 1")) if broken]


def split_problems(test_fraction):
    """The rule train_test_split's test_fraction breaks, if any."""
    return [] if 0.0 < test_fraction < 1.0 else ["test_fraction must be in (0, 1)"]


def generate_synthetic(class_count, dim, samples_per_class, separation, seed,
                       clusters_per_class=1):
    """Gaussian mixture with unit-covariance clusters.

    Cluster means are drawn from the (seed, SYNTHETIC_DATA) stream and
    rescaled so the minimum pairwise distance equals `separation`. With
    clusters_per_class == 1 each class is a single cluster and labels are
    the cluster ids. Larger values spread each class over several
    clusters (assigned round-robin), which makes the task nonlinear: a
    class is then a scattered union of modes, so linear models underfit
    and model averaging is destructive. samples_per_class is the total
    per class, split as evenly as possible over its clusters. Samples
    are ordered class-major.
    """
    if p := synthetic_problems(class_count, dim, samples_per_class, separation,
                               clusters_per_class):
        raise ValueError(p[0])
    g = rng.stream(seed, rng.SYNTHETIC_DATA)
    n_clusters = class_count * clusters_per_class
    means = g.normal(size=(n_clusters, dim))
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    dmin = dist[np.triu_indices(n_clusters, k=1)].min()
    if dmin == 0.0:
        raise DegenerateDataError("degenerate cluster means; choose another seed")
    means *= separation / dmin
    cluster_of = np.arange(n_clusters) % class_count  # cluster -> class
    # each class's clusters in turn, each repeated by its share of the class
    per_cluster = list(map(len, np.array_split(np.empty(samples_per_class), clusters_per_class)))
    assignments = np.repeat(np.argsort(cluster_of, kind="stable"),
                            np.tile(per_cluster, class_count))
    labels = cluster_of[assignments]
    features = means[assignments] + g.normal(size=(labels.size, dim))
    return LabeledDataset(features, labels, class_count)


def train_test_split(dataset, test_fraction, seed):
    """Per-class seeded split; keeps a balanced dataset balanced."""
    if p := split_problems(test_fraction):
        raise ValueError(p[0])
    g = rng.stream(seed, rng.TRAIN_TEST_SPLIT)
    train_idx, test_idx = [], []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        perm = idx[g.permutation(idx.size)]
        n_test = int(round(test_fraction * idx.size))
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    if train_idx.size == 0 or test_idx.size == 0:
        raise DegenerateDataError("split leaves an empty side; adjust test_fraction")
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _truncate_for_blocks(dataset, block_count):
    """Drop the remainder mod block_count, taken from the largest class.

    Removed samples are the last-listed samples of the largest class
    (lowest class id on ties), so truncation is deterministic.
    """
    n = dataset.size
    drop = n % block_count
    if drop == 0:
        return dataset
    hist = dataset.label_histogram()
    victim = int(np.argmax(hist))
    victim_idx = np.flatnonzero(dataset.labels == victim)
    if victim_idx.size <= drop:
        raise InfeasiblePartitionError(
            f"cannot drop {drop} samples from largest class ({victim_idx.size} available)")
    keep = np.ones(n, dtype=bool)
    keep[victim_idx[-drop:]] = False
    return dataset.subset(np.flatnonzero(keep))


def home_edges(vehicle_count, edge_count):
    """The edge whose data each vehicle of an edge-skewed partition holds,
    (M,) int64: vehicle m holds edge m // (M // N)'s, so each edge's
    vehicles are a run of consecutive ids. M must be a multiple of N."""
    return np.arange(vehicle_count) // (vehicle_count // edge_count)


def edge_skewed(regime, shared_input):
    """Whether a partition gives each edge's data to its home_edges
    vehicles, which then start on that edge's side: edge_noniid, and shared
    input whatever the regime."""
    return regime == EDGE_NONIID or shared_input


def _edge_class_sets(C, N, l):
    """l classes per edge, round-robin; with l*N < C some go to no edge."""
    if l * N < C:
        return [tuple(n * l + j for j in range(l)) for n in range(N)]
    return [tuple((n * l + j) % C for j in range(l)) for n in range(N)]


def partition(dataset, regime, vehicle_count, edge_count, classes_per_unit=1, seed=0,
              allow_partial_class_coverage=False):
    """Split a dataset into vehicle_count shards, indexed by vehicle id.

    iid: seeded uniform split into vehicle_count parts (sizes differ by at
    most one). local_noniid: label-sorted data cut into vehicle_count*l
    equal blocks dealt round-robin, so each vehicle holds l label blocks
    of identical size; the dataset is first truncated to a multiple of
    vehicle_count*l. edge_noniid: classes are assigned to edges round-robin
    (l per edge), each class pool is split evenly over the edges owning it,
    and each edge pool is shuffled and split over the vehicles that
    home_edges gives that edge. classes_per_unit (l) is ignored for iid.
    """
    M, N, l = vehicle_count, edge_count, classes_per_unit
    C = dataset.class_count
    if p := partition_problems(regime, M, N, l, allow_partial_class_coverage, C):
        raise InfeasiblePartitionError(p[0])
    g = rng.stream(seed, rng.PARTITION)

    if regime == IID:
        if dataset.size < M:
            raise InfeasiblePartitionError(
                f"iid needs at least vehicle_count = {M} samples, have {dataset.size}")
        perm = g.permutation(dataset.size)
        return [dataset.subset(np.sort(chunk)) for chunk in np.array_split(perm, M)]

    if regime == LOCAL_NONIID:
        if dataset.size < M * l:
            raise InfeasiblePartitionError(
                f"need at least vehicle_count*l = {M * l} samples, have {dataset.size}")
        data = _truncate_for_blocks(dataset, M * l)
        # stable: ties keep original order, so the layout is deterministic
        blocks = np.argsort(data.labels, kind="stable").reshape(M * l, -1)
        return [data.subset(np.sort(blocks[m::M].ravel())) for m in range(M)]

    # edge_noniid
    class_sets = _edge_class_sets(C, N, l)
    owners = {c: [n for n in range(N) if c in class_sets[n]] for c in range(C)}
    edge_pools = [[] for _ in range(N)]
    for c in range(C):
        idx = np.flatnonzero(dataset.labels == c)
        if not owners[c]:
            continue  # dropped class under partial coverage
        parts = np.array_split(idx, len(owners[c]))
        for n, part in zip(owners[c], parts):
            edge_pools[n].append(part)
    home = home_edges(M, N)
    shards = [None] * M
    for n in range(N):
        pool = np.concatenate(edge_pools[n]) if edge_pools[n] else np.array([], dtype=np.int64)
        vehicles = np.flatnonzero(home == n)
        if pool.size < vehicles.size:
            raise InfeasiblePartitionError(f"edge {n} pool too small to cover its vehicles")
        pool = pool[g.permutation(pool.size)]
        for m, part in zip(vehicles, np.array_split(pool, vehicles.size)):
            shards[m] = dataset.subset(np.sort(part))
    return shards


def union_of_shards(shards):
    """Concatenate shards in vehicle id order into one dataset."""
    feats = np.concatenate([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    return LabeledDataset(feats, labels, shards[0].class_count)


def shared_input_shards(vehicle_count, edge_count, classes_per_edge, class_count,
                        samples_per_shard, dim, seed):
    """Shards, indexed by vehicle id, with equal features but different
    labels.

    Every shard holds its own copy of one drawn X, and vehicle m's labels
    are drawn from the class set of its edge under home_edges, so for the
    quadratic loss the gap between a shard's gradient and the global
    gradient is constant in the model parameters. That makes the
    per-vehicle gradient-divergence constants exact closed-form quantities
    instead of probe estimates (analysis.shared_input_delta_m).
    """
    M, N, l, C = vehicle_count, edge_count, classes_per_edge, class_count
    if p := shape_problems(C, dim):
        raise ValueError(p[0])
    # the regime is ignored under shared input: any one will do
    if p := partition_problems(IID, M, N, l, class_count=C, shared_input=True):
        raise InfeasiblePartitionError(p[0])
    class_sets = _edge_class_sets(C, N, l)
    g = rng.stream(seed, rng.SHARED_INPUT)
    X = g.normal(size=(samples_per_shard, dim))
    shards = []
    for n in home_edges(M, N):
        classes = np.array(class_sets[n], dtype=np.int64)
        labels = classes[g.integers(0, len(classes), size=samples_per_shard)]
        shards.append(LabeledDataset(X.copy(), labels, C))
    return shards


def load_csv(path):
    """Read a dataset: one sample per row, last column an integer label."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        row = raw.count(b"\n", 0, e.start) + 1
        raise CsvFormatError(f"row {row}: not UTF-8 text") from None
    rows = []
    labels = []
    width = None
    with io.StringIO(text, newline="") as f:
        for i, row in enumerate(csv.reader(f), start=1):
            if not row:
                raise CsvFormatError(f"row {i}: empty row")
            if width is None:
                width = len(row)
                if width < 2:
                    raise CsvFormatError(f"row {i}: need at least one feature and a label")
            elif len(row) != width:
                raise CsvFormatError(f"row {i}: expected {width} columns, got {len(row)}")
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError:
                raise CsvFormatError(f"row {i}: non-numeric feature") from None
            if not all(map(math.isfinite, feats)):
                raise CsvFormatError(f"row {i}: non-finite feature")
            try:
                label = int(row[-1])
            except ValueError:
                raise CsvFormatError(f"row {i}: non-integer label {row[-1]!r}") from None
            if label < 0:
                raise CsvFormatError(f"row {i}: negative label {label}")
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise CsvFormatError("empty file")
    labels = np.array(labels, dtype=np.int64)
    # a label is a class id, so one class means every label is 0
    if not labels.any():
        raise CsvFormatError("every label is 0, one class; classes must be >= 2")
    return LabeledDataset(np.array(rows), labels, int(labels.max()) + 1)
