"""Labeled datasets and their split into per-vehicle shards.

Three partition regimes are supported: uniform (iid), label-skewed per
vehicle (local_noniid) and label-skewed per edge region (edge_noniid).
Partitions are exact: the multiset of samples across shards equals the
(possibly truncated) parent dataset.
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
    def n_samples(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, idx):
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_count)

    def label_histogram(self):
        return np.bincount(self.labels, minlength=self.class_count)


@dataclass
class Shard:
    owner: int
    data: LabeledDataset

    @property
    def size(self):
        return self.data.n_samples


@dataclass
class PartitionSpec:
    regime: str
    vehicle_count: int
    edge_count: int
    classes_per_unit: int = 1  # l; ignored for iid
    seed: int = 0
    allow_partial_class_coverage: bool = False

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.vehicle_count < 1 or self.edge_count < 1:
            raise ValueError("vehicle_count and edge_count must be >= 1")
        if self.regime != IID and self.classes_per_unit < 1:
            raise ValueError("classes_per_unit must be >= 1")


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
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    if clusters_per_class < 1:
        raise ValueError("clusters_per_class must be >= 1")
    g = rng.stream(seed, rng.SYNTHETIC_DATA)
    n_clusters = class_count * clusters_per_class
    means = g.normal(size=(n_clusters, dim))
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    dmin = dist[np.triu_indices(n_clusters, k=1)].min()
    if dmin == 0.0:
        raise ValueError("degenerate cluster means; choose another seed")
    means *= separation / dmin
    cluster_of = np.arange(n_clusters) % class_count  # cluster -> class
    labels = []
    assignments = []
    for c in range(class_count):
        own = np.flatnonzero(cluster_of == c)
        counts = np.array_split(np.empty(samples_per_class), clusters_per_class)
        for cl, chunk in zip(own, counts):
            assignments.extend([cl] * len(chunk))
            labels.extend([c] * len(chunk))
    assignments = np.array(assignments)
    labels = np.array(labels, dtype=np.int64)
    features = means[assignments] + g.normal(size=(labels.size, dim))
    return LabeledDataset(features, labels, class_count)


def train_test_split(dataset, test_fraction, seed):
    """Per-class seeded split; keeps a balanced dataset balanced."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
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
        raise ValueError("split leaves an empty side; adjust test_fraction")
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _sorted_by_label(dataset):
    # stable: ties keep original order, so the layout is deterministic
    return np.argsort(dataset.labels, kind="stable")


def _truncate_for_blocks(dataset, block_count):
    """Drop the remainder mod block_count, taken from the largest class.

    Removed samples are the last-listed samples of the largest class
    (lowest class id on ties), so truncation is deterministic.
    """
    n = dataset.n_samples
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


def _default_edge_map(M, N):
    if M % N == 0:
        return {m: m // (M // N) for m in range(M)}
    return {m: m % N for m in range(M)}


def _edge_class_sets(C, N, l, allow_partial):
    if l > C:
        raise InfeasiblePartitionError(f"classes_per_unit={l} exceeds class_count={C}")
    if l * N < C and not allow_partial:
        raise InfeasiblePartitionError(
            f"edge_noniid needs l*N >= C ({l}*{N} < {C}); "
            "set allow_partial_class_coverage to drop the surplus classes")
    if l * N < C:
        return [tuple(n * l + j for j in range(l)) for n in range(N)]
    return [tuple((n * l + j) % C for j in range(l)) for n in range(N)]


def partition(dataset, spec):
    """Split a dataset into vehicle shards plus an initial vehicle->edge map.

    iid: seeded uniform split into vehicle_count parts (sizes differ by at
    most one). local_noniid: label-sorted data cut into vehicle_count*l
    equal blocks dealt round-robin, so each vehicle holds l label blocks
    of identical size; the dataset is first truncated to a multiple of
    vehicle_count*l. edge_noniid: classes are assigned to edges round-robin
    (l per edge), each class pool is split evenly over the edges owning it,
    and each edge pool is shuffled and split over its vehicles.
    """
    M, N, l = spec.vehicle_count, spec.edge_count, spec.classes_per_unit
    C = dataset.class_count
    g = rng.stream(spec.seed, rng.PARTITION)

    if spec.regime == IID:
        if dataset.n_samples < M:
            raise InfeasiblePartitionError(
                f"iid needs at least vehicle_count = {M} samples, have {dataset.n_samples}")
        perm = g.permutation(dataset.n_samples)
        chunks = np.array_split(perm, M)
        shards = [Shard(m, dataset.subset(np.sort(chunks[m]))) for m in range(M)]
        return shards, _default_edge_map(M, N)

    if spec.regime == LOCAL_NONIID:
        if l * M < C:
            raise InfeasiblePartitionError(
                f"local_noniid needs l*M >= C ({l}*{M} < {C})")
        if l > C:
            raise InfeasiblePartitionError(f"classes_per_unit={l} exceeds class_count={C}")
        if dataset.n_samples < M * l:
            raise InfeasiblePartitionError(
                f"need at least vehicle_count*l = {M * l} samples, have {dataset.n_samples}")
        data = _truncate_for_blocks(dataset, M * l)
        order = _sorted_by_label(data)
        blocks = order.reshape(M * l, -1)
        shard_idx = [np.sort(np.concatenate([blocks[b] for b in range(m, M * l, M)]))
                     for m in range(M)]
        shards = [Shard(m, data.subset(idx)) for m, idx in enumerate(shard_idx)]
        return shards, _default_edge_map(M, N)

    # edge_noniid
    if M % N != 0:
        raise InfeasiblePartitionError(
            f"edge_noniid needs vehicle_count divisible by edge_count ({M} % {N} != 0)")
    class_sets = _edge_class_sets(C, N, l, spec.allow_partial_class_coverage)
    owners = {c: [n for n in range(N) if c in class_sets[n]] for c in range(C)}
    per_vehicle = M // N
    edge_pools = [[] for _ in range(N)]
    for c in range(C):
        idx = np.flatnonzero(dataset.labels == c)
        if not owners[c]:
            continue  # dropped class under partial coverage
        parts = np.array_split(idx, len(owners[c]))
        for n, part in zip(owners[c], parts):
            edge_pools[n].append(part)
    edge_map = {}
    shards = [None] * M
    for n in range(N):
        pool = np.concatenate(edge_pools[n]) if edge_pools[n] else np.array([], dtype=np.int64)
        if pool.size < per_vehicle:
            raise InfeasiblePartitionError(f"edge {n} pool too small to cover its vehicles")
        pool = pool[g.permutation(pool.size)]
        parts = np.array_split(pool, per_vehicle)
        for i, part in enumerate(parts):
            m = n * per_vehicle + i
            shards[m] = Shard(m, dataset.subset(np.sort(part)))
            edge_map[m] = n
    return shards, edge_map


def union_of_shards(shards):
    """Concatenate shards in owner order into one dataset."""
    feats = np.concatenate([s.data.features for s in shards])
    labels = np.concatenate([s.data.labels for s in shards])
    return LabeledDataset(feats, labels, shards[0].data.class_count)


def shared_input_shards(vehicle_count, edge_count, classes_per_edge, class_count,
                        samples_per_shard, dim, seed):
    """Shards that share one feature matrix but differ in labels.

    All shards reference the same X, and vehicle m's labels are drawn from
    its edge's class set, so for the quadratic loss the gap between a
    shard's gradient and the global gradient is constant in the model
    parameters. That makes the per-vehicle gradient-divergence constants
    exact closed-form quantities instead of probe estimates
    (analysis.shared_input_delta_m).
    """
    M, N, l, C = vehicle_count, edge_count, classes_per_edge, class_count
    if M % N != 0:
        raise ValueError("vehicle_count must be divisible by edge_count")
    class_sets = _edge_class_sets(C, N, l, allow_partial=False)
    g = rng.stream(seed, rng.SHARED_INPUT)
    X = g.normal(size=(samples_per_shard, dim))
    per_vehicle = M // N
    shards = []
    edge_map = {}
    for m in range(M):
        n = m // per_vehicle
        classes = np.array(class_sets[n], dtype=np.int64)
        labels = classes[g.integers(0, len(classes), size=samples_per_shard)]
        shards.append(Shard(m, LabeledDataset(X.copy(), labels, C)))
        edge_map[m] = n
    return shards, edge_map


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
