"""Experiment configuration: flat sectioned key=value files.

The grammar is INI as understood by configparser, without interpolation
('%' is plain text): [section] headers, key = value lines, '#' comments.
Every key has a default, unknown keys are rejected, and validation
reports every violation at once so a bad file fails with the complete list.
"""

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from . import datasets, mobility, models, rng
from .engine import HflConfig


# A one-second edge round may carry a vehicle at most this many road sides.
# With p_turn > 0 every corner crossed costs a draw and a step of the
# mobility event loop, so this bounds the draws per vehicle and round. It
# also keeps the closed-form schedule well conditioned: row j reads the
# position at unit-speed time (t0 + j*v) % lap, whose rounding error grows
# with j*v, so the sides travelled per round bound that error.
MAX_SIDES_PER_ROUND = 10


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class DatasetSection:
    kind: str = "synthetic"          # synthetic | csv
    classes: int = 8
    dim: int = 16
    samples_per_class: int = 500
    separation: float = 4.0
    clusters_per_class: int = 1
    seed: int = 1
    csv_path: str = ""
    test_fraction: float = 0.2


@dataclass
class PartitionSection:
    regime: str = datasets.IID
    classes_per_unit: int = 1
    vehicles: int = 32
    seed: int = 2
    allow_partial_class_coverage: bool = False
    shared_input: bool = False       # use the shared-feature construction
    shared_samples_per_shard: int = 40


@dataclass
class MobilitySection:
    edges: int = 4                   # 4 = square topology, 1 = static degenerate
    side_length: float = mobility.RoadNetwork.side_length
    speed: float = 30.0
    slowdown_factor: float = mobility.RoadNetwork.slowdown_factor
    intersection_zone: float = mobility.RoadNetwork.intersection_zone
    p_turn: float = 0.0
    seed: int = 3


@dataclass
class ModelSection:
    family: str = models.MULTINOMIAL_LOGISTIC
    l2_reg: float = 0.01
    hidden_width: int = 0


@dataclass
class OutputSection:
    directory: str = "out"


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    partition: PartitionSection = field(default_factory=PartitionSection)
    mobility: MobilitySection = field(default_factory=MobilitySection)
    hfl: HflConfig = field(default_factory=HflConfig)
    model: ModelSection = field(default_factory=ModelSection)
    output: OutputSection = field(default_factory=OutputSection)


_SECTIONS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_value(typ, raw, where):
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError([f"{where}: expected boolean, got {raw!r}"])
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError([f"{where}: expected {typ.__name__}, got {raw!r}"]) from None


def parse_config(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError([f"parse error: {e}"]) from None
    cfg = ExperimentConfig()
    problems = []
    for section in cp.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
            continue
        target = getattr(cfg, section)
        types = {f.name: type(getattr(target, f.name)) for f in fields(target)}
        for key, raw in cp.items(section):
            if key not in types:
                problems.append(f"[{section}] unknown key {key!r}")
                continue
            try:
                setattr(target, key, _parse_value(types[key], raw, f"[{section}] {key}"))
            except ConfigError as e:
                problems.extend(e.problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path):
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ConfigError([f"line {line}: not UTF-8 text"]) from None
    # newline=None: universal newlines, as a text-mode read gives them
    return parse_config(io.StringIO(text, newline=None).read())


def serialize_config(cfg, exclude=()):
    """Canonical text form; parse(serialize(c)) == c. Sections named in
    exclude are left out."""
    out = io.StringIO()
    for section in _SECTIONS:
        if section in exclude:
            continue
        out.write(f"[{section}]\n")
        target = getattr(cfg, section)
        for f in fields(target):
            v = getattr(target, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            out.write(f"{f.name} = {v}\n")
        out.write("\n")
    return out.getvalue()


def validate(cfg):
    """Collect every violation; raise ConfigError listing all of them. Each
    rule on a value is stated by the code that uses it and listed here as
    "[section] message"; this function states only the rules no owner has."""
    p = []
    d, pt, mo, h, md = cfg.dataset, cfg.partition, cfg.mobility, cfg.hfl, cfg.model
    # NaN fails every range check silently, and an infinite speed never ends
    # a mobility step; a seed keys a random stream, whose key is one 64-bit word
    for section in _SECTIONS:
        target = getattr(cfg, section)
        for f in fields(target):
            v = getattr(target, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                p.append(f"[{section}] {f.name} must be finite")
            if f.name == "seed" and v < 0:
                p.append(f"[{section}] seed must be >= 0")
            if f.name == "seed" and v >= rng.SEED_LIMIT:
                p.append(f"[{section}] seed must be < 2**64")

    if d.kind not in ("synthetic", "csv"):
        p.append(f"[dataset] kind must be synthetic or csv, got {d.kind!r}")
    if d.kind == "synthetic":
        p += [f"[dataset] {m}" for m in datasets.synthetic_problems(
            d.classes, d.dim, d.samples_per_class, d.separation, d.clusters_per_class)]
    elif pt.shared_input:  # the construction reads classes and dim whatever the kind
        p += [f"[dataset] {m}" for m in datasets.shape_problems(d.classes, d.dim)]
    if d.kind == "csv" and not d.csv_path:
        p.append("[dataset] csv_path required when kind = csv")
    p += [f"[dataset] {m}" for m in datasets.split_problems(d.test_fraction)]

    # a CSV's class count is known once the file is loaded; the shared-input
    # construction ignores the file and uses [dataset] classes
    classes = None if d.kind == "csv" and not pt.shared_input else d.classes
    p += [f"[partition] {m}" for m in datasets.partition_problems(
        pt.regime, pt.vehicles, mo.edges, pt.classes_per_unit,
        pt.allow_partial_class_coverage, classes, pt.shared_input)]
    if pt.shared_input and md.family != models.QUADRATIC:
        p.append("[partition] shared_input requires the quadratic family")
    if pt.shared_input and pt.shared_samples_per_shard < 1:
        p.append("[partition] shared_samples_per_shard must be >= 1")

    if mo.edges not in (1, 4):
        p.append("[mobility] edges must be 4 (square topology) or 1 (static degenerate)")
    p += [f"[mobility] {m}" for m in mobility.road_problems(
        mo.side_length, mo.intersection_zone, mo.slowdown_factor)]
    if mo.side_length > 0 and mo.speed > MAX_SIDES_PER_ROUND * mo.side_length:
        p.append(f"[mobility] speed must be at most {MAX_SIDES_PER_ROUND} sides per "
                 f"one-second round ({MAX_SIDES_PER_ROUND} * side_length = "
                 f"{MAX_SIDES_PER_ROUND * mo.side_length:g} m/s), got {mo.speed!r}")
    p += [f"[mobility] {m}" for m in mobility.motion_problems(mo.speed, mo.p_turn)]

    p += [f"[hfl] {m}" for m in h.problems()]
    p += [f"[model] {m}" for m in models.spec_problems(md.family, md.l2_reg, md.hidden_width)]

    if not cfg.output.directory:
        p.append("[output] directory must be set")
    if p:
        raise ConfigError(p)
    return cfg
