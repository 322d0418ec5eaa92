"""Experiment configuration: flat sectioned key=value files.

The grammar is INI as understood by configparser: [section] headers,
key = value lines, '#' comments. Every key has a default, unknown keys
are rejected, and validation reports every violation at once so a bad
file fails with the complete list.
"""

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from . import datasets, models, rng
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
    side_length: float = 1000.0
    speed: float = 30.0
    slowdown_factor: float = 0.5
    intersection_zone: float = 50.0
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
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
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
    """Collect every violation; raise ConfigError listing all of them."""
    p = []
    d, pt, mo, h, md = cfg.dataset, cfg.partition, cfg.mobility, cfg.hfl, cfg.model
    # NaN fails every range check below silently, and an infinite speed
    # never finishes a mobility step; a seed keys a random stream, whose
    # key is one 64-bit word
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
        if d.classes < 2:
            p.append("[dataset] classes must be >= 2")
        if d.dim < 2:
            p.append("[dataset] dim must be >= 2")
        if d.samples_per_class < 1:
            p.append("[dataset] samples_per_class must be >= 1")
        if d.separation <= 0:
            p.append("[dataset] separation must be > 0")
        if d.clusters_per_class < 1:
            p.append("[dataset] clusters_per_class must be >= 1")
    if d.kind == "csv" and not d.csv_path:
        p.append("[dataset] csv_path required when kind = csv")
    if not 0.0 < d.test_fraction < 1.0:
        p.append("[dataset] test_fraction must be in (0, 1)")

    if pt.regime not in datasets.REGIMES:
        p.append(f"[partition] regime must be one of {datasets.REGIMES}")
    if pt.vehicles < 1:
        p.append("[partition] vehicles must be >= 1")
    if pt.classes_per_unit < 1:
        p.append("[partition] classes_per_unit must be >= 1")
    C, M, N, l = d.classes, pt.vehicles, mo.edges, pt.classes_per_unit
    # a CSV's class count is known once the file is loaded; datasets.partition
    # checks coverage against it then
    classes_known = d.kind != "csv" or pt.shared_input
    if classes_known and pt.regime == datasets.LOCAL_NONIID and l * M < C:
        p.append(f"[partition] local_noniid needs classes_per_unit*vehicles >= classes "
                 f"({l}*{M} < {C})")
    if (pt.regime == datasets.EDGE_NONIID or pt.shared_input) and M % max(N, 1) != 0:
        p.append(f"[partition] vehicles must be divisible by edges ({M} % {N})")
    if classes_known and l * N < C:
        # the shared-input construction gives every class to some edge,
        # whatever the regime; the partial-coverage flag is edge_noniid's
        if pt.shared_input:
            p.append(f"[partition] shared_input needs classes_per_unit*edges >= classes "
                     f"({l}*{N} < {C}); allow_partial_class_coverage does not apply to it")
        elif pt.regime == datasets.EDGE_NONIID and not pt.allow_partial_class_coverage:
            p.append(f"[partition] edge_noniid needs classes_per_unit*edges >= classes "
                     f"({l}*{N} < {C}); set allow_partial_class_coverage to override")
    if classes_known and pt.regime != datasets.IID and l > C:
        p.append(f"[partition] classes_per_unit exceeds classes ({l} > {C})")
    if pt.shared_input and md.family != models.QUADRATIC:
        p.append("[partition] shared_input requires the quadratic family")
    if pt.shared_input and pt.shared_samples_per_shard < 1:
        p.append("[partition] shared_samples_per_shard must be >= 1")

    if mo.edges not in (1, 4):
        p.append("[mobility] edges must be 4 (square topology) or 1 (static degenerate)")
    if mo.side_length <= 0:
        p.append("[mobility] side_length must be > 0")
    if not 0.0 <= mo.intersection_zone < mo.side_length / 2:
        p.append("[mobility] intersection_zone must be in [0, side_length/2)")
    if not 0.0 < mo.slowdown_factor <= 1.0:
        p.append("[mobility] slowdown_factor must be in (0, 1]")
    if mo.speed < 0:
        p.append("[mobility] speed must be >= 0")
    if mo.side_length > 0 and mo.speed > MAX_SIDES_PER_ROUND * mo.side_length:
        p.append(f"[mobility] speed must be at most {MAX_SIDES_PER_ROUND} sides per "
                 f"one-second round ({MAX_SIDES_PER_ROUND} * side_length = "
                 f"{MAX_SIDES_PER_ROUND * mo.side_length:g} m/s), got {mo.speed!r}")
    if not 0.0 <= mo.p_turn <= 1.0:
        p.append("[mobility] p_turn must be in [0, 1]")

    if h.eta <= 0:
        p.append("[hfl] eta must be > 0")
    if h.tau_l < 1 or h.tau_e < 1 or h.cloud_epochs < 1:
        p.append("[hfl] tau_l, tau_e and cloud_epochs must be >= 1")
    if h.batch_size < 1:
        p.append("[hfl] batch_size must be >= 1")

    if md.family not in models.FAMILIES:
        p.append(f"[model] family must be one of {models.FAMILIES}")
    if md.l2_reg < 0:
        p.append("[model] l2_reg must be >= 0")
    if md.family == models.MLP1 and md.hidden_width < 1:
        p.append("[model] mlp1 needs hidden_width >= 1")

    if not cfg.output.directory:
        p.append("[output] directory must be set")
    if p:
        raise ConfigError(p)
    return cfg
