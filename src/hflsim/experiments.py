"""Config-driven experiment pipelines: single runs, speed sweeps and the
bound-verification suite. The CLI is a thin wrapper around this module;
tests drive it directly."""

import copy
import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import datasets, engine, mobility, models
from .config import ConfigError, validate


@dataclass
class Instance:
    """The data of an experiment, resolved from an ExperimentConfig:
    shards is a list of LabeledDataset indexed by vehicle id, and union
    their concatenation. The association is not part of it: schedule
    builds that from cfg.mobility, so instances that differ only in
    [mobility] share their data."""
    cfg: object
    spec: object
    test: object
    shards: list
    union: object


@contextmanager
def _config_fault(section):
    """Re-raise a DegenerateDataError raised inside, a fault of [section]'s
    values that validate cannot see before the data exists (coincident
    cluster means, an empty split side, features without spread), as a
    ConfigError; any other error passes unchanged."""
    try:
        yield
    except datasets.DegenerateDataError as e:
        raise ConfigError([f"[{section}] {e}"]) from e


def build_dataset(cfg):
    d = cfg.dataset
    if d.kind == "csv":
        full = datasets.load_csv(d.csv_path)
    else:
        with _config_fault("dataset"):
            full = datasets.generate_synthetic(d.classes, d.dim, d.samples_per_class,
                                               d.separation, d.seed,
                                               clusters_per_class=d.clusters_per_class)
    with _config_fault("dataset"):
        return datasets.train_test_split(full, d.test_fraction, d.seed)


def build_instance(cfg):
    """Resolve config into data, shards and model spec."""
    validate(cfg)
    pt, mo, md = cfg.partition, cfg.mobility, cfg.model

    if pt.shared_input:
        shards = datasets.shared_input_shards(
            pt.vehicles, mo.edges, pt.classes_per_unit, cfg.dataset.classes,
            pt.shared_samples_per_shard, cfg.dataset.dim, pt.seed)
        test = None
    else:
        train, test = build_dataset(cfg)
        shards = datasets.partition(train, pt.regime, pt.vehicles, mo.edges,
                                    pt.classes_per_unit, pt.seed,
                                    pt.allow_partial_class_coverage)
    union = datasets.union_of_shards(shards)

    # a CSV's class count is only known here
    spec = models.ModelSpec(family=md.family, dim=union.dim, class_count=union.class_count,
                            l2_reg=md.l2_reg, hidden_width=md.hidden_width)
    return Instance(cfg=cfg, spec=spec, test=test, shards=shards, union=union)


def schedule(inst, rounds):
    """Arc positions and edge ids of every vehicle over rounds edge rounds,
    both (rounds+1, M), as mobility.schedule builds them from the road,
    the placement and the corner turns of inst.cfg. With edges = 1 there
    is no road: the positions are None and every edge id is 0."""
    pt, mo = inst.cfg.partition, inst.cfg.mobility
    if mo.edges == 1:
        return None, np.zeros((rounds + 1, pt.vehicles), dtype=np.int64)
    network = mobility.RoadNetwork(side_length=mo.side_length,
                                   intersection_zone=mo.intersection_zone,
                                   slowdown_factor=mo.slowdown_factor)
    # edge-skewed data pins every vehicle to its data's side initially
    pinned = datasets.edge_skewed(pt.regime, pt.shared_input)
    sides = datasets.home_edges(pt.vehicles, mo.edges) if pinned else None
    positions, directions = mobility.init_positions(network, pt.vehicles, mo.seed, sides)
    return mobility.schedule(network, positions, directions, mo.speed, rounds, mo.p_turn,
                             inst.cfg.hfl.seed)


def run_instance(inst, init_params_vec=None, *, association=None, train_loss=True,
                 **config_overrides):
    """Train inst under its [hfl] section with config_overrides applied.
    association is the edge-id half of schedule(inst, rounds) when the
    caller already holds it; None builds it here."""
    rc = replace(inst.cfg.hfl, **config_overrides)
    if association is None:
        association = schedule(inst, rc.cloud_epochs * rc.tau_e)[1]
    return engine.run(rc, inst.shards, inst.spec, association, inst.cfg.mobility.edges,
                      eval_data=inst.test, init_params_vec=init_params_vec,
                      train_loss=train_loss)


# --- accuracy targets and sweep machinery ---------------------------------

def centralized_ceiling(inst):
    """Test accuracy of the centrally trained model; the reference the
    relative accuracy targets are scaled against.

    Convex families use the exact optimum. For mlp1 the ceiling is the
    best accuracy of a deterministic centralized SGD run (one vehicle
    holding the full training set, same step size and batch size, same
    iteration budget as the federated run)."""
    if inst.spec.is_convex:
        opt = models.solve_optimum(inst.spec, inst.union)
        return models.accuracy(inst.spec, opt.w, inst.test.features, inst.test.labels)
    rc = replace(inst.cfg.hfl, record_virtual=False, full_batch=False)
    res = engine.run(rc, [inst.union], inst.spec, eval_data=inst.test,
                     train_loss=False)
    best = max(r.test_accuracy for r in res.metrics)
    return float(best)


def rounds_to_targets(metrics, targets):
    """First cloud epoch whose running max accuracy reaches each target;
    None when never reached."""
    return [next((row.cloud_epoch for row in metrics if row.test_accuracy >= t), None)
            for t in targets]


@dataclass
class SweepCell:
    speed: float
    seed: int
    max_test_accuracy: float
    rounds_to_target: list        # aligned with targets; None = never
    delta_first_quarter: float = float("nan")
    delta_last_quarter: float = float("nan")


@dataclass
class SweepResult:
    speeds: list
    seeds: list
    targets: list                 # absolute accuracy targets
    target_fractions: list
    ceiling: float
    cells: list = field(default_factory=list)

    def cell(self, speed, seed):
        for c in self.cells:
            if c.speed == speed and c.seed == seed:
                return c
        raise KeyError((speed, seed))

    def mean_max_accuracy(self, speed):
        return float(np.mean([c.max_test_accuracy for c in self.cells if c.speed == speed]))


DEFAULT_TARGET_FRACTIONS = (0.65, 0.70, 0.75)


def _sweep_cell(inst, targets, init_params_vec, association=None):
    res = run_instance(inst, init_params_vec=init_params_vec, association=association,
                       train_loss=False)
    accs = np.array([r.test_accuracy for r in res.metrics])
    best = float(np.max(accs[~np.isnan(accs)])) if np.any(~np.isnan(accs)) else float("nan")
    mo = inst.cfg.mobility
    cell = SweepCell(speed=mo.speed, seed=mo.seed, max_test_accuracy=best,
                     rounds_to_target=rounds_to_targets(res.metrics, targets))
    tr = res.trace
    if tr is not None:
        from . import analysis  # only a recorded cell estimates divergences
        probes = np.vstack([np.zeros(tr.vtilde.shape[1]), tr.vtilde[-1]])
        est = analysis.estimate_divergences(inst.spec, inst.shards, tr.association_history,
                                            probes, mo.edges)
        mix = analysis.mobility_mixing_report(est)
        cell.delta_first_quarter = mix.first_quarter_mean
        cell.delta_last_quarter = mix.last_quarter_mean
    return cell


def sweep_speed(cfg, speeds, seeds, target_fractions=DEFAULT_TARGET_FRACTIONS,
                init_params_vec=None, parallel=1, on_cell=None):
    """Cross product over (speed, seed), everything else held fixed.

    Mobility-only pairing: the data is built once, and a cell differs from
    the base instance only in its [mobility] speed and seed, so the
    partition and the batch streams are shared across cells and accuracy
    differences isolate the mobility effect. Accuracy is measured on the
    test split, so a shared-input config (which has none) is a ConfigError.

    Training sees [mobility] only through the association schedule, so
    cells with equal schedules give equal results: each distinct schedule
    trains once, on its first cell, and the others copy that cell with
    their own speed and seed. Edge-skewed placement pins every vehicle to
    its data's side, which makes all speed-0 cells equal; with edges = 1
    every cell is. result.cells and on_cell still cover every cell, in
    order, and a DivergenceError stops the sweep at the same cell.
    """
    if parallel < 1:
        raise ConfigError([f"--parallel must be >= 1, got {parallel}"])
    speeds, seeds = [float(v) for v in speeds], [int(s) for s in seeds]
    problems = []
    for option, values in (("--speeds", speeds), ("--seeds", seeds)):
        if not values:
            problems.append(f"{option} lists no values; the sweep needs at least one")
        # a repeated value would rerun a cell and count it twice in the summary
        problems += [f"{option} lists {v!r} more than once"
                     for v, n in Counter(values).items() if n > 1]
    if cfg.partition.shared_input:
        # every cell would report a NaN accuracy against a NaN ceiling
        problems.append("the speed sweep needs a test split to measure accuracy; "
                        "[partition] shared_input = true leaves none")
    problems += [f"[model] {m}"  # the convex ceiling is the optimum's accuracy
                 for m in models.optimum_problems(cfg.model.family, cfg.model.l2_reg)]
    if problems:
        raise ConfigError(problems)
    base = build_instance(cfg)
    if cfg.hfl.record_virtual and not base.spec.is_convex:
        # each recorded cell estimates divergence constants after training
        raise ConfigError([f"[hfl] record_virtual = true needs a convex [model] family "
                           f"for the divergence constants, got {base.spec.family}"])
    # every cell is validated before the ceiling or any cell runs
    cells = []
    for v in speeds:
        for s in seeds:
            mo = replace(cfg.mobility, speed=v, seed=s)
            cells.append(replace(base, cfg=validate(replace(cfg, mobility=mo))))
    # one (association, first cell) per distinct schedule, in order of
    # first appearance; group[i] is cell i's entry
    rounds = cfg.hfl.cloud_epochs * cfg.hfl.tau_e
    distinct, group = [], []
    for i, inst in enumerate(cells):
        association = schedule(inst, rounds)[1]
        g = next((g for g, (a, _) in enumerate(distinct) if np.array_equal(a, association)),
                 len(distinct))
        if g == len(distinct):
            distinct.append((association, i))
        group.append(g)
    ceiling = centralized_ceiling(base)
    targets = [f * ceiling for f in target_fractions]
    result = SweepResult(speeds=speeds, seeds=seeds, targets=targets,
                         target_fractions=list(target_fractions), ceiling=ceiling)

    def emit(trained):
        """Every cell in order, as a copy of its schedule's trained cell."""
        for inst, g in zip(cells, group):
            cell = trained(g)
            result.cells.append(replace(cell, speed=inst.cfg.mobility.speed,
                                        seed=inst.cfg.mobility.seed,
                                        rounds_to_target=list(cell.rounds_to_target)))
            if on_cell:
                on_cell(result.cells[-1])

    if parallel > 1:
        # imported here: the pool pulls in multiprocessing, which a serial
        # sweep and every other command can do without
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(parallel, len(distinct))) as ex:
            futs = [ex.submit(_sweep_cell, cells[i], targets, init_params_vec, association)
                    for association, i in distinct]
            emit(lambda g: futs[g].result())
    else:
        emit(functools.cache(lambda g: _sweep_cell(cells[distinct[g][1]], targets,
                                                   init_params_vec, distinct[g][0])))
    return result


def pretrain_checkpoint(cfg, accuracy_target, max_epochs=200):
    """Train on an iid split of the same dataset at v=0 until the test
    accuracy reaches the target; returns the cloud model."""
    pre = copy.deepcopy(cfg)
    pre.partition.regime = datasets.IID
    pre.partition.shared_input = False
    pre.mobility.speed = 0.0
    pre.hfl.record_virtual = False
    pre.hfl.cloud_epochs = max_epochs
    inst = build_instance(pre)
    _, association = schedule(inst, max_epochs * pre.hfl.tau_e)
    rounds = engine.edge_rounds(pre.hfl, inst.shards, inst.spec, association, pre.mobility.edges,
                                eval_data=inst.test, train_loss=False)
    # the cloud model at the end of the first cloud epoch that hits the target
    hit = False
    for res in rounds:
        hit = hit or res.metrics[-1].test_accuracy >= accuracy_target
        if hit and len(res.metrics) % pre.hfl.tau_e == 0:
            return res.final_state.cloud_params.copy()
    raise RuntimeError(
        f"pretraining never reached accuracy {accuracy_target:.3f} "
        f"within {max_epochs} cloud epochs")


# --- bound verification ----------------------------------------------------

@dataclass
class BoundSuite:
    inputs: object
    estimates: object
    central: object       # drift_checks' central-drift row: U_k and the gap they bound
    gap_report: object
    violations: list


def verify_bounds(cfg, delta_scale=1.0):
    """Full-batch convex run, divergence estimation and every inequality
    check: drift_checks' rows, then the gap bound where it applies, each
    through analysis.violations. delta_scale in [0, 1] is a test hook:
    scaling the estimated divergences down must make the checker report
    violations."""
    if not 0.0 <= delta_scale <= 1.0:  # NaN fails too
        raise ConfigError([f"--debug-scale-delta must be a finite value in [0, 1], "
                           f"got {delta_scale!r}"])
    # imported here: only the checks and a recorded sweep cell use the analysis
    from . import analysis
    inst = build_instance(cfg)
    if not inst.spec.is_convex:
        raise models.UnsupportedModelError("bound verification needs a convex family")
    if problems := models.optimum_problems(cfg.model.family, cfg.model.l2_reg):
        raise ConfigError([f"[model] {m}" for m in problems])
    # no bound reads a test accuracy, so the run takes no eval split
    res = run_instance(replace(inst, test=None), record_virtual=True, full_batch=True,
                       train_loss=False)
    tr = res.trace

    opt = models.solve_optimum(inst.spec, inst.union)
    # probes: the full centralized trajectory (vtilde everywhere, and u at
    # cloud instants where v synchronizes to it), plus the origin and the
    # optimum; this is exactly where the recursion evaluates gradients
    probes = np.vstack([tr.vtilde, tr.u_cloud, np.zeros(tr.vtilde.shape[1]), opt.w])
    est = analysis.estimate_divergences(inst.spec, inst.shards, tr.association_history,
                                        probes, inst.cfg.mobility.edges).scaled(delta_scale)

    beta = models.estimate_constants(inst.spec, inst.union)
    beta_m = np.array([models.estimate_constants(inst.spec, s) for s in inst.shards])
    # rho over the vtilde rows, which lead the probes
    rho = max(est.grad_norm[:len(tr.vtilde)].tolist())
    losses = analysis.epoch_losses(inst.spec, inst.union, tr)
    eps = analysis.choose_epsilon(losses, opt.value)
    # features without spread (and l2_reg = 0) give beta = 0 or rho = 0
    with _config_fault("dataset"):
        inputs = analysis.BoundInputs(beta=beta, beta_m=beta_m, rho=rho,
                                      epsilon=max(eps, 1e-12), w_star=opt.w, f_star=opt.value)

    checks = analysis.drift_checks(tr, analysis.drift_recursion(tr, est, inputs), inputs)
    central = checks[-1]
    gap = analysis.check_gap_bound(tr, inputs, central, losses)
    if gap.applicable:
        checks.append(analysis.Check(gap.measured_gap, gap.bound,
                                     lambda: ("gap_bound", {"T": tr.total_iterations})))
    return BoundSuite(inputs=inputs, estimates=est, central=central, gap_report=gap,
                      violations=[v for c in checks for v in analysis.violations(c)])
