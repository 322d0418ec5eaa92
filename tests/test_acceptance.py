"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is pinned here; the experiment configurations were chosen once
and are frozen with their seeds.
"""

import copy
import io
import csv

import numpy as np
import pytest

from hflsim import analysis, cli, config, datasets, engine, experiments, mobility, models, rng


def report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def parse(text):
    cfg = config.parse_config(text)
    config.validate(cfg)
    return cfg


SHARED_INPUT_CFG = """
[dataset]
classes = 4
dim = 8

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 32
seed = 2
shared_input = true
shared_samples_per_shard = 40

[mobility]
edges = 4
speed = {speed}

[hfl]
eta = {eta}
tau_l = 6
tau_e = 10
cloud_epochs = {K}
seed = 13
full_batch = true
record_virtual = true

[model]
family = quadratic
l2_reg = 0.05

[output]
directory = out
"""

HARD_TASK_CFG = """
[dataset]
classes = {classes}
dim = {dim}
samples_per_class = {spc}
separation = 4.0
clusters_per_class = {G}
seed = 1

[partition]
regime = {regime}
classes_per_unit = {l}
vehicles = 32
seed = 2

[mobility]
edges = 4
side_length = {side}
intersection_zone = {zone}
speed = 30.0

[hfl]
eta = 0.1
tau_l = 6
tau_e = 10
cloud_epochs = {K}
batch_size = 20
seed = 4

[model]
family = mlp1
l2_reg = 0.0
hidden_width = {hidden}

[output]
directory = out
"""


def test_a1_degenerate_equivalence_bit_identical():
    """M=1, N=1 trajectory equals plain SGD over 1000 iterations, exactly."""
    ds = datasets.generate_synthetic(4, 8, 100, 3.0, seed=2)
    spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=8, class_count=4,
                            l2_reg=0.01)
    cfg = engine.HflConfig(eta=0.1, tau_l=5, tau_e=10, cloud_epochs=20,
                           batch_size=20, seed=9)
    assert cfg.total_iterations == 1000
    res = engine.run(cfg, [ds], spec)

    # plain SGD over vehicle 0's batch stream: a fresh permutation per pass
    # of 400 samples, consumed in 20 chunks of 20
    stream = rng.stream(9, rng.BATCH_BASE + 0)
    w = np.zeros(models.param_length(spec))
    for t in range(1000):
        if t % 20 == 0:
            perm = stream.permutation(ds.size)
        idx = perm[(t % 20) * 20:(t % 20 + 1) * 20]
        w = w - 0.1 * models.gradient_xy(spec, w, ds.features[idx], ds.labels[idx])
    identical = np.array_equal(w, res.final_state.cloud_params)
    report("A1", identical, "1000-iteration single-vehicle trajectory bit-identical "
                            "to plain SGD (tolerance 0)")


def test_a2_aggregation_identity_mobile_run():
    """Cloud model vs direct size-weighted vehicle average, 20 mobile epochs."""
    ds = datasets.generate_synthetic(8, 16, 500, 4.0, seed=1)
    train, test = datasets.train_test_split(ds, 0.2, seed=1)
    shards = datasets.partition(
        train, datasets.IID, vehicle_count=32, edge_count=4, seed=2)
    spec = models.ModelSpec(models.MULTINOMIAL_LOGISTIC, dim=16, class_count=8,
                            l2_reg=0.01)
    net = mobility.RoadNetwork()
    veh = mobility.init_positions(net, 32, seed=3)
    cfg = engine.HflConfig(eta=0.1, tau_l=6, tau_e=10, cloud_epochs=20,
                           batch_size=20, seed=4)
    _, assoc = mobility.schedule(net, *veh, 30.0, cfg.cloud_epochs * cfg.tau_e)
    res = engine.run(cfg, shards, spec, assoc, net.edge_count, eval_data=test)
    worst = max(d for _, d in res.cloud_consistency)
    report("A2", worst <= 1e-12,
           f"max per-coordinate |cloud - weighted vehicle average| = {worst:.3g} "
           f"over {len(res.cloud_consistency)} cloud instants (tol 1e-12)")


def _bound_suite(speed, eta, K):
    cfg = parse(SHARED_INPUT_CFG.format(speed=speed, eta=eta, K=K))
    return experiments.verify_bounds(cfg)


def _sum_uk(suite):
    # left to right, as the gap bound adds them
    return sum(suite.central.bound.tolist())


def test_a3_bound_inequality_suite():
    """Drift inequalities on the shared-input construction."""
    checked = {}
    for speed in (0.0, 30.0):
        suite = _bound_suite(speed=speed, eta=0.05, K=10)
        # the construction makes the divergence constants exact
        exact = analysis.shared_input_delta_m(
            experiments.build_instance(
                parse(SHARED_INPUT_CFG.format(speed=speed, eta=0.05, K=10))).shards)
        est_err = float(np.max(np.abs(suite.estimates.delta_m - exact)))
        assert est_err <= 1e-10, f"delta_m not exact: {est_err}"
        checked[speed] = suite
        report(f"A3[v={speed:g}]", not suite.violations,
               f"vehicle/edge/central drift and recursion inequalities hold "
               f"(slack >= -1e-9); sum U_k = {_sum_uk(suite):.2f}")
    less = _sum_uk(checked[30.0]) < _sum_uk(checked[0.0])
    report("A3[mobility]", less,
           f"sum U_k smaller with mobility ({_sum_uk(checked[30.0]):.2f} "
           f"< {_sum_uk(checked[0.0]):.2f})")


def test_a4_convergence_gap_bound():
    """All four applicability conditions hold and the measured gap obeys the bound."""
    suite = _bound_suite(speed=0.0, eta=0.001, K=2)
    gr = suite.gap_report
    conds_ok = all(gr.conditions[k] for k in
                   ("eta_le_inv_beta", "positive_margin", "vtilde_gap_ge_eps",
                    "w_loss_ge_eps"))
    report("A4[conditions]", conds_ok and gr.applicable,
           f"conditions {gr.conditions}")
    slack = gr.bound - gr.measured_gap
    report("A4[bound]", slack >= 0.0,
           f"measured gap {gr.measured_gap:.5f} <= bound {gr.bound:.5f} "
           f"(slack {slack:.5f})")


def test_a4_inapplicable_is_reported_not_violated():
    # faster learning rate drives epsilon down until condition 2 fails;
    # the checker must say "not applicable" instead of reporting a violation
    suite = _bound_suite(speed=0.0, eta=0.005, K=2)
    gr = suite.gap_report
    report("A4[gate]", (not gr.applicable) and np.isnan(gr.bound),
           f"bound withheld when conditions fail ({[k for k, v in gr.conditions.items() if not v]})")


@pytest.mark.slow
def test_a5_iid_insensitivity():
    """Mobility changes nothing measurable under an iid partition."""
    cfg = parse(HARD_TASK_CFG.format(classes=8, dim=16, spc=500, G=2,
                                     regime="iid", l=1, side=1000.0, zone=50.0,
                                     K=20, hidden=16))
    res = experiments.sweep_speed(cfg, speeds=[0.0, 30.0], seeds=[1, 2, 3])
    m0 = res.mean_max_accuracy(0.0)
    m30 = res.mean_max_accuracy(30.0)
    diff = abs(m30 - m0)
    report("A5", diff <= 0.02,
           f"iid 8-class task, 3 paired seeds: |max-acc(v=30) - max-acc(v=0)| "
           f"= {diff:.4f} (v0={m0:.3f}, v30={m30:.3f}; tol 2pp)")


@pytest.mark.slow
def test_a6_mobility_benefit():
    """Edge non-iid(1): mobility lifts mean max accuracy by >= 5 points."""
    cfg = parse(HARD_TASK_CFG.format(classes=4, dim=8, spc=500, G=2,
                                     regime="edge_noniid", l=1, side=1000.0,
                                     zone=50.0, K=30, hidden=16))
    res = experiments.sweep_speed(cfg, speeds=[0.0, 30.0], seeds=[1, 2, 3])
    m0 = res.mean_max_accuracy(0.0)
    m30 = res.mean_max_accuracy(30.0)
    report("A6", m30 >= m0 + 0.05,
           f"edge non-iid(1), 3 paired seeds: mean max-acc v30={m30:.3f} vs "
           f"v0={m0:.3f} (gain {m30 - m0:+.3f}, need >= +0.05)")


@pytest.mark.slow
def test_a7_convergence_speed_ordering():
    """Rounds to 0.75x ceiling from a pretrained start: v30 <= v1 <= v0."""
    cfg = parse(HARD_TASK_CFG.format(classes=8, dim=12, spc=300, G=4,
                                     regime="edge_noniid", l=2, side=150.0,
                                     zone=7.5, K=35, hidden=24))
    inst = experiments.build_instance(cfg)
    ceiling = experiments.centralized_ceiling(inst)
    w_pre = experiments.pretrain_checkpoint(cfg, 0.6 * ceiling, max_epochs=80)
    res = experiments.sweep_speed(cfg, speeds=[0.0, 1.0, 30.0], seeds=[1, 2, 3],
                                  init_params_vec=w_pre)
    inf = float("inf")
    ordered = 0
    details = []
    for seed in (1, 2, 3):
        r = {v: res.cell(v, seed).rounds_to_target[2] for v in (0.0, 1.0, 30.0)}
        ok = ((r[30.0] if r[30.0] is not None else inf)
              <= (r[1.0] if r[1.0] is not None else inf)
              <= (r[0.0] if r[0.0] is not None else inf))
        ordered += ok
        details.append(f"seed{seed}: v30={r[30.0]} v1={r[1.0]} v0={r[0.0]}")
    report("A7", ordered >= 2,
           f"rounds-to-0.75x-ceiling ordered (v30<=v1<=v0) in {ordered}/3 seeds "
           f"[{'; '.join(details)}]")


def test_a8_delta_mixing_trend():
    """Delta^[j] decreases with mobility and is flat without it."""
    shards = datasets.shared_input_shards(32, 4, 1, 4, 40, 8, seed=5)
    spec = models.ModelSpec(models.QUADRATIC, dim=8, class_count=4, l2_reg=0.05)
    net = mobility.RoadNetwork()
    rounds = 100

    def mixing(speed):
        veh = mobility.init_positions(net, 32, seed=11, sides=datasets.home_edges(32, 4))
        _, hist = mobility.schedule(net, *veh, speed, rounds)
        est = analysis.estimate_divergences(spec, shards, hist, [np.zeros(32)])
        return analysis.mobility_mixing_report(est)

    moving = mixing(30.0)
    decreasing = moving.last_quarter_mean < moving.first_quarter_mean
    report("A8[v=30]", decreasing,
           f"mean Delta last quarter {moving.last_quarter_mean:.4f} < first "
           f"quarter {moving.first_quarter_mean:.4f}")
    still = mixing(0.0)
    rel = abs(still.last_quarter_mean - still.first_quarter_mean) / still.first_quarter_mean
    report("A8[v=0]", rel <= 0.01,
           f"static quarters agree to {rel:.2%} (tol 1%)")


@pytest.mark.slow
def test_a9_speed_saturation():
    """Accuracy gains saturate: the 15->30 step buys no more than 0->2."""
    cfg = parse(HARD_TASK_CFG.format(classes=4, dim=8, spc=500, G=2,
                                     regime="edge_noniid", l=1, side=200.0,
                                     zone=10.0, K=30, hidden=16))
    res = experiments.sweep_speed(cfg, speeds=[0.0, 2.0, 6.0, 15.0, 30.0],
                                  seeds=[1, 2, 3])
    means = {v: res.mean_max_accuracy(v) for v in (0.0, 2.0, 6.0, 15.0, 30.0)}
    gain_first = means[2.0] - means[0.0]
    gain_last = means[30.0] - means[15.0]
    report("A9", gain_last <= gain_first,
           f"marginal gain 15->30 = {gain_last:+.4f} <= gain 0->2 = "
           f"{gain_first:+.4f} (means: " +
           ", ".join(f"v{v:g}={m:.3f}" for v, m in means.items()) + ")")


def test_a10_determinism_byte_identical(tmp_path):
    """Identical config + seed reproduces CSV outputs byte for byte."""
    cfg_text = SHARED_INPUT_CFG.format(speed=30.0, eta=0.05, K=3)
    p = tmp_path / "exp.cfg"

    outputs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        p.write_text(cfg_text.replace("directory = out",
                                      f"directory = {out}"))
        assert cli.main(["run", "--config", str(p)]) == 0
        outputs.append((out / "metrics.csv").read_bytes()
                       + (out / "virtual_trace.csv").read_bytes())
    report("A10", outputs[0] == outputs[1],
           f"metrics and trace CSVs byte-identical across reruns "
           f"({len(outputs[0])} bytes)")
