#!/usr/bin/env python3
"""Mutation smoke test: each entry plants one small fault in a temporary
copy of the repository and runs the test that must catch it.

    python3 scripts/mutation_smoke.py

An entry names a file, an exact old text, its replacement and the pytest
node expected to fail. The old text must occur exactly once in the file.
Each mutant copy runs `pytest -x -q <node>` with its own src/ first on
PYTHONPATH; an unmutated copy first runs every node once, which must pass.
The exit code is 0 only when every mutation is caught (its test fails); it
is 1 when an old text is missing or repeated, when a node fails unmutated,
when a mutation survives (its test passes), or when pytest cannot run the
node.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@dataclass(frozen=True)
class Mutation:
    path: str
    old: str
    new: str
    node: str


ANALYSIS, EXPERIMENTS = "src/hflsim/analysis.py", "src/hflsim/experiments.py"
ENGINE, MODELS = "src/hflsim/engine.py", "src/hflsim/models.py"
TEST_ANALYSIS, TEST_ENGINE = "tests/test_analysis.py", "tests/test_engine.py"

MUTATIONS = [
    # a local step weighed by the association the round boundary puts in
    # force, not the one in force
    Mutation(ANALYSIS, "fleet_averages(V[j - 1], ", "fleet_averages(V[j], ",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_scaled_estimates"),
    # the edge step reading Delta_n of the new bracket
    Mutation(ANALYSIS, "+ c[j - 1]", "+ c[j]",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_bounds_equal_scalar_recursion"),
    # a changed edge restarting over its old members
    Mutation(ANALYSIS, "fleet_averages(V[j, 1:], B", "fleet_averages(V[j - 1, 1:], B",
             TEST_ANALYSIS + "::TestPlantedViolations::test_edge_drift_at_a_membership_change"),
    # an edge emptied or filled by the round boundary taking the occupancy
    # of the weights the round trained with
    Mutation(ANALYSIS, "np.where(occupied[j], ", "np.where(occupied[j - 1], ",
             TEST_ANALYSIS + "::TestDriftRecursion::test_restart_at_a_membership_change"),
    # a changed edge keeping its old E
    Mutation(ANALYSIS, "np.where(changed, restart, S[1:])", "np.where(False, restart, S[1:])",
             TEST_ANALYSIS + "::TestPlantedViolations::test_edge_drift_at_a_membership_change"),
    # B not reset to its edge's bound after an edge aggregation
    Mutation(ANALYSIS, "            B = S[1 + hist[j]]\n", "            pass\n",
             TEST_ANALYSIS + "::TestHonestRuns::test_no_violation"),
    # beta_m read as the union's beta in the recursion
    Mutation(ANALYSIS, "eta, beta_m = hfl.eta, inputs.beta_m\n",
             "eta, beta_m = hfl.eta, np.full_like(inputs.beta_m, inputs.beta)\n",
             TEST_ANALYSIS + "::TestDriftRecursion"
             "::test_each_vehicle_steps_with_its_own_smoothness"),
    # U_k read one step before its cloud instant
    Mutation(ANALYSIS, "bounds.central[span - 1::span]", "bounds.central[span - 2::span]",
             TEST_ANALYSIS + "::TestCentralRow::test_epochs_read_the_cloud_instants"),
    # each epoch's U_k compared with the gap at the epoch's start, not its end
    Mutation(ANALYSIS, "trace.gap_u_vtilde[span::span]", "trace.gap_u_vtilde[:-1:span]",
             TEST_ANALYSIS + "::TestCentralRow::test_epochs_read_the_cloud_instants"),
    # a gate that holds when it holds in any epoch
    Mutation(ANALYSIS, '"vtilde_gap_ge_eps": bool(np.all(',
             '"vtilde_gap_ge_eps": bool(np.any(',
             TEST_ANALYSIS + "::TestGapBoundOracle::test_one_gate_fails"),
    # central-drift violations labelled with the 0-based epoch
    Mutation(ANALYSIS, '("central_drift", {"k": int(i) + 1})',
             '("central_drift", {"k": int(i)})',
             TEST_ANALYSIS + "::TestPlantedViolations::test_central_drift"),
    # a corner given to the higher-indexed side
    Mutation("src/hflsim/mobility.py", "return np.floor(pos / a).astype(np.int64) - on_corner",
             "return np.floor(pos / a).astype(np.int64)",
             "tests/test_mobility.py::TestAssociate::test_corner_tie_breaks_low"),
    # the recursion's edge case reading the vehicle sum
    Mutation(ANALYSIS, "s = np.where(edge, trace.s_edge[prev], trace.s_vehicle[prev])",
             "s = np.where(edge, trace.s_vehicle[prev], trace.s_vehicle[prev])",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_bumped_recursion_cases"),
    # the recursion's smoothness the union's beta, which a shard's exceeds
    # off the shared-input construction
    Mutation(ANALYSIS, "beta = max(inputs.beta, float(inputs.beta_m.max()))",
             "beta = inputs.beta",
             TEST_ANALYSIS + "::TestRecursionOffTheConstruction"),
    # the clock's cloud period misread from the trace's schedule as tau_l
    Mutation(ANALYSIS, "    span = hfl.tau_l * hfl.tau_e\n", "    span = hfl.tau_l\n",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_scaled_estimates"),
    # a slack that forgives violations of 1e-8
    Mutation(ANALYSIS, "DEFAULT_SLACK = 1e-9\n", "DEFAULT_SLACK = 1e-6\n",
             TEST_ANALYSIS + "::TestPlantedViolations"),
    # phi with beta*eta/4
    Mutation(ANALYSIS, "phi = float(((1.0 - inputs.beta * eta / 2.0)",
             "phi = float(((1.0 - inputs.beta * eta / 4.0)",
             TEST_ANALYSIS + "::TestGapBoundOracle::test_hand_made_trace"),
    # the vehicle step without its divergence
    Mutation(ANALYSIS, "kick = 1.0 + eta * beta_m, eta * estimates.delta_m",
             "kick = 1.0 + eta * beta_m, 0.0 * estimates.delta_m",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_scaled_estimates"),
    # U's step adding the union's divergence, which is zero
    Mutation(ANALYSIS, "np.concatenate([np.zeros((len(V), 1)), estimates.Delta_n_bracket]",
             "np.concatenate([np.full((len(V), 1), estimates.delta), estimates.Delta_n_bracket]",
             TEST_ANALYSIS + "::TestDriftRecursion::test_central_matches_rational_oracle"),
    # an association history naming an edge past the run's edge count
    # accepted, its vehicles dropped from every edge's weights
    Mutation(ANALYSIS, "    if ((hist < 0) | (hist >= N)).any():\n", "    if (hist < 0).any():\n",
             TEST_ANALYSIS + "::TestDivergencesMatchProbeLoop"
             "::test_edge_outside_the_count_rejected"),
    # rho over every probe instead of the vtilde rows
    Mutation(EXPERIMENTS, "rho = max(est.grad_norm[:len(tr.vtilde)].tolist())",
             "rho = max(est.grad_norm.tolist())",
             TEST_ANALYSIS + "::TestRhoOverVtildeRows"),
    # the gap bound's gates read from the recursion's row, not the central one
    Mutation(EXPERIMENTS, "check_gap_bound(tr, inputs, central, losses)",
             "check_gap_bound(tr, inputs, checks[2], losses)",
             TEST_ANALYSIS + "::TestVerifyBoundsOrder::test_rows_in_report_order"),
    # a gap bound compared with its measured gap though its gates fail
    Mutation(EXPERIMENTS, "    if gap.applicable:\n", "    if True:\n",
             TEST_ANALYSIS + "::TestPlantedViolations::test_gap_bound"),
    # pretraining that returns at the round that hits the target
    Mutation(EXPERIMENTS, "if hit and len(res.metrics) % pre.hfl.tau_e == 0:", "if hit:",
             "tests/test_config_cli.py::TestPretrain::test_target_first_hit_mid_epoch"),
    # the fleet's weighted sum taken over the vehicles in reverse id order
    Mutation(ENGINE, "else terms.sum(axis=0)", "else terms[::-1].sum(axis=0)",
             TEST_ENGINE + "::TestBatchedMeasurement::test_fleet_averages_match_weighted_sum"),
    # row norms that round apart from np.linalg.norm of one row
    Mutation(MODELS, "return np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(-1)",
             "return np.linalg.norm(D, axis=1)",
             TEST_ENGINE + "::TestBatchedMeasurement::test_row_norms_match_linalg_norm"),
    # a round's training loss taken over the eval split
    Mutation(ENGINE, "round_loss = union_eval.loss(u)", "round_loss = split_eval.loss(u)",
             TEST_ENGINE + "::TestRun::test_metric_rows_read_union_and_eval_rows"),
    # the terms of a call taken as many rows as the reused buffer holds,
    # not as B has
    Mutation(ENGINE, "    K = B.shape[0]\n",
             "    K = B.shape[0] if terms is None else len(terms) // (M * P)\n",
             TEST_ENGINE + "::TestBatchedMeasurement::test_fleet_averages_edge_shapes"),
    # one permutation reused for every pass of a chunk
    Mutation(ENGINE, "perms = g.permuted(np.tile(rows, (passes, 1)), axis=1)",
             "perms = np.tile(g.permutation(rows), (passes, 1))",
             TEST_ENGINE + "::TestBatchSampler::test_chunks_match_per_step_stream"),
    # the shuffling group's targets taken at the first step only
    Mutation(ENGINE, 'self.T.take(rows, axis=0, out=T, mode="clip")',
             'T.any() or self.T.take(rows, axis=0, out=T, mode="clip")',
             TEST_ENGINE + "::TestFleetStepMatchesGradientXy::test_steps_equal_gradient_xy_loop"),
    # the softmax families' targets never subtracted from the softmax
    Mutation(MODELS, "        _softmax(R, rows, spread)\n    R -= T\n",
             "        _softmax(R, rows, spread)\n    else:\n        R -= T\n",
             "tests/test_models.py::TestGradientProbes::test_entries_equal_gradient_xy_bitwise"),
    # the ones column of the activations left as tanh(1), which the step's
    # gradient and the evaluation's loss and accuracy each catch
    Mutation(MODELS, "self._Z1[..., -1] = 1.0  # the ones column", "pass  # the ones column",
             "tests/test_models.py::TestWorkspaceMatchesGradientXy"
             "::test_rows_equal_looped_gradient_xy_bitwise"),
    Mutation(MODELS, "self._Z1[..., -1] = 1.0  # the ones column", "pass  # the ones column",
             "tests/test_models.py::test_loss_equals_numpy_reductions"),
    # each label's score taken from the raw scores, every class's summed
    Mutation(MODELS, "lse -= _class_sum(np.multiply(S, T, out=E), rows)",
             "lse -= _class_sum(S, rows)",
             "tests/test_models.py::test_loss_equals_numpy_reductions"),
    # an evaluation's vector never written into its workspace's row
    Mutation(MODELS, "        self._w[:] = w\n", "",
             "tests/test_models.py::test_loss_equals_numpy_reductions"),
    # mlp1's backward buffers never built
    Mutation(MODELS,
             "self._D, self._dZ = np.empty(self._Z.shape), np.empty(self._Z.shape)",
             "pass", "tests/test_models.py::TestWorkspaceMatchesGradientXy"),
    # an mlp1 layer's bias met by a zeros column; the loss shares the
    # fault, so only the unfolded layer algebra tells it apart
    Mutation(MODELS, "np.ones(X.shape[:-1] + (1,))", "np.zeros(X.shape[:-1] + (1,))",
             "tests/test_models.py::test_folded_mlp1_equals_unfolded_layers"),
    # a short class axis summed from its last term down
    Mutation(MODELS, "    s = np.add(Z[..., 0], 0.0, out=out)\n    for j in range(1, c):\n",
             "    s = np.add(Z[..., c - 1], 0.0, out=out)\n    for j in range(c - 2, -1, -1):\n",
             "tests/test_models.py::TestShortAxisReductions::test_class_max_and_sum_equal_numpy"),
    # a round's last in-round snapshots never measured when they do not
    # fill a chunk
    Mutation(ENGINE, "if held == self.chunk or s == self.tau_l - 1:", "if held == self.chunk:",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop::test_snapshots_in_chunks"),
    # v left at vtilde at a cloud instant, not synchronized to u
    Mutation(ENGINE, "self.v[:] = self.trace.u_cloud[cloud_epoch] = avgs[0]",
             "self.trace.u_cloud[cloud_epoch] = avgs[0]",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop"
             "::test_logistic_minibatch_turning_vehicles"),
    # the pre-aggregation distances masked by the empty edges of the
    # association the round trained with, not of the one taking effect
    Mutation(ENGINE, "            state.tau, W, avgs, theta)\n",
             "            state.tau, W, avgs, thetas[j - 1])\n",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop"
             "::test_logistic_minibatch_turning_vehicles"),
    # a round boundary aggregating with the weights of the round before it
    Mutation(ENGINE, "edge_of, B, theta = association[j], weights[j], thetas[j]",
             "edge_of, B, theta = association[j], weights[j - 1], thetas[j]",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop"
             "::test_logistic_minibatch_turning_vehicles"),
    # the edge drift sum taken over the empty edges' NaN distances too
    Mutation(ENGINE, "fleet_averages(theta[None], np.where(occupied, edge, 0.0))",
             "fleet_averages(theta[None], edge)",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop"
             "::test_logistic_minibatch_turning_vehicles"),
    # the shared-input class coverage left to edge_noniid's rule, which the
    # partial-coverage flag excuses, so the construction drops the surplus
    # classes
    Mutation("src/hflsim/datasets.py",
             "        if shared_input:\n"
             "            p.append(f\"shared_input needs classes_per_unit*edges >= classes \"\n"
             "                     f\"({l}*{N} < {C}); allow_partial_class_coverage does not "
             "apply to it\")\n"
             "        elif regime",
             "        if regime",
             "tests/test_config_cli.py::TestExitCodes::test_shared_input_covers_every_class"),
    # the edge-skewed partition's vehicles left unchecked against the edges
    Mutation("src/hflsim/datasets.py",
             "    if N >= 1 and edge_skewed(regime, shared_input) and M % N != 0:\n"
             "        p.append(f\"vehicles must be divisible by edges ({M} % {N})\")\n",
             "",
             "tests/test_config_cli.py::TestCsvClassCoverage"
             "::test_eight_class_csv_rejected_by_the_partition"),
    # [hfl]'s rules no longer collected by validate
    Mutation("src/hflsim/config.py", '    p += [f"[hfl] {m}" for m in h.problems()]\n', "",
             "tests/test_config_cli.py::TestConfigFormat::test_all_violations_reported_at_once"),
    # a seed of 2**64 or more left to rng.stream, which raises mid-setup
    Mutation("src/hflsim/config.py",
             "            if f.name == \"seed\" and v >= rng.SEED_LIMIT:\n"
             "                p.append(f\"[{section}] seed must be < 2**64\")\n",
             "",
             "tests/test_config_cli.py::TestExitCodes::test_seed_of_64_bits_or_more"),
    # a config file that is not UTF-8 left to the decoder's traceback
    Mutation("src/hflsim/config.py",
             "    try:\n"
             "        text = raw.decode(\"utf-8\")\n"
             "    except UnicodeDecodeError as e:\n"
             "        line = raw.count(b\"\\n\", 0, e.start) + 1\n"
             "        raise ConfigError([f\"line {line}: not UTF-8 text\"]) from None\n",
             "    text = raw.decode(\"utf-8\")\n",
             "tests/test_config_cli.py::TestExitCodes::test_file_not_utf8[config]"),
    # and a CSV dataset that is not UTF-8
    Mutation("src/hflsim/datasets.py",
             "    try:\n"
             "        text = raw.decode(\"utf-8\")\n"
             "    except UnicodeDecodeError as e:\n"
             "        row = raw.count(b\"\\n\", 0, e.start) + 1\n"
             "        raise CsvFormatError(f\"row {row}: not UTF-8 text\") from None\n",
             "    text = raw.decode(\"utf-8\")\n",
             "tests/test_config_cli.py::TestExitCodes::test_file_not_utf8[csv]"),
    # partition.csv's edge ids read from the association after the first
    # round, not the one a run starts from
    Mutation("src/hflsim/cli.py", "rows += [[m, edge_of[0, m], s.size,",
             "rows += [[m, edge_of[1, m], s.size,",
             "tests/test_config_cli.py::TestCmdPartitionReport"
             "::test_trace_is_the_run_association"),
    # edge-skewed vehicles numbered round-robin over the edges
    Mutation("src/hflsim/datasets.py",
             "return np.arange(vehicle_count) // (vehicle_count // edge_count)",
             "return np.arange(vehicle_count) % edge_count",
             "tests/test_datasets.py::TestPartition::test_edge_noniid_class_locality"),
    # shared input under another regime no longer edge-skewed, so its
    # vehicles start anywhere on the road
    Mutation("src/hflsim/datasets.py", "return regime == EDGE_NONIID or shared_input",
             "return regime == EDGE_NONIID",
             "tests/test_config_cli.py::TestSchedule"
             "::test_pinned_regimes_start_on_their_home_edges"),
    # a shared-input CSV config's classes and dim left unchecked until the
    # construction builds its data
    Mutation("src/hflsim/config.py", "    elif pt.shared_input:", "    elif False:",
             "tests/test_config_cli.py::TestExitCodes"
             "::test_shared_input_reads_classes_and_dim_whatever_the_kind"),
]


def _read(root, path):
    with open(os.path.join(root, path), encoding="utf-8") as f:
        return f.read()


def text_problems(root=ROOT):
    """One message per entry whose old text does not occur exactly once."""
    out = []
    for i, m in enumerate(MUTATIONS):
        n = _read(root, m.path).count(m.old)
        if n != 1:
            out.append(f"entry {i}: {m.old!r} occurs {n} times in {m.path}")
    return out


def run_copy(nodes, mutation=None):
    """Run the pytest nodes in a temporary copy of the repository, with
    mutation applied if given; returns pytest's exit code (1: a node
    failed, so a mutation was caught)."""
    with tempfile.TemporaryDirectory() as workdir:
        copy = os.path.join(workdir, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__", ".pytest_cache", ".hypothesis"))
        if mutation is not None:
            text = _read(copy, mutation.path)
            with open(os.path.join(copy, mutation.path), "w", encoding="utf-8") as f:
                f.write(text.replace(mutation.old, mutation.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *nodes],
                              cwd=copy, env=env, capture_output=True).returncode


def main():
    problems = text_problems()
    for p in problems:
        print(f"BAD TEXT {p}")
    if problems:
        return 1
    rc = run_copy(sorted({m.node for m in MUTATIONS}))
    if rc != 0:
        print(f"the nodes fail without a mutation (pytest exit {rc})")
        return 1
    failed = 0
    for m in MUTATIONS:
        rc = run_copy([m.node], m)
        verdict = {0: "SURVIVED", 1: "caught"}.get(rc, f"ERROR (pytest exit {rc})")
        failed += rc != 1
        print(f"{verdict}: {m.path}: {m.old.strip()!r} -> {m.new.strip()!r} [{m.node}]")
    print(f"{len(MUTATIONS) - failed} of {len(MUTATIONS)} mutations caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
