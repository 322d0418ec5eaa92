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
    # the edge-drift bracket off by one, ahead
    Mutation(ANALYSIS, "    bracket = tau // inputs.tau_l\n",
             "    bracket = (tau + 1) // inputs.tau_l\n",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_scaled_estimates"),
    # the edge-drift bracket one behind at tau = j*tau_l, where the
    # association changes
    Mutation(ANALYSIS, "    bracket = tau // inputs.tau_l\n",
             "    bracket = (tau - 1) // inputs.tau_l\n",
             TEST_ANALYSIS + "::TestPlantedViolations::test_edge_drift_at_a_membership_change"),
    # (j + 1) weights in the central drift bound's mobility term
    Mutation(ANALYSIS, "mix = (js * estimates.Delta_bracket[idx]).sum(axis=-1)",
             "mix = ((js + 1) * estimates.Delta_bracket[idx]).sum(axis=-1)",
             TEST_ANALYSIS + "::TestComputeUk::test_rational_term_by_term_oracle"),
    # each epoch's U_k compared with the gap at the epoch's start, not its end
    Mutation(ANALYSIS, "measured=trace.gap_u_vtilde[span::span][:K]",
             "measured=trace.gap_u_vtilde[::span][:K]",
             TEST_ANALYSIS + "::TestDriftReport::test_epochs_equal_per_window_bounds"),
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
    # a slack that forgives violations of 1e-8
    Mutation(ANALYSIS, "DEFAULT_SLACK = 1e-9\n", "DEFAULT_SLACK = 1e-6\n",
             TEST_ANALYSIS + "::TestPlantedViolations"),
    # phi with beta*eta/4
    Mutation(ANALYSIS, "phi = float(((1.0 - inputs.beta * inputs.eta / 2.0)",
             "phi = float(((1.0 - inputs.beta * inputs.eta / 4.0)",
             TEST_ANALYSIS + "::TestGapBoundOracle::test_hand_made_trace"),
    # the vehicle bound with the edge correction of a zero Delta
    Mutation(ANALYSIS, "drift_bound(tau0[:, None], estimates.delta_m, estimates.delta_m,",
             "drift_bound(tau0[:, None], estimates.delta_m, 0.0,",
             TEST_ANALYSIS + "::TestCheckersMatchScalarLoops::test_scaled_estimates"),
    # r_term without its -T*eta*delta
    Mutation(ANALYSIS, "r_term = drift_bound(tau_l * tau_e, delta, 0.0,",
             "r_term = drift_bound(tau_l * tau_e, delta, delta,",
             TEST_ANALYSIS + "::TestComputeUk::test_rational_term_by_term_oracle"),
    # rho over every probe instead of the vtilde rows
    Mutation(EXPERIMENTS, "rho = max(est.grad_norm[:len(tr.vtilde)].tolist())",
             "rho = max(est.grad_norm.tolist())",
             TEST_ANALYSIS + "::TestRhoOverVtildeRows"),
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
    # a workspace's label offsets taken from the first step's labels only
    Mutation(MODELS, "return np.add(self._base, y, out=self._label)",
             "return self._label if self._label.any() else np.add(self._base, y, out=self._label)",
             TEST_ENGINE + "::TestFleetStepMatchesGradientXy::test_steps_equal_gradient_xy_loop"),
    # the ones column of the activations left as tanh(1), which the step's
    # gradient and the evaluation's loss and accuracy each catch
    Mutation(MODELS, "    Z1[..., -1] = 1.0  # the ones column", "    pass  # the ones column",
             "tests/test_models.py::TestWorkspaceMatchesGradientXy"
             "::test_rows_equal_looped_gradient_xy_bitwise"),
    Mutation(MODELS, "    Z1[..., -1] = 1.0  # the ones column", "    pass  # the ones column",
             "tests/test_models.py::test_loss_equals_numpy_reductions"),
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
    Mutation(ENGINE, "if held == chunk or s == tau_l - 1:", "if held == chunk:",
             TEST_ENGINE + "::TestRecordingMatchesPerRowLoop::test_snapshots_in_chunks"),
    # the shared-input class coverage left to the construction, which
    # reports it as an edge_noniid error
    Mutation("src/hflsim/config.py",
             "        if pt.shared_input:\n"
             "            p.append(f\"[partition] shared_input needs classes_per_unit*edges >= "
             "classes \"\n"
             "                     f\"({l}*{N} < {C}); allow_partial_class_coverage does not "
             "apply to it\")\n"
             "        elif pt.regime",
             "        if pt.regime",
             "tests/test_config_cli.py::TestExitCodes::test_shared_input_covers_every_class"),
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
