"""The benchmark's tracer, perfbench/tracer.py, wraps named functions of the
package and raises at install when one is gone. These tests run it
in-process on small commands, so a change that renames or removes a traced
name fails here and not only in the benchmark."""

import importlib.util
import json
import os

import numpy as np
import pytest

from hflsim import mobility, models

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")

RUN = """
[dataset]
classes = 4
dim = 4
samples_per_class = 40

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 8

[mobility]
edges = 4
side_length = 200.0
intersection_zone = 10.0
speed = 60.0

[hfl]
tau_l = 2
tau_e = 3
cloud_epochs = 2
batch_size = 10

[model]
family = mlp1
hidden_width = 4

[output]
directory = {out}
"""

VERIFY = """
[dataset]
classes = 4
dim = 4

[partition]
regime = edge_noniid
classes_per_unit = 1
vehicles = 8
shared_input = true
shared_samples_per_shard = 10

[mobility]
edges = 4
side_length = 200.0
intersection_zone = 10.0
speed = 60.0

[hfl]
eta = 0.05
tau_l = 2
tau_e = 3
cloud_epochs = 2
full_batch = true
record_virtual = true

[model]
family = quadratic
l2_reg = 0.05

[output]
directory = {out}
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, text", [("run", RUN), ("verify-bounds", VERIFY)])
def test_tracer_hooks_resolve(tmp_path, command, text):
    tracer = load_tracer()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text.format(out=tmp_path / "out"))
    associate, gradient_xy = mobility.associate, models.gradient_xy
    spans = tmp_path / "spans.npz"
    assert tracer.main([str(spans), command, "--config", str(cfg), "--seed", "1"]) == 0
    # every wrapped function is the original again
    assert mobility.associate is associate and models.gradient_xy is gradient_xy
    with np.load(spans) as f:
        counters = json.loads(str(f["meta"]))["counters"]
        names = f["names"].tolist()
    assert counters["mobility.handoffs"] > 0
    assert "mobility.associate" in names and "mobility.schedule" in names
