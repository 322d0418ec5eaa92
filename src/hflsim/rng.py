"""Seeded random streams.

Every random draw in the package comes from a Philox4x64 counter-based
generator keyed by (seed, stream tag), so independent components consume
independent streams and identical seeds reproduce runs bit-exactly.
"""

import numpy as np

# Stream tags. Changing these changes every seeded output in the package.
SYNTHETIC_DATA = 1
TRAIN_TEST_SPLIT = 2
PARTITION = 3
MOBILITY_INIT = 4
MOBILITY_TURNS = 5
SHARED_INPUT = 6
MODEL_INIT = 7
BATCH_BASE = 1000  # per-vehicle batch streams use BATCH_BASE + vehicle id

_MASK = (1 << 64) - 1


def stream(seed, tag):
    """Independent Generator for (seed, tag)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = np.array([seed & _MASK, tag & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
