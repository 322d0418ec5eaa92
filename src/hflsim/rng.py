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

SEED_LIMIT = 1 << 64  # Philox keys take 64-bit words


def stream(seed, tag):
    """Independent Generator for (seed, tag); seed in [0, 2**64)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
