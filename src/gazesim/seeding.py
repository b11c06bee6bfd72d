"""Deterministic RNG stream derivation.

Every stochastic component draws from its own generator, derived from a
trial seed plus a small integer purpose tag (and optionally a frame or
step index). Streams derived this way are independent of each other and
of execution order, which is what makes trials reproducible and safe to
run in parallel.
"""
from __future__ import annotations

import numpy as np

# Purpose tags. Keep these stable: changing them reshuffles every result.
STREAM_RESPOND = 1
STREAM_GAZE = 2
STREAM_HEAD = 3
STREAM_LASER = 4
STREAM_FILTER = 5
STREAM_INIT = 6


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Return a generator for stream (seed, *keys)."""
    return np.random.default_rng([seed, *keys])


def derive_seed(seed: int, *keys: int) -> int:
    """Collapse (seed, *keys) into a single integer seed."""
    ss = np.random.SeedSequence([seed, *keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
