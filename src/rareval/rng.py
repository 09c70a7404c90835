"""Counter-based random substreams.

Every randomized procedure derives an independent generator from
``(seed, *key)`` rather than advancing one shared stream, so results do not
depend on execution order or thread count. The default seed is a fixed
constant: running with no flags is reproducible. A seed is an unsigned
64-bit integer; one outside that range is an error rather than an alias of
the seed it equals modulo 2**64.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import ConfigError

DEFAULT_SEED = 1729

MAX_SEED = (1 << 64) - 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for the given seed and key tuple."""
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be an integer in 0..{MAX_SEED}, got {seed}")
    return np.random.default_rng((seed, *(k & MAX_SEED for k in key)))


def check_seed(seed) -> None:
    """Reject a config's seed unless it is an integer (not a bool) in 0..MAX_SEED."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be an integer in 0..{MAX_SEED}, got {seed!r}")
