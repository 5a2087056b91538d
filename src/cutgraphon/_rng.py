"""Deterministic, schedule-independent random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (seed, *tags), where tags name the consumer: e.g.
``stream(7, "latents")`` for a sample's latent positions, or
``stream(7, "cut-heur", r)`` for restart r of the heuristic cut norm.
Two consequences we rely on throughout:

* results are reproducible bit-for-bit for a fixed seed, on any platform;
* streams are independent of execution order, so reordering the experiment
  loop (or parallelising it) cannot change any sampled number.
"""

from __future__ import annotations

import numpy as np

from .core import _as_int


def _encode(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        # stable small-int encoding; fine for the short ASCII tags we use
        return int.from_bytes(tag.encode("utf-8"), "little")
    raise TypeError(f"stream tags must be int or str, got {type(tag)!r}")


def stream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator on an independent Philox stream for (seed, *tags).

    A seed that is not an integer >= 0 raises ValidationError.
    """
    entropy = (_as_int(seed, "seed", 0),) + tuple(_encode(t) for t in tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
