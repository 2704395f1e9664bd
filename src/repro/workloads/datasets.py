"""Synthetic dataset generators for the functional benchmark kernels.

The paper drives its benchmarks with real corpora (Phoenix++ inputs,
UMTS traffic).  We have none of those offline, so each generator produces
a statistically similar synthetic stand-in: Zipf word frequencies for
text, low-entropy alphabets for string matching, and Poisson-ish
connection events for the RNC.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = [
    "synthetic_text",
    "low_entropy_string",
    "rnc_events",
]

_WORD_STEMS = [
    "data", "center", "cloud", "server", "query", "video", "photo", "user",
    "page", "view", "cache", "ring", "core", "thread", "memory", "packet",
    "search", "index", "sort", "count", "map", "reduce", "task", "deadline",
]


def synthetic_text(n_words: int, seed: int = 0) -> str:
    """Zipf-distributed word stream (WordCount input)."""
    rng = random.Random(seed)
    vocab = [f"{stem}{i}" for i in range(8) for stem in _WORD_STEMS]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]   # Zipf s=1
    return " ".join(rng.choices(vocab, weights=weights, k=n_words))


def low_entropy_string(n: int, alphabet: str = "acgt", seed: int = 0) -> str:
    """DNA-like text where short patterns recur (KMP input)."""
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(n))


def rnc_events(n: int, mean_gap: float = 400.0, work_range=(60_000, 160_000),
               deadline_slack: float = 340_000, seed: int = 0
               ) -> List[Tuple[float, float, float]]:
    """UMTS RNC connection events: (arrival, work_cycles, deadline).

    Deadlines are ``arrival + deadline_slack`` — the hard-real-time budget
    Fig 21 uses (340 000 cycles).
    """
    rng = random.Random(seed)
    events = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(1.0 / mean_gap)
        work = rng.uniform(*work_range)
        events.append((t, work, t + deadline_slack))
    return events
