"""Word-by-word reference model of the vocabulary build (test-only oracle).

This is the scalar loop :func:`repro.datagen.text._make_vocabulary` used
before it read every draw from blocks of raw PCG64 output: one
``rng.integers`` call per word and one ``rng.choice`` call per
syllable.  The differential tests hold the block build to it, both the
words and the generator state it leaves behind.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datagen.text import _SYLLABLES


def _make_vocabulary(size: int, rng: np.random.Generator) -> List[str]:
    """Deterministic pronounceable vocabulary of ``size`` distinct words."""
    words = []
    seen = set()
    while len(words) < size:
        n_syllables = int(rng.integers(1, 5))
        word = "".join(rng.choice(_SYLLABLES) for _ in range(n_syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words
