"""Zipfian text generation (the BDGS Text Generator).

Natural-language corpora have Zipf-distributed word frequencies; the
BDGS text generator preserves exactly that property when scaling the
Wikipedia and Amazon Movie Review seeds.  We synthesise a vocabulary of
pronounceable word tokens and draw documents whose word frequencies
follow Zipf's law, which is what the text workloads (WordCount, Grep,
Sort, Naive Bayes) are sensitive to.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

_SYLLABLES = (
    "ba be bi bo bu da de di do du ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu ra re ri ro ru sa se si so su "
    "ta te ti to tu va ve vi vo vu za ze zi zo zu"
).split()

#: Syllable by draw value; a rejected draw (-1) indexes the trailing None.
_SYLLABLE_BY_DRAW = np.array(_SYLLABLES + [None], dtype=object)

#: Syllables per word are drawn as ``integers(1, 5)``: 1 + a range-4 draw.
_MAX_SYLLABLES = 4

#: Most raw draws per block: 8 KB, about 400 words.  Larger
#: blocks save little time and raise the process's peak memory.
_MAX_BLOCK = 2048


def _lemire(draws: np.ndarray, n: int) -> np.ndarray:
    """numpy's bounded draw ``integers(0, n)`` on each 32-bit draw ``u``.

    The value is ``(u * n) >> 32`` (Lemire's rule).  Where the low 32
    bits of ``u * n`` fall below ``2**32 % n``, numpy rejects ``u`` and
    takes the next draw instead; those entries are -1.  The threshold
    is 0 for a power of two, so range 4 never rejects.
    """
    product = draws.astype(np.int64) * n  # below 2**38: no overflow
    values = product >> 32
    values[(product & 0xFFFFFFFF) < (1 << 32) % n] = -1
    return values


def _make_vocabulary(size: int, rng: np.random.Generator) -> List[str]:
    """Deterministic pronounceable vocabulary of ``size`` distinct words.

    Word by word, ``rng.integers(1, 5)`` syllables each drawn by
    ``rng.choice(_SYLLABLES)``, repeats skipped.  Each of those draws
    maps one raw 32-bit draw by Lemire's rule, so the raw draws come in
    blocks and ``rng`` ends where drawing word by word leaves it
    (DESIGN.md §5l).
    """
    pending = np.empty(0, dtype=np.uint32)  # draws of an unfinished word
    words: List[str] = []
    seen = set()
    while len(words) < size:
        # Each missing word takes at least two draws (a count and a
        # syllable), so this block never reads past the loop's last draw.
        block = min(_MAX_BLOCK, max(1, 2 * (size - len(words)) - len(pending)))
        draws = np.concatenate([
            pending, rng.integers(0, 1 << 32, size=block, dtype=np.uint32)
        ])
        counts = (_lemire(draws, _MAX_SYLLABLES) + 1).tolist()
        syllables = _lemire(draws, len(_SYLLABLES))
        names = _SYLLABLE_BY_DRAW[syllables].tolist()
        # Draws a syllable rejects, then the end of the block.
        stops = np.flatnonzero(syllables < 0).tolist() + [len(names)]
        pos, stop = 0, stops[0]
        while len(words) < size and pos < len(names):
            count = counts[pos]
            end = pos + 1 + count
            if end <= stop:
                word = "".join(names[pos + 1:end])
            else:
                # A rejected draw (skipped, as numpy draws again) or the
                # end of the block lies inside this word.
                parts, end = [], pos + 1
                while len(parts) < count and end < len(names):
                    if names[end] is not None:
                        parts.append(names[end])
                    end += 1
                if len(parts) < count:
                    break  # finish this word with the next block
                word = "".join(parts)
                stop = stops[bisect_left(stops, end)]
            pos = end
            if word not in seen:
                seen.add(word)
                words.append(word)
        pending = draws[pos:]
    return words


@dataclass(frozen=True)
class TextConfig:
    """Shape of a generated corpus."""

    vocabulary_size: int = 5000
    zipf_exponent: float = 1.1
    mean_words_per_doc: int = 120

    def __post_init__(self) -> None:
        if self.vocabulary_size < 1:
            raise ValueError("vocabulary_size must be >= 1")
        if self.zipf_exponent <= 1.0:
            raise ValueError("zipf_exponent must be > 1 for a proper Zipf law")
        if self.mean_words_per_doc < 1:
            raise ValueError("mean_words_per_doc must be >= 1")


class TextGenerator:
    """Generates documents with Zipf-distributed word frequencies."""

    def __init__(self, config: TextConfig = TextConfig(), seed: int = 42):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.vocabulary = _make_vocabulary(config.vocabulary_size, self._rng)
        ranks = np.arange(1, config.vocabulary_size + 1, dtype=float)
        weights = np.power(ranks, -config.zipf_exponent)
        self._probs = weights / weights.sum()

    def words(self, n: int) -> List[str]:
        """``n`` words drawn from the Zipf distribution."""
        if n < 0:
            raise ValueError("n must be non-negative")
        indices = self._rng.choice(
            self.config.vocabulary_size, size=n, p=self._probs
        )
        return [self.vocabulary[i] for i in indices]

    def document(self) -> str:
        """One document of roughly ``mean_words_per_doc`` words."""
        length = max(1, int(self._rng.poisson(self.config.mean_words_per_doc)))
        return " ".join(self.words(length))

    def documents(self, n: int) -> Iterator[str]:
        """Lazily generate ``n`` documents."""
        for _ in range(n):
            yield self.document()


class WikipediaCorpus(TextGenerator):
    """Scaled stand-in for the 4,300,000-article Wikipedia seed.

    The paper's Wikipedia-derived records are ~64 KB key-value text
    entries; documents here are longer than the Amazon reviews and use a
    larger vocabulary.
    """

    def __init__(self, seed: int = 42):
        super().__init__(
            TextConfig(vocabulary_size=8000, zipf_exponent=1.1, mean_words_per_doc=400),
            seed=seed,
        )


class AmazonReviews(TextGenerator):
    """Scaled stand-in for the 7,911,684-review Amazon Movie Reviews seed.

    Yields ``(review_text, score)`` pairs; scores follow the well-known
    J-shaped online-review distribution, which is what Naive Bayes
    classification exercises.
    """

    SCORE_PROBS = (0.07, 0.05, 0.08, 0.20, 0.60)  # 1..5 stars

    def __init__(self, seed: int = 43):
        super().__init__(
            TextConfig(vocabulary_size=4000, zipf_exponent=1.15, mean_words_per_doc=80),
            seed=seed,
        )

    def reviews(self, n: int) -> Iterator[tuple]:
        """Lazily generate ``n`` (text, score) review records."""
        scores = self._rng.choice(
            [1, 2, 3, 4, 5], size=n, p=self.SCORE_PROBS
        )
        for i in range(n):
            score = int(scores[i])
            # Make the text weakly predictive of the score so a real
            # classifier has signal to learn, as in the genuine data.
            text = self.document()
            sentiment = "wonderful great" if score >= 4 else "terrible poor"
            yield (f"{text} {sentiment}", score)
