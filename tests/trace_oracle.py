"""Choice-and-modulo formulation of the trace generators (test-only oracle).

These are the bodies :mod:`repro.uarch.trace` had before its draws were
rewritten (DESIGN §5m): categories come from
``Generator.choice(p=...)`` and the page scrambling from int64 ``//``,
``%`` and a modulo by the page count.  The differential tests hold the
generators to them, array for array and generator state for generator
state.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.profile import (
    LINE_BYTES,
    PAGE_BYTES,
    CodeFootprint,
    DataFootprint,
)
from repro.uarch.trace import (
    _SCRAMBLE_PRIME,
    _stream_refs,
    code_line_ranges,
    data_line_ranges,
)


def generate_fetch_trace(
    footprint: CodeFootprint, n_refs: int, seed: int = 11
) -> np.ndarray:
    """:func:`repro.uarch.trace.generate_fetch_trace` with ``choice``."""
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)
    regions = footprint.regions
    weights = np.array(footprint.normalized_weights())

    bases_arr = np.array(
        [base for base, _ in code_line_ranges(footprint)], dtype=np.int64
    )
    sizes_arr = np.array([r.lines for r in regions], dtype=np.int64)
    seq_arr = np.array([r.sequentiality for r in regions])

    mean_run = float(np.dot(weights, seq_arr))
    n_visits = max(1, int(n_refs / mean_run * 1.3) + 8)

    region_idx = rng.choice(len(regions), size=n_visits, p=weights)
    run_lengths = rng.geometric(
        1.0 / np.maximum(seq_arr[region_idx], 1.0)
    ).astype(np.int64)
    starts_within = (rng.random(n_visits) * sizes_arr[region_idx]).astype(
        np.int64
    )
    starts = bases_arr[region_idx] + starts_within

    total = int(run_lengths.sum())
    ends = np.cumsum(run_lengths)
    run_starts = ends - run_lengths
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        run_starts, run_lengths
    )
    trace = np.repeat(starts, run_lengths) + offsets

    region_of_ref = np.repeat(region_idx, run_lengths)
    rel = trace - bases_arr[region_of_ref]
    rel %= sizes_arr[region_of_ref]
    trace = bases_arr[region_of_ref] + rel
    return trace[:n_refs]


def skewed_refs(
    n: int, lines: int, zipf: float, rng: np.random.Generator
) -> np.ndarray:
    """:func:`repro.uarch.trace._skewed_refs` with ``//``, ``%`` and a
    modulo by the page count."""
    lines_per_page = PAGE_BYTES // LINE_BYTES
    alpha = min(zipf, 0.95)
    gamma = 1.0 / (1.0 - alpha)
    u = rng.random(n)
    ranks = np.floor(lines * np.power(u, gamma)).astype(np.int64)
    ranks = np.minimum(ranks, lines - 1)
    if lines <= lines_per_page:
        return ranks
    n_pages = lines // lines_per_page
    pages = ranks // lines_per_page
    offsets = ranks % lines_per_page
    scrambled_pages = (pages * _SCRAMBLE_PRIME) % n_pages
    return np.minimum(
        scrambled_pages * lines_per_page + offsets, lines - 1
    )


def generate_data_trace(
    data: DataFootprint,
    n_refs: int,
    seed: int = 13,
    base_line: int = 1 << 24,
) -> np.ndarray:
    """:func:`repro.uarch.trace.generate_data_trace` with ``choice``."""
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)

    ranges = data_line_ranges(data, base_line)
    hot_base, hot_lines = ranges["hot"]
    state_base, state_lines = ranges["state"]
    stream_base, stream_lines = ranges["stream"]

    fractions = np.array(
        [
            data.hot_fraction if data.hot_bytes else 0.0,
            data.state_fraction if data.state_bytes else 0.0,
            data.stream_fraction if data.stream_bytes else 0.0,
        ]
    )
    if fractions.sum() == 0:
        raise ValueError("data footprint has no referencable region")
    fractions /= fractions.sum()
    kinds = rng.choice(3, size=n_refs, p=fractions)
    counts = np.bincount(kinds, minlength=3)

    parts = [
        hot_base + skewed_refs(max(1, counts[0]), hot_lines, 0.3, rng),
        state_base
        + skewed_refs(max(1, counts[1]), state_lines, data.state_zipf, rng),
        stream_base
        + _stream_refs(max(1, counts[2]), stream_lines, data.stream_reuse, rng),
    ]

    trace = np.empty(n_refs, dtype=np.int64)
    for kind in range(3):
        if counts[kind] > 0:
            trace[kinds == kind] = parts[kind][: counts[kind]]
    return trace
