"""Synthetic instruction-fetch and data-access stream generation.

The generators turn the statistical models in
:class:`repro.uarch.profile.BehaviorProfile` into concrete cache-line
address traces.  Instruction fetch follows a region/visit model (pick a
code region by dynamic weight, enter at a random point, run sequentially
for a basic-block-sized burst); data access is a mixture of streaming
(compulsory) references and skewed references into resident state.

All generators are deterministic given a seed, so experiments and tests
are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.profile import (
    LINE_BYTES,
    PAGE_BYTES,
    CodeFootprint,
    DataFootprint,
)

#: Large prime used as a multiplicative scrambler so that "hot" state
#: lines are scattered across cache sets instead of clustering at the
#: bottom of the region.
_SCRAMBLE_PRIME = 2654435761

#: Gap, in cache lines, left between generated regions so that distinct
#: regions never alias to the same lines.
_REGION_GAP_LINES = 1 << 14


def code_line_ranges(footprint: CodeFootprint) -> list:
    """(base_line, n_lines) for every code region, matching the fetch
    trace generator's address assignment."""
    ranges = []
    cursor = 0
    for region in footprint.regions:
        ranges.append((cursor, region.lines))
        cursor += region.lines + _REGION_GAP_LINES
    return ranges


def data_line_ranges(data: DataFootprint, base_line: int = 1 << 24) -> dict:
    """(base_line, n_lines) for the hot/state/stream data regions,
    matching the data trace generator's address assignment."""
    hot_lines = max(1, data.hot_bytes // LINE_BYTES)
    state_lines = max(1, data.state_bytes // LINE_BYTES)
    stream_lines = max(1, data.stream_bytes // LINE_BYTES)
    hot_base = base_line
    state_base = hot_base + hot_lines + _REGION_GAP_LINES
    stream_base = state_base + state_lines + _REGION_GAP_LINES
    return {
        "hot": (hot_base, hot_lines),
        "state": (state_base, state_lines),
        "stream": (stream_base, stream_lines),
    }


def generate_fetch_trace(
    footprint: CodeFootprint, n_refs: int, seed: int = 11
) -> np.ndarray:
    """Generate ``n_refs`` instruction-fetch line addresses.

    Each "visit" selects a region according to its dynamic weight, enters
    at a uniformly random line, and fetches a geometrically distributed
    run of consecutive lines whose mean is the region's sequentiality.

    Returns an int64 array of cache-line numbers.
    """
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)
    regions = footprint.regions
    weights = np.array(footprint.normalized_weights())

    # Assign non-overlapping line bases to regions.
    bases_arr = np.array(
        [base for base, _ in code_line_ranges(footprint)], dtype=np.int64
    )
    sizes_arr = np.array([r.lines for r in regions], dtype=np.int64)
    seq_arr = np.array([r.sequentiality for r in regions])

    # Estimate the number of visits needed, then trim to n_refs.
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
    # Offsets 0..run_len-1 within each run, built without a Python loop.
    ends = np.cumsum(run_lengths)
    run_starts = ends - run_lengths
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        run_starts, run_lengths
    )
    trace = np.repeat(starts, run_lengths) + offsets

    # Keep runs inside their region by wrapping at the region end.
    region_of_ref = np.repeat(region_idx, run_lengths)
    rel = trace - bases_arr[region_of_ref]
    rel %= sizes_arr[region_of_ref]
    trace = bases_arr[region_of_ref] + rel
    return trace[:n_refs]


def _stream_refs(
    n_stream: int, stream_lines: int, reuse: float, rng: np.random.Generator
) -> np.ndarray:
    """Sequential walk with short-range re-references (record parsing)."""
    refs_per_line = 1.0 + reuse
    n_new_lines = max(1, int(n_stream / refs_per_line))
    new_lines = np.arange(n_new_lines, dtype=np.int64) % stream_lines
    repeats = np.full(n_new_lines, int(round(refs_per_line)), dtype=np.int64)
    deficit = n_stream - int(repeats.sum())
    if deficit > 0:
        bump = rng.choice(n_new_lines, size=deficit)
        np.add.at(repeats, bump, 1)
    elif deficit < 0:
        candidates = np.where(repeats > 1)[0]
        trim = rng.choice(candidates, size=min(-deficit, candidates.size))
        np.subtract.at(repeats, trim, 1)
    trace = np.repeat(new_lines, np.maximum(repeats, 1))[:n_stream]
    # Small random back-jitter: re-references land on recently touched
    # lines rather than strictly the current one.
    jitter = rng.integers(0, 3, size=trace.size)
    return np.maximum(trace - jitter, 0)


def _skewed_refs(
    n: int, lines: int, zipf: float, rng: np.random.Generator
) -> np.ndarray:
    """Power-law-skewed references over ``lines``.

    Hot ranks are scrambled at *page* granularity: hot lines stay
    clustered within hot pages (allocators and hash tables have page-
    level locality, which the TLB exploits) while hot pages scatter
    across cache sets.
    """
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
    """Generate ``n_refs`` data-access line addresses.

    The trace interleaves three access kinds per the
    :class:`~repro.uarch.profile.DataFootprint` model:

    - *hot* references (stack, locals, hot fields) hit a small region
      with mild skew and dominate the reference count,
    - *state* references select lines from the resident-state region with
      a power-law skew controlled by ``state_zipf``,
    - *stream* references walk sequentially through the stream region;
      each newly touched line is re-referenced ``stream_reuse`` times on
      average while its record is parsed.

    Hot lines are scrambled across the region so they do not collide in
    one cache set.  Returns an int64 array of cache-line numbers (offset
    by ``base_line`` so data never aliases with code).
    """
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
        hot_base + _skewed_refs(max(1, counts[0]), hot_lines, 0.3, rng),
        state_base
        + _skewed_refs(max(1, counts[1]), state_lines, data.state_zipf, rng),
        stream_base
        + _stream_refs(max(1, counts[2]), stream_lines, data.stream_reuse, rng),
    ]

    trace = np.empty(n_refs, dtype=np.int64)
    for kind in range(3):
        if counts[kind] > 0:
            trace[kinds == kind] = parts[kind][: counts[kind]]
    return trace
