"""Synthetic instruction-fetch and data-access stream generation.

The generators turn the statistical models in
:class:`repro.uarch.profile.BehaviorProfile` into concrete cache-line
address traces.  Instruction fetch follows a region/visit model (pick a
code region by dynamic weight, enter at a random point, run sequentially
for a basic-block-sized burst); data access is a mixture of streaming
(compulsory) references and skewed references into resident state.

All generators are deterministic given a seed, so experiments and tests
are reproducible.  Their draws are exact rewrites of the
``Generator.choice(p=...)`` and modulo formulation kept in
``tests/trace_oracle.py``: the same generator calls in the same order,
hence the same arrays bit for bit (DESIGN §5m).
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

#: Cache lines per page, and its base-2 logarithm: a line's page is
#: ``line >> _PAGE_SHIFT`` and its offset in the page
#: ``line & (_LINES_PER_PAGE - 1)``.
_LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
_PAGE_SHIFT = _LINES_PER_PAGE.bit_length() - 1
assert _LINES_PER_PAGE == 1 << _PAGE_SHIFT

#: Largest category count drawn by summing comparisons; more categories
#: go through one binary search per draw, as ``Generator.choice`` does.
_COMPARE_MAX_CATEGORIES = 16

#: Draws compared per block, so the comparison masks stay block-sized.
_DRAW_BLOCK = 1 << 14

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


def _kahan_sum(values) -> float:
    """Kahan-compensated sum of ``values`` in index order, the sum
    ``Generator.choice`` checks ``p`` by."""
    total = values[0]
    compensation = 0.0
    for value in values[1:]:
        y = value - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total


def category_cdf(p) -> np.ndarray:
    """The normalised CDF that ``Generator.choice(len(p), size, p=p)``
    draws from.

    ``p`` is checked as ``choice`` checks it, with the same
    ``ValueError`` messages: NaN in the (compensated) sum, then a
    negative entry, then a sum further from 1 than the square root of
    the float epsilon.  The CDF is ``p.cumsum()`` divided by its last
    entry, which is therefore exactly 1.0.
    """
    atol = np.sqrt(np.finfo(np.float64).eps)
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size == 0:
        raise ValueError("p must hold at least one category")
    total = _kahan_sum(p.tolist())
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of "
            "docstring for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_categories(
    rng: np.random.Generator, cdf: np.ndarray, size: int
) -> np.ndarray:
    """``size`` category indices drawn from ``cdf = category_cdf(p)``.

    Returns exactly what ``rng.choice(len(p), size=size, p=p)`` returns
    and leaves ``rng`` in the same state: ``choice`` draws
    ``u = rng.random(size)`` and returns ``cdf.searchsorted(u,
    side="right")``, the number of CDF entries ``<= u``.  Because the
    CDF is non-decreasing, that number is also the count of ``u >=
    cdf[k]`` over ``k``, ties included; the last entry is 1.0 and never
    ``<= u < 1``, so it is left out.  Up to
    :data:`_COMPARE_MAX_CATEGORIES` categories the comparisons are
    summed block by block, which is several times cheaper than a binary
    search per draw; beyond that the binary search is kept.
    """
    u = rng.random(size)
    if len(cdf) > _COMPARE_MAX_CATEGORIES:
        return cdf.searchsorted(u, side="right")
    kinds = np.zeros(size, dtype=np.int64)
    for start in range(0, size, _DRAW_BLOCK):
        block = u[start:start + _DRAW_BLOCK]
        out = kinds[start:start + _DRAW_BLOCK]
        for edge in cdf[:-1]:
            out += block >= edge
    return kinds


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

    region_idx = draw_categories(rng, category_cdf(weights), n_visits)
    run_lengths = rng.geometric(
        1.0 / np.maximum(seq_arr[region_idx], 1.0)
    ).astype(np.int64)
    sizes = sizes_arr[region_idx]
    starts_within = (rng.random(n_visits) * sizes).astype(np.int64)

    # Lay out only the runs up to the one holding reference n_refs.
    ends = np.cumsum(run_lengths)
    kept = int(np.searchsorted(ends, n_refs)) + 1
    region_idx = region_idx[:kept]
    run_lengths = run_lengths[:kept]
    sizes = sizes[:kept]
    starts_within = starts_within[:kept]
    ends = ends[:kept]

    # Reference i of run r fetches the run's first line plus
    # i - (the run's first reference), built without a Python loop.
    trace = np.arange(int(ends[-1]), dtype=np.int64)
    trace += np.repeat(
        bases_arr[region_idx] + starts_within - (ends - run_lengths),
        run_lengths,
    )

    # A run that passes its region's end wraps to the region's start;
    # every other run stays below its region's end already.
    wraps = starts_within + run_lengths > sizes
    if wraps.any():
        refs = np.repeat(wraps, run_lengths)
        region = np.repeat(region_idx[wraps], run_lengths[wraps])
        base = bases_arr[region]
        trace[refs] = base + (trace[refs] - base) % sizes_arr[region]
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


def _scrambled_page_lines(lines: int) -> np.ndarray:
    """First line of the page each page of a ``lines``-line region is
    scrambled to, for ``(lines - 1) // 64 + 1`` pages.

    Page ``k`` of the ``n_pages = lines // 64`` whole pages goes to page
    ``(k * _SCRAMBLE_PRIME) % n_pages``.  The extra entry of a partial
    last page has index ``n_pages``, which that formula folds to page 0.
    """
    n_pages = lines >> _PAGE_SHIFT
    pages = np.arange(((lines - 1) >> _PAGE_SHIFT) + 1, dtype=np.int64)
    pages *= _SCRAMBLE_PRIME
    pages %= n_pages
    pages <<= _PAGE_SHIFT
    return pages


def _skewed_refs(
    n: int, lines: int, zipf: float, rng: np.random.Generator
) -> np.ndarray:
    """Power-law-skewed references over ``lines``.

    Hot ranks are scrambled at *page* granularity: hot lines stay
    clustered within hot pages (allocators and hash tables have page-
    level locality, which the TLB exploits) while hot pages scatter
    across cache sets.  A rank's page is a shift and its offset a mask;
    its scrambled page is one gather from :func:`_scrambled_page_lines`.
    """
    alpha = min(zipf, 0.95)
    gamma = 1.0 / (1.0 - alpha)
    skew = rng.random(n)
    np.power(skew, gamma, out=skew)
    skew *= lines
    np.floor(skew, out=skew)
    ranks = skew.astype(np.int64)
    del skew
    np.minimum(ranks, lines - 1, out=ranks)
    if lines <= _LINES_PER_PAGE:
        return ranks
    pages = ranks >> _PAGE_SHIFT
    ranks &= _LINES_PER_PAGE - 1
    ranks |= _scrambled_page_lines(lines)[pages]
    return ranks


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
    # The kind of each reference is draw_categories' comparison sum:
    # hot below cdf[0], stream from cdf[1], state in between.
    cdf = category_cdf(fractions)
    u = rng.random(n_refs)
    beyond_hot = u >= cdf[0]
    stream = u >= cdf[1]
    del u
    n_beyond_hot = int(np.count_nonzero(beyond_hot))
    n_stream = int(np.count_nonzero(stream))
    counts = (n_refs - n_beyond_hot, n_beyond_hot - n_stream, n_stream)

    hot = _skewed_refs(max(1, counts[0]), hot_lines, 0.3, rng)
    state = _skewed_refs(
        max(1, counts[1]), state_lines, data.state_zipf, rng
    )
    streamed = _stream_refs(
        max(1, counts[2]), stream_lines, data.stream_reuse, rng
    )

    hot += hot_base
    state += state_base
    streamed += stream_base
    trace = np.empty(n_refs, dtype=np.int64)
    trace[stream] = streamed[: counts[2]]
    # stream is a subset of beyond_hot, so their exclusive or is state.
    is_state = np.logical_xor(beyond_hot, stream, out=stream)
    trace[is_state] = state[: counts[1]]
    is_hot = np.logical_not(beyond_hot, out=beyond_hot)
    trace[is_hot] = hot[: counts[0]]
    return trace
