"""Monte Carlo sampling of non-homogeneous renewal paths.

Used as an independent oracle for the solvers: simulate many paths, count
renewals, compare the empirical mean with the solved renewal function.
Sampling is plain inverse transform with one stepping rule: a draw u on
(0, 1] at renewal age s leads to the first t with M(s, t) >= u, where M is
``TwoTimeMatrix.running_max``, each row's running maximum of F.  A path ends
once t passes the horizon, or the grid when u exceeds a defective row.
``sample_path`` bisects M's row tuples one draw at a time.
``estimate_renewal_function`` steps all live paths at once: a guide table
(Chen and Asau's indexed search) puts each draw in one bucket of its row, and
a bisection runs only where that bucket holds a cell of M.  The rows of M are
sorted, so both take the same step.  Its memory is the draws its paths read,
one chunk of them at most, plus one buffer of draws and a table no larger
than F.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .grids import TwoTimeMatrix, require_kind

__all__ = ["RNG_NAME", "RenewalEstimate", "estimate_renewal_function", "sample_path"]

RNG_NAME = "PCG64"

#: uniforms drawn and stepped at once by the estimator; bounds its working memory
_CHUNK_DRAWS = 1 << 20
#: uniforms drawn at once into the buffer that a chunk's draws pass through
_SUB_DRAWS = 1 << 16
#: leading columns of a chunk's draws kept at first, before any path shows it needs more
_WINDOW = 32


@dataclass(frozen=True)
class RenewalEstimate:
    """Per-t Monte Carlo estimates of H(start, t), t = start..horizon."""

    start_idx: int
    horizon_idx: int
    means: np.ndarray = field(repr=False)
    std_errs: np.ndarray = field(repr=False)
    #: empirical pmf of the renewal count at the horizon
    terminal_pmf: np.ndarray = field(repr=False)
    n_paths: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("means", "std_errs", "terminal_pmf"):
            a = np.array(getattr(self, name))  # a private copy, read-only like the dataclass
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def t_indices(self) -> np.ndarray:
        return np.arange(self.start_idx, self.horizon_idx + 1)


def _check_inputs(F: TwoTimeMatrix, start_idx: int, horizon_idx: int) -> None:
    require_kind(F, "distribution")
    n = F.n_points
    if not 0 <= start_idx <= horizon_idx < n:
        raise ValueError(f"window ({start_idx}, {horizon_idx}) outside the grid: need 0 <= start <= horizon < {n}")


def sample_path(
    F: TwoTimeMatrix, start_idx: int, horizon_idx: int, rng: np.random.Generator
) -> list[int]:
    """One renewal path: strictly increasing indices in (start, horizon].

    Each step inverts the cumulative row of the current renewal age with one
    uniform draw on (0, 1].
    """
    _check_inputs(F, start_idx, horizon_idx)
    rows, random = F.rows, rng.random
    path: list[int] = []
    cur = start_idx
    while True:
        # len(row) when the draw is past a defective row's total
        nxt = bisect_left(rows[cur], 1.0 - random())
        if nxt > horizon_idx:
            return path
        path.append(nxt)
        cur = nxt


def _guide_table(M: np.ndarray) -> tuple[int, np.ndarray]:
    """K and the table G[s, j] = the first t with M(s, t) >= j / K, j = 1..K.

    Column 0 holds the first t with M(s, t) > 0, as no draw steps to a cell
    where M is 0.  K is a power of two, so u * K and j / K are exact and a
    draw u in (0, 1] lies in bucket b = floor(u K): b / K <= u < (b + 1) / K,
    or u = 1 at b = K.  Its step then lies in [G[s, b], G[s, b + 1]], where a
    last column K + 1 repeats column K for u = 1.  G takes the narrowest
    unsigned dtype that holds n, and K is the largest power of two for which
    G holds no more bytes than M.
    """
    n = len(M)
    dtype = np.min_scalar_type(n)
    K = 1 << ((8 * n // dtype.itemsize - 2).bit_length() - 1)
    keys = np.arange(K + 1) / K
    keys[0] = np.nextafter(0.0, 1.0)  # the first t with M > 0 is the first with M >= the least double
    G = np.empty((n, K + 2), dtype=dtype)
    for s, row in enumerate(M):
        G[s, : K + 1] = row.searchsorted(keys, side="left")
    G[:, K + 1] = G[:, K]
    return K, G


def _draw_columns(
    rng: np.random.Generator, size: int, span: int, lo: int, hi: int, keep: np.ndarray | None = None
) -> np.ndarray:
    """Columns [lo, hi) of the next (size, span) block of uniforms, for the rows in keep.

    The rows are drawn in stream order through one buffer of about
    ``_SUB_DRAWS`` uniforms, so the block is never held whole.  keep is
    increasing and defaults to every row.
    """
    store = np.empty((size if keep is None else len(keep), hi - lo))
    buf = np.empty((min(size, max(1, _SUB_DRAWS // span)), span))
    at = 0
    for first in range(0, size, len(buf)):
        block = rng.random(out=buf[: size - first])
        if keep is None:
            store[first : first + len(block)] = block[:, lo:hi]
        else:
            end = at + int(np.searchsorted(keep[at:], first + len(block)))
            store[at:end] = block[keep[at:end] - first, lo:hi]
            at = end
    return store


def estimate_renewal_function(
    F: TwoTimeMatrix, start_idx: int, horizon_idx: int, *, n_paths: int, seed: int
) -> RenewalEstimate:
    """Monte Carlo estimate of H(start, t) for every t up to the horizon.

    It steps n_paths >= 1 paths on PCG64 seeded with seed >= 0, and checks
    the window and F's kind as ``sample_path`` does.

    Path i steps with row i of the seed's uniforms read as an (n_paths, span)
    block; it makes at most span - 1 renewals, so its last draw ends it.  The
    block is drawn and stepped in chunks of about ``_CHUNK_DRAWS`` uniforms,
    keeping only integer sums per t: renewals, and the growth 2k - 1 of a
    path's squared count at its k-th renewal.  So a seed fixes the result
    whatever the chunk size, and the standard errors come from exact sums.
    Each step looks every live path's draw up in the guide table (see
    ``_guide_table``) and bisects, a round at a time, only the paths whose
    bucket leaves more than one candidate, keeping compacted arrays of the
    paths still open.

    Most paths read few of their draws, so a chunk keeps only a window of
    its leading columns, drawn through a buffer of about ``_SUB_DRAWS``
    uniforms (see ``_draw_columns``).  If paths outlive the window, the
    generator is set back to the chunk's start and the chunk drawn again,
    keeping the columns left of the paths still open.  The window starts at
    ``_WINDOW`` columns and widens after each chunk to the power of two at or
    above the longest path's draws; once it would hold more than half the
    span, chunks are drawn whole into one buffer.  So memory is bounded by
    the draws the paths read, one chunk of them at most, plus one buffer of
    ``_SUB_DRAWS`` uniforms and a table no larger than F.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_inputs(F, start_idx, horizon_idx)
    start, horizon = start_idx, horizon_idx
    span = horizon - start + 1
    rng = np.random.default_rng(seed)
    hits = np.zeros(span, dtype=np.int64)
    sq_hits = np.zeros(span, dtype=np.int64)
    reached = np.array([n_paths] + [0] * span, dtype=np.int64)  # paths with >= k renewals
    chunk = min(n_paths, max(1, _CHUNK_DRAWS // span))
    M = F.running_max
    K, G = _guide_table(M)
    # flat views, gathered at flat offsets: one index array per gather
    Gf, Mf, width, n = G.ravel(), M.ravel(), K + 2, len(M)
    cols, block = _WINDOW, None
    for first in range(0, n_paths, chunk):
        size = min(chunk, n_paths - first)
        if 2 * cols > span:
            # a window would hold more than half the chunk: draw it whole, refilling one buffer
            cols = span
            if block is None:
                block = np.empty((chunk, span))
            draws = rng.random(out=block[:size])
        else:
            state = rng.bit_generator.state
            draws = _draw_columns(rng, size, span, 0, cols)
        lead = 0  # the step whose draws are in column 0 of draws
        rows = np.arange(size)
        cur = np.full(size, start, dtype=np.intp)
        for step in range(span):
            if step == cols:
                # paths outlive the window: draw the chunk again for the columns left of those still open
                draws = None
                rng.bit_generator.state = state
                draws = _draw_columns(rng, size, span, cols, span, rows)
                lead, rows = cols, np.arange(len(rows))
            u = 1.0 - draws[:, step - lead][rows]  # uniform on (0, 1]
            at = cur * width + (u * K).astype(np.intp)
            age, cur, hi = cur, Gf[at].astype(np.intp), Gf[at + 1].astype(np.intp)
            # the step lies in [cur, hi]; bisect, on the paths still open, where that leaves a choice
            todo = np.flatnonzero(cur < hi)
            lo, up, row_at, v = cur[todo], hi[todo], age[todo] * n, u[todo]
            while len(todo):
                mid = (lo + up) >> 1
                at_or_above = Mf[row_at + mid] >= v
                lo = np.where(at_or_above, lo, mid + 1)
                up = np.where(at_or_above, mid, up)
                cur[todo] = lo
                still = lo < up
                if not still.all():
                    todo, lo, up, row_at, v = todo[still], lo[still], up[still], row_at[still], v[still]
            go = cur <= horizon
            rows, cur = rows[go], cur[go]
            renewed = np.bincount(cur - start, minlength=span)
            hits += renewed
            sq_hits += (2 * step + 1) * renewed
            reached[step + 1] += len(rows)
            if not len(rows):
                break
        draws = None
        # the longest path read step + 1 draws
        cols = min(span, max(cols, 1 << step.bit_length()))

    s1 = np.cumsum(hits)
    # sample variance from Python ints, rounded once; a single path gives 0 / 1
    sums = zip(s1.tolist(), np.cumsum(sq_hits).tolist())
    var = [(n_paths * s2 - s * s) / (n_paths * max(1, n_paths - 1)) for s, s2 in sums]
    return RenewalEstimate(
        start_idx=start,
        horizon_idx=horizon,
        means=s1 / n_paths,
        std_errs=np.sqrt(var) / np.sqrt(n_paths),
        terminal_pmf=np.trim_zeros(-np.diff(reached, append=0), "b") / n_paths,
        n_paths=n_paths,
        seed=seed,
    )
