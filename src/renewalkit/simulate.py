"""Monte Carlo sampling of non-homogeneous renewal paths.

Used as an independent oracle for the solvers: simulate many paths, count
renewals, compare the empirical mean with the solved renewal function.
Sampling is plain inverse transform with one stepping rule: a draw u on
(0, 1] at renewal age s leads to the first t with M(s, t) >= u, where M is
``TwoTimeMatrix.running_max``, each row's running maximum of F.  A path ends
once t passes the horizon, or the grid when u exceeds a defective row.
``sample_path`` bisects M's row tuples one draw at a time.
``estimate_renewal_function`` steps a group of paths at once, drawing one
uniform per live path per step: a guide table (Chen and Asau's indexed
search) puts each draw in one bucket of its row, and a bisection runs only
where that bucket holds a cell of M.  The rows of M are sorted, so both take
the same step, and a single path reads the same draws in either.  The
estimator draws nothing its paths do not read, and its memory is one group's
arrays plus a table no larger than F.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .grids import TwoTimeMatrix, require_index, require_kind, require_window

__all__ = ["RNG_NAME", "STREAM_NAME", "RenewalEstimate", "estimate_renewal_function", "sample_path"]

RNG_NAME = "PCG64"

#: the estimator's paths per group: part of its stream, not a tuning knob
_GROUP = 1 << 14
#: the estimator's stream, as its reports name it: a draw per live path per step, in groups of ``_GROUP``
STREAM_NAME = f"steps/{_GROUP}"


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


def _check_inputs(F: TwoTimeMatrix, start_idx: int, horizon_idx: int) -> tuple[int, int]:
    require_kind(F, "distribution")
    return require_window(F, start_idx, horizon_idx)


def sample_path(
    F: TwoTimeMatrix, start_idx: int, horizon_idx: int, rng: np.random.Generator
) -> list[int]:
    """One renewal path: strictly increasing indices in (start, horizon].

    Each step inverts the cumulative row of the current renewal age with one
    uniform draw on (0, 1].
    """
    cur, horizon_idx = _check_inputs(F, start_idx, horizon_idx)
    rows, random = F.rows, rng.random
    path: list[int] = []
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


def estimate_renewal_function(
    F: TwoTimeMatrix, start_idx: int, horizon_idx: int, *, n_paths: int, seed: int
) -> RenewalEstimate:
    """Monte Carlo estimate of H(start, t) for every t up to the horizon.

    It steps n_paths >= 1 paths on PCG64 seeded with seed >= 0, and checks
    the window and F's kind as ``sample_path`` does.  n_paths, seed and the
    window are read by ``operator.index``, as ``TimeGrid`` reads its
    ``n_points``: ``True`` is 1, and a float fails with its argument named.

    The stream is step-major: paths run in groups of ``_GROUP``, in path
    order, and at each step a group draws one uniform per live path, in
    path order.  A path ends on its first draw past the horizon and draws
    nothing after it, so no draw goes unread, and a single path reads the
    stream as ``sample_path`` does.  Only integer sums per t are kept:
    renewals, and the growth 2k - 1 of a path's squared count at its k-th
    renewal, so the standard errors come from exact sums.  Each step looks
    every live path's draw up in the guide table (see ``_guide_table``) and
    bisects, a round at a time, only the paths whose bucket leaves more than
    one candidate, keeping compacted arrays of the paths still open.  So
    memory is a few arrays of one group's paths plus a table no larger than
    F, whatever the span.
    """
    if (n_paths := require_index(n_paths, "n_paths")) < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if (seed := require_index(seed, "seed")) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    start, horizon = _check_inputs(F, start_idx, horizon_idx)
    span = horizon - start + 1
    rng = np.random.default_rng(seed)
    hits = np.zeros(span, dtype=np.int64)
    sq_hits = np.zeros(span, dtype=np.int64)
    reached = np.array([n_paths] + [0] * span, dtype=np.int64)  # paths with >= k renewals
    M = F.running_max
    K, G = _guide_table(M)
    # flat views, gathered at flat offsets: one index array per gather
    Gf, Mf, width, n = G.ravel(), M.ravel(), K + 2, len(M)
    for first in range(0, n_paths, _GROUP):
        cur = np.full(min(_GROUP, n_paths - first), start, dtype=np.intp)
        step = 0
        while len(cur):
            u = 1.0 - rng.random(len(cur))  # uniform on (0, 1], one per live path
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
            cur = cur[cur <= horizon]
            renewed = np.bincount(cur - start, minlength=span)
            hits += renewed
            sq_hits += (2 * step + 1) * renewed
            step += 1
            reached[step] += len(cur)

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
