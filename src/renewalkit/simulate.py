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
sorted, so both take the same step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .grids import TwoTimeMatrix, require_kind

__all__ = ["RNG_NAME", "RenewalEstimate", "SimConfig", "estimate_renewal_function", "sample_path"]

RNG_NAME = "PCG64"

#: uniforms drawn and stepped at once by the estimator; bounds its working memory
_CHUNK_DRAWS = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int
    start_idx: int
    horizon_idx: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.start_idx <= self.horizon_idx:
            raise ValueError(f"need 0 <= start_idx <= horizon_idx, got ({self.start_idx}, {self.horizon_idx})")


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
    """K and the int32 table G[s, j] = the first t with M(s, t) >= j / K, j = 0..K.

    K is the power of two at or above n - 1, so u * K and j / K are exact and a
    draw u in (0, 1] lies in bucket b = floor(u K): b / K <= u < (b + 1) / K, or
    u = 1 at b = K.  Its step then lies in [G[s, b], G[s, b + 1]], where a last
    column K + 1 repeats column K for u = 1.  With K < 2 (n - 1) the table
    holds fewer bytes than M.
    """
    n = len(M)
    K = 1 << (n - 2).bit_length()
    keys = np.arange(K + 1) / K
    G = np.empty((n, K + 2), dtype=np.int32)
    for s, row in enumerate(M):
        G[s, : K + 1] = row.searchsorted(keys, side="left")
    G[:, K + 1] = G[:, K]
    return K, G


def estimate_renewal_function(F: TwoTimeMatrix, cfg: SimConfig) -> RenewalEstimate:
    """Monte Carlo estimate of H(start, t) for every t up to the horizon.

    Path i steps with row i of the seed's uniforms read as an (n_paths, span)
    block; it makes at most span - 1 renewals, so its last draw ends it.  The
    block is drawn and stepped in chunks of about ``_CHUNK_DRAWS`` uniforms,
    each drawn into the same buffer, keeping only integer sums per t:
    renewals, and the growth 2k - 1 of a path's squared count at its k-th
    renewal.  So memory is bounded by one chunk and a table no larger than F,
    a seed fixes the result whatever the chunk size, and the standard errors
    come from exact sums.  Each step looks every live path's draw up in the
    guide table (see ``_guide_table``) and bisects, a round at a time, only
    the paths whose bucket leaves more than one candidate.
    """
    start, horizon, n_paths = cfg.start_idx, cfg.horizon_idx, cfg.n_paths
    _check_inputs(F, start, horizon)
    span = horizon - start + 1
    rng = np.random.default_rng(cfg.seed)
    hits = np.zeros(span, dtype=np.int64)
    sq_hits = np.zeros(span, dtype=np.int64)
    reached = np.array([n_paths] + [0] * span, dtype=np.int64)  # paths with >= k renewals
    chunk = min(n_paths, max(1, _CHUNK_DRAWS // span))
    M = F.running_max
    K, G = _guide_table(M)
    # refilled by each chunk, so that no two draw blocks are ever live at once
    block = np.empty((chunk, span))
    for first in range(0, n_paths, chunk):
        draws = rng.random(out=block[: min(chunk, n_paths - first)])
        rows = np.arange(len(draws))
        cur = np.full(len(draws), start)
        for step in range(span):
            u = 1.0 - draws[rows, step]  # uniform on (0, 1]
            b = (u * K).astype(np.intp)
            age = cur
            cur, hi = G[age, b], G[age, b + 1]
            # the step lies in [cur, hi]; bisect where that leaves a choice
            todo = np.flatnonzero(cur < hi)
            while len(todo):
                lo, up = cur[todo], hi[todo]
                mid = (lo + up) >> 1
                at_or_above = M[age[todo], mid] >= u[todo]
                cur[todo] = np.where(at_or_above, lo, mid + 1)
                hi[todo] = np.where(at_or_above, mid, up)
                todo = todo[cur[todo] < hi[todo]]
            go = cur <= horizon
            rows, cur = rows[go], cur[go]
            renewed = np.bincount(cur - start, minlength=span)
            hits += renewed
            sq_hits += (2 * step + 1) * renewed
            reached[step + 1] += len(rows)
            if not len(rows):
                break

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
        seed=cfg.seed,
    )
