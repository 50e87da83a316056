"""Monte Carlo sampling of non-homogeneous renewal paths.

Used as an independent oracle for the solvers: simulate many paths, count
renewals, compare the empirical mean with the solved renewal function.
Sampling is plain inverse transform on the cumulative rows of F: a draw u
on (0, 1] at renewal age s leads to the first t with F(s, t) >= u.  A path
ends once t passes the horizon, or the grid when u exceeds a defective row.
"""

from __future__ import annotations

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
    rng_name: str = RNG_NAME

    def t_indices(self) -> np.ndarray:
        return np.arange(self.start_idx, self.horizon_idx + 1)


def _check_inputs(F: TwoTimeMatrix, start_idx: int, horizon_idx: int) -> None:
    require_kind(F, "distribution")
    n = F.n_points
    if not 0 <= start_idx <= horizon_idx < n:
        raise ValueError(f"window ({start_idx}, {horizon_idx}) outside the grid: need 0 <= start <= horizon < {n}")


def _step(row: np.ndarray, u):
    """The first t with row[t] >= u; len(row) when u is past the row total."""
    return row.searchsorted(u, side="left")


def sample_path(
    F: TwoTimeMatrix, start_idx: int, horizon_idx: int, rng: np.random.Generator
) -> list[int]:
    """One renewal path: strictly increasing indices in (start, horizon].

    Each step inverts the cumulative row of the current renewal age with one
    uniform draw on (0, 1].
    """
    _check_inputs(F, start_idx, horizon_idx)
    vals = F.values
    path: list[int] = []
    cur = start_idx
    while True:
        nxt = int(_step(vals[cur], 1.0 - rng.random()))
        if nxt > horizon_idx:
            return path
        path.append(nxt)
        cur = nxt


def estimate_renewal_function(F: TwoTimeMatrix, cfg: SimConfig) -> RenewalEstimate:
    """Monte Carlo estimate of H(start, t) for every t up to the horizon.

    Path i steps with row i of the seed's uniforms read as an (n_paths, span)
    block; it makes at most span - 1 renewals, so its last draw ends it.  The
    block is drawn and stepped in chunks of about ``_CHUNK_DRAWS`` uniforms,
    keeping only integer sums per t: renewals, and the growth 2k - 1 of a
    path's squared count at its k-th renewal.  So memory is bounded by the
    chunk, a seed fixes the result whatever the chunk size, and the standard
    errors come from exact sums.
    """
    start, horizon, n_paths = cfg.start_idx, cfg.horizon_idx, cfg.n_paths
    _check_inputs(F, start, horizon)
    span = horizon - start + 1
    rng = np.random.default_rng(cfg.seed)
    hits = np.zeros(span, dtype=np.int64)
    sq_hits = np.zeros(span, dtype=np.int64)
    reached = np.array([n_paths] + [0] * span, dtype=np.int64)  # paths with >= k renewals
    chunk = max(1, _CHUNK_DRAWS // span)
    for first in range(0, n_paths, chunk):
        draws = rng.random((min(chunk, n_paths - first), span))
        np.subtract(1.0, draws, out=draws)  # uniform on (0, 1]
        rows = np.arange(len(draws))
        cur = np.full(len(draws), start)
        for step in range(span):
            # group the live paths by renewal age: one search per distinct age
            order = np.argsort(cur)
            rows, cur = rows[order], cur[order]
            u = draws[rows, step]
            edges = [0, *(np.flatnonzero(cur[1:] != cur[:-1]) + 1), len(cur)]
            for a, b in zip(edges, edges[1:]):
                cur[a:b] = _step(F.values[cur[a]], u[a:b])
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
