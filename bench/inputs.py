"""Seeded input generators for the benchmark workloads.

Both generators follow the synthetic-pipeline acceptance test
(``tests/test_acceptance.py``): ``generating_df(43, 1.0)`` is its
``_generating_df()`` value for value, and ``write_synthetic_corpus`` keeps
the draw order of its ``_write_synthetic_corpus``, so seed 424242 at 1e5
policies writes the acceptance corpus byte for byte.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from renewalkit import simulate
from renewalkit.claims import BASE_AGE
from renewalkit.grids import TimeGrid, TwoTimeMatrix


def generating_df(n: int = 43, h: float = 1.0) -> TwoTimeMatrix:
    """Age-dependent truncated-geometric waiting-time law on a step-``h`` grid.

    Row s (age 18 + s h) renews with probability p h per step, where
    p = 0.10 + 0.15 exp(-s h / 15) is the yearly rate; the lags that fit on
    the grid are renormalised to a proper row.  At h = 1 every product with
    h is exact, so the acceptance test's n = 43 law comes out unchanged.
    """
    grid = TimeGrid(float(BASE_AGE), h, n)
    values = np.zeros((n, n))
    for s in range(n - 1):
        p = (0.10 + 0.15 * np.exp(-(s * h) / 15.0)) * h
        k = np.arange(1, n - s)
        inc = p * (1 - p) ** (k - 1)
        inc /= inc.sum()
        values[s, s + 1 :] = np.cumsum(inc)
    return TwoTimeMatrix(grid, values, "distribution")


def write_synthetic_corpus(
    F: TwoTimeMatrix, n_policies: int, seed: int, out_dir: Path
) -> tuple[Path, Path]:
    """Write ``policies.csv`` and ``claims.csv`` for ``n_policies`` sampled lives.

    Entry ages are geometric from 18 (capped at 45); every seventh age-24
    entry is left blank, as the cleaner imputes 24; each life's claims are
    one renewal path drawn with :func:`renewalkit.simulate.sample_path`; and
    every 211th life gets one claim before its entry age, which the cleaner
    must discard.  Rows are streamed, so memory stays flat in the corpus size.
    """
    rng = np.random.default_rng(seed)
    n = F.n_points
    entry_ages = BASE_AGE + np.minimum(rng.geometric(0.12, size=n_policies) - 1, 27)
    out_dir.mkdir(parents=True, exist_ok=True)
    p_path, c_path = out_dir / "policies.csv", out_dir / "claims.csv"
    with open(p_path, "w", newline="") as pf, open(c_path, "w", newline="") as cf:
        policies, claims = csv.writer(pf), csv.writer(cf)
        policies.writerow(("policy_id", "entry_age"))
        claims.writerow(("policy_id", "claim_age"))
        for i in range(n_policies):
            pid = f"P{i:06d}"
            age = int(entry_ages[i])
            missing = age == 24 and i % 7 == 0
            policies.writerow((pid, "" if missing else age))
            # looked up per call so that a traced run sees the wrapped sampler
            for idx in simulate.sample_path(F, age - BASE_AGE, n - 1, rng):
                claims.writerow((pid, idx + BASE_AGE))
            if i % 211 == 0:
                claims.writerow((pid, age - 3))
    return p_path, c_path
