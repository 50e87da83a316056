import csv

import pytest

from renewalkit import grids


@pytest.fixture
def csv_writer(tmp_path):
    """Write policy/claim CSV pairs into tmp_path and return their paths."""

    def write(policies, claims, prefix=""):
        p_path = tmp_path / f"{prefix}policies.csv"
        c_path = tmp_path / f"{prefix}claims.csv"
        with open(p_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["policy_id", "entry_age"])
            w.writerows(policies)
        with open(c_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["policy_id", "claim_age"])
            w.writerows(claims)
        return p_path, c_path

    return write


@pytest.fixture
def parses(monkeypatch):
    """Empty the reader's kept matrix and record every parse it makes."""
    monkeypatch.setattr(grids, "_last", None)
    seen = []
    parse = grids._parse_matrix_tsv

    def counted(fh):
        seen.append(fh)
        return parse(fh)

    monkeypatch.setattr(grids, "_parse_matrix_tsv", counted)
    return seen
