import csv
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renewalkit import claims, golden
from renewalkit.claims import (
    BASE_AGE,
    MAX_AGE,
    TRANSITIONS,
    ClaimRecords,
    CleaningConfig,
    DurationHistogram,
    IngestReport,
    build_duration_histogram,
    build_occurrence_table,
    histogram_to_df,
    ingest,
    no_claim_table,
    occurrence_to_nh_df,
)
from renewalkit.grids import TimeGrid
from renewalkit.selftest import matches_published
from renewalkit.simulate import sample_path
from renewalkit.solver import homogeneous_lift


def _records(*triples):
    """ClaimRecords from (policy id, entry age, claim ages) triples."""
    owners = [i for i, (_, _, ages) in enumerate(triples) for _ in ages]
    ages = [a for _, _, claim_ages in triples for a in sorted(claim_ages)]
    return ClaimRecords(tuple(t[0] for t in triples), [t[1] for t in triples], owners, ages)


def _triples(records):
    """The (policy id, entry age, claim ages) triples a ClaimRecords holds."""
    return [
        (pid, int(entry), tuple(int(a) for a in records.claim_age[records.claim_policy == i]))
        for i, (pid, entry) in enumerate(zip(records.policy_ids, records.entry_age))
    ]


def test_ingest_worked_example(csv_writer):
    # entry at 23, claims at 41 and 50: a claim after 18 years, then the
    # renewed 41-year-old claims again after 9 years
    p, c = csv_writer([("A", 23)], [("A", 41), ("A", 50)])
    records, report = ingest(p, c)
    assert _triples(records) == [("A", 23, (41, 50))]
    assert report.claims_retained == 2 and report.claims_discarded == 0
    hist = build_duration_histogram(records, "entry-to-first")
    assert hist.counts[18] == 1 and hist.total == 1
    hist = build_duration_histogram(records, "first-to-second")
    assert hist.counts[9] == 1 and hist.total == 1


def test_ingest_discards_claims_before_entry(csv_writer):
    p, c = csv_writer([("A", 24)], [("A", 20), ("A", 30)])
    records, report = ingest(p, c)
    assert _triples(records)[0][2] == (30,)
    assert report.claims_read == 2
    assert report.claims_discarded == 1
    assert report.claims_retained == 1


def test_ingest_zero_duration_policy(csv_writer):
    p, c = csv_writer([("A", 24)], [("A", 24), ("A", 24), ("A", 30)])

    records, report = ingest(p, c, CleaningConfig(zero_duration="bucket1"))
    assert _triples(records)[0][2] == (24, 24, 30)
    assert (report.claims_retained, report.claims_discarded) == (3, 0)
    hist = build_duration_histogram(records, "merged")
    assert hist.counts[1] == 2 and hist.counts[6] == 1

    records, report = ingest(p, c, CleaningConfig(zero_duration="discard"))
    assert _triples(records)[0][2] == (30,)
    assert (report.claims_retained, report.claims_discarded) == (1, 2)


def test_ingest_keeps_a_negative_claim_age_out_of_other_policies(csv_writer):
    # claims sort by policy * (MAX_AGE + 1) + age, so unclamped, B's age -1 would
    # share a key with A's 150
    p, c = csv_writer([("A", 20), ("B", 20)], [("A", 150), ("B", -1), ("A", 150)])
    for zero_duration, kept in (("bucket1", (150, 150)), ("discard", (150,))):
        records, report = ingest(p, c, CleaningConfig(zero_duration=zero_duration))
        assert _triples(records) == [("A", 20, kept), ("B", 20, ())]
        assert report.claims_discarded == 3 - len(kept)


def test_ingest_imputes_missing_entry_age(csv_writer):
    p, c = csv_writer([("A", ""), ("B", 30)], [])
    records, report = ingest(p, c, CleaningConfig(impute_entry_age=24))
    assert records.entry_age[0] == 24
    assert report.imputed_entries == 1
    assert report.policies_read == 2


def test_ingest_rejects_underage_policies_and_their_claims(csv_writer):
    p, c = csv_writer([("A", 17), ("B", 20)], [("A", 25), ("B", 25)])
    records, report = ingest(p, c)
    assert records.policy_ids == ("B",)
    assert report.policies_rejected == 1
    assert report.claims_read == 2
    assert report.claims_discarded == 1  # the rejected policy's claim
    assert report.claims_retained == 1


def test_ingest_conservation(csv_writer):
    p, c = csv_writer(
        [("A", 24), ("B", ""), ("C", 16)],
        [("A", 20), ("A", 24), ("A", 31), ("B", 40), ("C", 30)],
    )
    records, report = ingest(p, c)
    assert report.claims_read == report.claims_retained + report.claims_discarded
    assert report.policies_read == 3
    assert report.claims_read == 5 and report.policies_rejected == 1


def test_ingest_errors_carry_line_numbers(csv_writer, tmp_path):
    p, c = csv_writer([("A", 24)], [("A", 30)])

    bad_age = tmp_path / "bad_age.csv"
    bad_age.write_text("policy_id,entry_age\nA,24\nB,old\n")
    with pytest.raises(ValueError, match=r"bad_age\.csv:3: malformed age 'old'"):
        ingest(bad_age, c)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("policy_id,claim_age\nA,30,extra\n")
    with pytest.raises(ValueError, match=r"ragged\.csv:2: expected 2 fields"):
        ingest(p, ragged)

    unknown = tmp_path / "unknown.csv"
    unknown.write_text("policy_id,claim_age\nZ,30\n")
    with pytest.raises(ValueError, match=r"unknown\.csv:2: claim references unknown policy_id 'Z'"):
        ingest(p, unknown)

    wrong_header = tmp_path / "wrong_header.csv"
    wrong_header.write_text("id,age\nA,24\n")
    with pytest.raises(ValueError, match="expected header policy_id,entry_age"):
        ingest(wrong_header, c)

    dup = tmp_path / "dup.csv"
    dup.write_text("policy_id,entry_age\nA,24\nA,25\n")
    with pytest.raises(ValueError, match=r"dup\.csv:3: duplicate policy_id"):
        ingest(dup, c)

    # a quoted id spanning lines 2-3 puts the bad age on physical line 4
    multiline = tmp_path / "multiline.csv"
    multiline.write_text('policy_id,claim_age\n"A\n",35\nA,abc\n')
    with pytest.raises(ValueError, match=r"multiline\.csv:4: malformed age 'abc'"):
        ingest(p, multiline)

    # absurd ages fail at their line instead of sizing the count tables
    for age in (100000000000, 3000000):
        huge = tmp_path / f"huge_{age}.csv"
        huge.write_text(f"policy_id,claim_age\nA,30\nA,{age}\n")
        with pytest.raises(ValueError, match=rf"huge_{age}\.csv:3: age {age} outside .*{MAX_AGE}"):
            ingest(p, huge)


def test_ingest_reads_utf8_with_or_without_a_byte_order_mark(csv_writer, tmp_path):
    p, c = csv_writer([("A", 24)], [("A", 30)])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    assert ingest(bom, c)[0].policy_ids == ("A",)
    assert ingest(p, c)[0].policy_ids == ("A",)


def test_ingest_names_a_file_that_is_not_utf8(csv_writer, tmp_path):
    p, c = csv_writer([("A", 24)], [("A", 30)])
    cases = [
        (b"policy_id,entry_age\nA,24\nB,\xff5\n", "3: byte 0xff is not UTF-8"),
        (b"policy_id,entry_age\nA,24\n\xc3(,25\n", "3: byte 0xc3 is not UTF-8"),  # a lead byte, then ASCII
        (b"\xef\xbb\xbfpolicy_id,entry_\x80age\nA,24\n", "1: byte 0x80 is not UTF-8"),  # in the header
        (b'policy_id,entry_age\nA,24\n"B\n\xfe",25\n', "4: byte 0xfe is not UTF-8"),  # by the record's last line
        (b"policy_id,entry_age\nA,24\nB,25,\xe2\n", "3: byte 0xe2 is not UTF-8"),  # before the fields are counted
    ]
    for i, (data, want) in enumerate(cases):
        for file in ("policies", "claims"):
            bad = tmp_path / f"bad_{file}{i}.csv"
            if file == "claims":
                data = data.replace(b"entry_", b"claim_").replace(b"A,24", b"A,30")
            bad.write_bytes(data)
            for read in (ingest, _reference_ingest):
                with pytest.raises(ValueError) as exc:
                    read(*((bad, c) if file == "policies" else (p, bad)))
                assert str(exc.value) == f"{bad}:{want}"


@pytest.mark.parametrize("block", [1 << 16, 1 << 13, 64])
def test_ingest_opens_each_file_once(csv_writer, tmp_path, monkeypatch, block):
    # the first block that is not plain is the file's last, so csv takes over from its lines
    monkeypatch.setattr(claims, "_BLOCK", block)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(claims, "open", counting_open, raising=False)
    rows = [(f"P{i}", 20 + i % 50) for i in range(200)]
    p, c = csv_writer(rows, [])
    c.write_text(c.read_text() + "".join(f"P{i},30\r\n" for i in range(200)) + 'P0," 31"\r\n')
    records, report = ingest(p, c)
    assert opened == [p, c]
    assert report.claims_read == 201 and _triples(records)[0] == ("P0", 20, (30, 31))


def test_ingest_reads_an_age_as_a_sign_and_ascii_digits(csv_writer, tmp_path):
    p, c = csv_writer([("A", 24), ("B", "+30"), ("C", "-3"), ("D", "025")], [("A", "+40"), ("D", "031")])
    records, report = ingest(p, c)
    assert _triples(records) == [("A", 24, (40,)), ("B", 30, ()), ("D", 25, (31,))]
    assert report.policies_rejected == 1
    # int() alone reads digit separators and non-ASCII digits; an age does not.  The
    # padded copy goes through the csv route, the other through the block parse.
    for i, text in enumerate(["2_4", "٢٤", "２４", "+-2", " 2_4 "]):
        bad_p, bad_c = tmp_path / f"p{i}.csv", tmp_path / f"c{i}.csv"
        bad_p.write_text(f"policy_id,entry_age\nA,24\nB,{text}\n", encoding="utf-8")
        bad_c.write_text(f"policy_id,claim_age\nA,30\nA,{text}\n", encoding="utf-8")
        for read in (ingest, _reference_ingest):
            for files, bad in (((bad_p, c), bad_p), ((p, bad_c), bad_c)):
                with pytest.raises(ValueError) as exc:
                    read(*files)
                assert str(exc.value) == f"{bad}:3: malformed age {text.strip()!r}"
    # a 5000-digit token is echoed cut, by the block parse and the csv route alike
    for quote in ("", '"'):
        long_c = tmp_path / f"long{len(quote)}.csv"
        long_c.write_text(f"policy_id,claim_age\nA,30\nA,{quote}{'9' * 5000}{quote}\n")
        with pytest.raises(ValueError) as exc:
            ingest(p, long_c)
        assert str(exc.value) == f"{long_c}:3: malformed age '{'9' * 32}' (the first 32 of 5000 characters)"
    over = tmp_path / "over.csv"
    over.write_text(f"policy_id,claim_age\nA,{'9' * 40}\n")
    with pytest.raises(ValueError) as exc:
        ingest(p, over)
    assert str(exc.value) == (
        f"{over}:2: age {'9' * 32} (the first 32 of 40 characters) outside the accepted range (at most {MAX_AGE})"
    )


def test_an_age_block_reads_the_same_through_the_table_and_through_parse_age():
    # a sign sends a block off the table of canonical texts, through _parse_age
    texts = [str(age) for age in range(MAX_AGE + 1)]
    by_table = claims._bulk_ages(texts).tolist()
    assert by_table == [claims._parse_age(text, "", 0) for text in texts]
    assert by_table == [max(age, BASE_AGE - 1) for age in range(MAX_AGE + 1)]
    assert claims._bulk_ages([*texts, "+0"]).tolist() == [*by_table, BASE_AGE - 1]
    assert claims._bulk_ages(["5", "30"]).tolist() == claims._bulk_ages(["5", "+30"]).tolist() == [17, 30]


def test_ingest_strips_non_ascii_whitespace(csv_writer):
    # str.strip removes a no-break or ideographic space, so such a block is not split plainly
    p, c = csv_writer([("\u00a0A", 24), ("B\u3000", 30)], [("A\u00a0", "\u3000" + "31")])
    assert _triples(ingest(p, c)[0]) == [("A", 24, (31,)), ("B", 30, ())]


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("file", ["policies", "claims"])
def test_a_csv_error_names_its_file_and_line(csv_writer, quoted, file):
    # a field past csv's limit fails in csv either way; the block parse must not split it
    p, c = csv_writer([("A", 24)], [("A", 30)])
    long_id = "X" * (csv.field_size_limit() + 1)
    bad = p if file == "policies" else c
    field = f'"{long_id}"' if quoted else long_id
    bad.write_text(bad.read_text() + f"{field},31\n")
    want = f"{bad}:3: field larger than field limit ({csv.field_size_limit()})"
    for read in (ingest, _reference_ingest):
        with pytest.raises(ValueError) as exc:
            read(p, c)
        assert str(exc.value) == want


@pytest.mark.parametrize("block", [1 << 16, 1 << 13, 64])
def test_ingest_checks_the_lines_before_an_undecodable_byte(csv_writer, tmp_path, monkeypatch, block):
    # the bad byte lies 5000 lines after line 3, in its block or a later one
    monkeypatch.setattr(claims, "_BLOCK", block)
    p, _ = csv_writer([("A", 24)], [])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"policy_id,claim_age\nA,30\nA,old\n" + b"A,31\r\n" * 5000 + b"A,\xff\n")
    for read in (ingest, _reference_ingest):
        with pytest.raises(ValueError, match=r"^\S*bad\.csv:3: malformed age 'old'$"):
            read(p, bad)
    bad.write_bytes(b"policy_id,claim_age\nA,30\n" + b"A,31\r\n" * 5000 + b"A,\xff\nA,old\n")
    for read in (ingest, _reference_ingest):
        with pytest.raises(ValueError) as exc:
            read(p, bad)
        assert str(exc.value) == f"{bad}:5003: byte 0xff is not UTF-8"


@pytest.mark.parametrize("block", [1 << 16, 8], ids=["one-block", "block-per-line"])
@pytest.mark.parametrize("first_row", ["A,30", "A ,30", '"A",30'], ids=["plain", "padded", "quoted"])
def test_the_first_failing_line_wins(csv_writer, tmp_path, monkeypatch, first_row, block):
    # the first data row sends the file through the block parse or, padded or
    # quoted, through the csv route; with a block per line each fault and the
    # record before it lie in different blocks
    monkeypatch.setattr(claims, "_BLOCK", block)
    p, c = csv_writer([("A", 24), ("B", 30)], [])
    cases = [
        ("claims", "A,old\nA,31\nA,1,2\n", "3: malformed age 'old'"),
        ("claims", "A,old\nZ,31\n", "3: malformed age 'old'"),
        ("claims", "Z,31\nA,old\n", "3: claim references unknown policy_id 'Z'"),
        ("claims", "A\nA,151\n", "3: expected 2 fields, got 1"),
        ("claims", "A,151\nA\n", f"3: age 151 outside the accepted range (at most {MAX_AGE})"),
        ("policies", "C,old\nA,31\n", "3: malformed age 'old'"),
        ("policies", "A,31\nC,old\n", "3: duplicate policy_id 'A'"),
        ("policies", "C,17\nD,1,2\n", "4: expected 2 fields, got 3"),
    ]
    for i, (file, rows, want) in enumerate(cases):
        header = "policy_id,entry_age" if file == "policies" else "policy_id,claim_age"
        bad = tmp_path / f"{file}{i}.csv"
        bad.write_text(f"{header}\n{first_row}\n{rows}")
        files = (bad, c) if file == "policies" else (p, bad)
        for read in (ingest, _reference_ingest):
            with pytest.raises(ValueError) as exc:
                read(*files)
            assert str(exc.value) == f"{bad}:{want}"


def test_duration_histogram_per_transition():
    rec = _records(("A", 20, (25, 28, 33, 40)))
    assert build_duration_histogram(rec, "entry-to-first").counts[5] == 1
    assert build_duration_histogram(rec, "first-to-second").counts[3] == 1
    assert build_duration_histogram(rec, "second-to-third").counts[5] == 1
    merged = build_duration_histogram(rec, "merged")
    assert merged.total == 4 and merged.counts[7] == 1


def test_duration_histogram_empty_records():
    hist = build_duration_histogram(_records(), "merged")
    assert hist.total == 0 and hist.horizon == 0


def test_duration_histogram_rejects_unknown_transition():
    with pytest.raises(ValueError, match="unknown transition"):
        build_duration_histogram(_records(), "third-to-fourth")


def _golden_hist(transition):
    return DurationHistogram(np.concatenate(([0], golden.waiting_counts(transition))), transition)


def test_histogram_to_df_reproduces_published_probabilities():
    hist = _golden_hist("first-to-second")
    df = histogram_to_df(hist)
    assert df[0] == 0.0
    assert df[-1] == 1.0
    assert abs(df[1] - 0.018595) < 1e-6  # 153 / 8228
    pmf = np.diff(df)
    for i, want in enumerate(golden.waiting_probs("first-to-second")):
        assert matches_published(pmf[i], want)

    df23 = histogram_to_df(_golden_hist("second-to-third"))
    assert abs((df23[3] - df23[2]) - 0.143219) < 1e-6  # 226 / 1578


def test_histogram_to_df_single_bucket_and_empty():
    assert histogram_to_df(DurationHistogram(np.array([0, 5]), "merged")).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="all-zero histogram"):
        histogram_to_df(DurationHistogram(np.array([0, 0]), "merged"))


def test_histogram_to_df_satisfies_distribution_invariants_exactly():
    # exact values on a power-of-two total, exact endpoint on any total
    df = histogram_to_df(DurationHistogram(np.array([0, 1, 2, 1]), "merged"))
    assert df.tolist() == [0.0, 0.25, 0.75, 1.0]
    df = histogram_to_df(DurationHistogram(np.array([0, 1, 1, 1]), "merged"))
    assert df[-1] == 1.0
    assert np.all(np.diff(df) >= 0.0) and df[0] == 0.0
    # lifting validates the full set of distribution invariants
    homogeneous_lift(df, TimeGrid(0.0, 1.0, len(df)))


def test_occurrence_table_worked_example():
    table = build_occurrence_table(_records(("A", 23, (41, 50))), cap_age=60)
    assert table.counts[23 - BASE_AGE, 41 - BASE_AGE] == 1
    assert table.counts[41 - BASE_AGE, 50 - BASE_AGE] == 1
    assert table.counts.sum() == 2


def test_occurrence_table_is_additive():
    recs = [("A", 23, (41, 50)), ("B", 23, (41, 50))]
    one = build_occurrence_table(_records(*recs[:1])).counts
    two = build_occurrence_table(_records(*recs)).counts
    assert np.array_equal(two, 2 * one)
    assert not build_occurrence_table(_records()).counts.any()


def test_occurrence_table_pools_at_the_cap():
    table = build_occurrence_table(_records(("A", 59, (65,))), cap_age=60)
    assert table.counts[59 - BASE_AGE, 60 - BASE_AGE] == 1
    assert table.dropped_beyond_cap == 0
    # a renewal already at/past the cap has no later in-grid age to land on
    table = build_occurrence_table(_records(("B", 61, (65,))), cap_age=60)
    assert not table.counts.any()
    assert table.dropped_beyond_cap == 1


def test_cleaning_config_validation():
    CleaningConfig(impute_entry_age=MAX_AGE)
    for bad in (
        {"impute_entry_age": BASE_AGE - 1},
        {"impute_entry_age": MAX_AGE + 1},
        {"zero_duration": "keep"},
    ):
        with pytest.raises(ValueError):
            CleaningConfig(**bad)
    # the cap sizes the occurrence table, so an absurd one must fail by name, not allocate
    for cap_age in (BASE_AGE, MAX_AGE + 1, 1_000_000_000):
        for table in (build_occurrence_table, no_claim_table):
            with pytest.raises(ValueError, match=rf"^cap_age must be in \({BASE_AGE}, {MAX_AGE}\], got {cap_age}$"):
                table(_records(("A", 23, (41,))), cap_age=cap_age)


def test_occurrence_to_nh_df_normalises_rows():
    n = 43
    counts = np.zeros((n, n), dtype=np.int64)
    counts[2, -3:] = (10, 30, 60)
    from renewalkit.claims import OccurrenceTable

    F, zero_rows = occurrence_to_nh_df(OccurrenceTable(counts))
    assert F.values[2, -3:].tolist() == [0.1, 0.4, 1.0]
    assert F.at(2, 2) == 0.0
    assert 2 not in zero_rows and 3 in zero_rows and n - 1 in zero_rows
    assert F.grid.origin == float(BASE_AGE) and F.grid.n_points == n


def _nh_df_by_rows(counts):
    """Row-at-a-time normalisation: the reference for occurrence_to_nh_df."""
    n = len(counts)
    values = np.zeros((n, n))
    zero_rows = []
    for s in range(n - 1):
        row_total = counts[s, s + 1 :].sum()
        if row_total == 0:
            zero_rows.append(s)
            continue
        values[s, s + 1 :] = np.cumsum(counts[s, s + 1 :]) / row_total
    zero_rows.append(n - 1)
    return values, zero_rows


@settings(max_examples=60, deadline=None)
@given(cap_age=st.integers(BASE_AGE + 1, 70), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_occurrence_to_nh_df_matches_a_row_loop(cap_age, seed, density):
    from renewalkit.claims import OccurrenceTable

    rng = np.random.default_rng(seed)
    n = cap_age - BASE_AGE + 1
    counts = rng.integers(0, 1000, (n, n)) * (rng.random((n, n)) < density)
    counts[rng.random(n) < 0.3] = 0  # some all-zero rows
    counts = np.triu(counts, k=1)
    F, zero_rows = occurrence_to_nh_df(OccurrenceTable(counts, cap_age))
    values, want_zero_rows = _nh_df_by_rows(counts)
    assert F.values.tobytes() == values.tobytes()
    assert zero_rows == want_zero_rows


def test_no_claim_table_counts_and_pooling():
    records = _records(
        ("A", 18, ()),
        ("B", 18, (25,)),
        ("C", 59, ()),
        ("D", 61, ()),
        ("E", 63, (64,)),
    )
    table = no_claim_table(records, cap_age=60)
    labels = [r.label for r in table]
    assert labels == ["18", "59", ">=60", "total"]
    by_label = {r.label: r for r in table}
    assert by_label["18"].total == 2 and by_label["18"].no_claim == 1
    assert by_label["18"].prob_no_claim == 0.5 and by_label["18"].prob_claim == 0.5
    assert by_label[">=60"].total == 2 and by_label[">=60"].no_claim == 1
    assert by_label["total"].total == 5 and by_label["total"].no_claim == 3
    assert no_claim_table(_records()) == ()


def test_no_claim_published_rows_match():
    # spot rows of the reference table: 237/279 and 63/70
    assert matches_published(237 / 279, 0.849462)
    assert matches_published(1 - 237 / 279, 0.150538)
    assert matches_published(63 / 70, 0.9)
    assert matches_published(1 - 63 / 70, 0.1)


def _synth_records(F, n_policies, rng):
    horizon = F.n_points - 1
    triples = []
    for i in range(n_policies):
        path = sample_path(F, 0, horizon, rng)
        ages = tuple(BASE_AGE + idx for idx in path)
        triples.append((f"P{i}", BASE_AGE, ages))
    return _records(*triples)


def test_round_trip_recovers_the_generating_df():
    # rebuild F from simulated claims; every visited row lands within binomial
    # sampling error and the entry row's Kolmogorov distance shrinks with data
    n = 11
    grid = TimeGrid(float(BASE_AGE), 1.0, n)
    rng = np.random.default_rng(53)
    values = np.zeros((n, n))
    for s in range(n - 1):
        inc = rng.dirichlet(np.ones(n - 1 - s))
        values[s, s + 1 :] = np.cumsum(inc)
    from renewalkit.grids import TwoTimeMatrix

    F = TwoTimeMatrix(grid, values, "distribution")

    entry_row_distance = []
    for size in (2_000, 20_000):
        cap_age = BASE_AGE + n - 1
        table = build_occurrence_table(_synth_records(F, size, rng), cap_age=cap_age)
        F_hat, _ = occurrence_to_nh_df(table)
        visits = table.counts.sum(axis=1)
        per_row = np.abs(F_hat.values - F.values).max(axis=1)
        for s in range(n - 1):
            if visits[s]:
                assert per_row[s] <= 4.0 * np.sqrt(0.25 / visits[s])
        entry_row_distance.append(per_row[0])
    assert entry_row_distance[1] < entry_row_distance[0]
    assert entry_row_distance[1] < 0.02


def test_claim_records_rejects_malformed_columns():
    with pytest.raises(ValueError, match="one length"):
        ClaimRecords(("A", "B"), [20], [], [])
    with pytest.raises(ValueError, match="one length"):
        ClaimRecords(("A",), [20], [0, 0], [25])
    with pytest.raises(ValueError, match="must index the 1 policies"):
        ClaimRecords(("A",), [20], [1], [25])
    with pytest.raises(ValueError, match="must index the 1 policies"):
        ClaimRecords(("A",), [20], [-1], [25])
    with pytest.raises(ValueError, match=r"sorted by \(policy, age\)"):
        ClaimRecords(("A",), [20], [0, 0], [30, 25])
    with pytest.raises(ValueError, match=r"sorted by \(policy, age\)"):
        ClaimRecords(("A", "B"), [20, 20], [1, 0], [25, 30])
    with pytest.raises(ValueError, match="predate its entry"):
        ClaimRecords(("A",), [20], [0], [19])
    with pytest.raises(ValueError, match="entry ages must be >= 18"):
        ClaimRecords(("A",), [17], [], [])
    assert not _records(("A", 20, (25, 30))).claim_age.flags.writeable


# -- the per-policy loops the columnar pipeline replaced, kept as the oracle --


def _reference_clean(policies, claims, cleaning):
    """(policy id, entry, retained ages) triples and the discarded-claim count."""
    entry_by_id, rejected, claims_by_id = {}, set(), {}
    for pid, text in policies:
        entry = cleaning.impute_entry_age if text == "" else int(text)
        if entry < BASE_AGE:
            rejected.add(pid)
            continue
        entry_by_id[pid] = entry
        claims_by_id[pid] = []
    discarded = 0
    for pid, age in claims:
        if pid in rejected:
            discarded += 1
        else:
            claims_by_id[pid].append(age)
    triples = []
    for pid, entry in entry_by_id.items():
        retained, anchor = [], entry
        for c in sorted(claims_by_id[pid]):
            if c < anchor or (c == anchor and cleaning.zero_duration == "discard"):
                discarded += 1
                continue
            retained.append(c)
            anchor = c
        triples.append((pid, entry, tuple(retained)))
    return triples, discarded


def _reference_histogram(triples, transition):
    durations = []
    for _, entry, ages in triples:
        anchor = entry
        for k, c in enumerate(ages):
            if transition == "merged" or k == TRANSITIONS.index(transition):
                durations.append(max(c - anchor, 1))
            anchor = c
    counts = np.zeros(max(durations, default=0) + 1, dtype=np.int64)
    for d in durations:
        counts[d] += 1
    return counts


def _reference_occurrence(triples, cap_age):
    n = cap_age - BASE_AGE + 1
    counts = np.zeros((n, n), dtype=np.int64)
    dropped = 0
    for _, entry, ages in triples:
        anchor = entry
        for c in ages:
            s_age, t_age = anchor, max(c, anchor + 1)
            anchor = c
            s = min(s_age, cap_age) - BASE_AGE
            t = min(t_age, cap_age) - BASE_AGE
            if s < t:
                counts[s, t] += 1
            else:
                dropped += 1
    return counts, dropped


def _reference_no_claim(triples, cap_age):
    totals, quiet = {}, {}
    pooled_total = pooled_quiet = 0
    for _, entry, ages in triples:
        if entry >= cap_age:
            pooled_total += 1
            pooled_quiet += not ages
        else:
            totals[entry] = totals.get(entry, 0) + 1
            quiet[entry] = quiet.get(entry, 0) + (not ages)
    rows = [(str(age), totals[age], quiet[age]) for age in sorted(totals)]
    if pooled_total:
        rows.append((f">={cap_age}", pooled_total, pooled_quiet))
    if rows:
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.lists(st.one_of(st.just(""), st.integers(10, 70)), max_size=8),
    claims=st.lists(st.tuples(st.integers(0, 7), st.integers(5, 80)), max_size=40),
    zero_duration=st.sampled_from(["bucket1", "discard"]),
    cap_age=st.integers(BASE_AGE + 1, 75),
    impute=st.integers(BASE_AGE, 40),
)
def test_columnar_pipeline_matches_the_per_policy_reference(
    csv_writer, entries, claims, zero_duration, cap_age, impute
):
    # blank, under-18 and pre-entry ages, duplicates and any claim order
    policies = [(f"P{i}", e) for i, e in enumerate(entries)]
    claims = [(f"P{i % len(policies)}", age) for i, age in claims] if policies else []
    cleaning = CleaningConfig(impute_entry_age=impute, zero_duration=zero_duration)
    records, report = ingest(*csv_writer(policies, claims), cleaning)

    triples, discarded = _reference_clean(policies, claims, cleaning)
    assert report.claims_read == len(claims) == report.claims_retained + report.claims_discarded
    assert report.claims_discarded == discarded
    assert _triples(records) == triples
    for tr in TRANSITIONS:
        assert np.array_equal(build_duration_histogram(records, tr).counts, _reference_histogram(triples, tr))
    table = build_occurrence_table(records, cap_age)
    counts, dropped = _reference_occurrence(triples, cap_age)
    assert np.array_equal(table.counts, counts) and table.dropped_beyond_cap == dropped
    rows = [(r.label, r.total, r.no_claim) for r in no_claim_table(records, cap_age)]
    assert rows == _reference_no_claim(triples, cap_age)



# -- the cleaner, the record checks and the count tables run by blocks of claims --

_CLAIM_BLOCKS = [1, 2, 3, 7]


def _build_df(policies_file, claims_file, zero_duration):
    """The cleaned columns, the report and every count table, as plain values."""
    records, report = ingest(policies_file, claims_file, CleaningConfig(zero_duration=zero_duration))
    columns = [col.tolist() for col in (records.entry_age, records.claim_policy, records.claim_age)]
    tables = [build_duration_histogram(records, tr).counts.tolist() for tr in TRANSITIONS]
    for cap_age in (BASE_AGE + 1, 30, 60):
        table = build_occurrence_table(records, cap_age)
        tables.append((table.counts.tolist(), table.dropped_beyond_cap, no_claim_table(records, cap_age)))
    return records.policy_ids, columns, report, tables


def _build_df_by_blocks(files, zero_duration):
    """:func:`_build_df` at each block size in ``_CLAIM_BLOCKS``."""
    results = []
    for block in _CLAIM_BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(claims, "_CLAIM_BLOCK", block)
            results.append(_build_df(*files, zero_duration))
    return results


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    entries=st.lists(st.one_of(st.just(""), st.integers(10, 45)), min_size=1, max_size=8),
    rows=st.lists(st.tuples(st.integers(0, 7), st.integers(10, 45)), max_size=40),
)
def test_count_tables_do_not_depend_on_the_claim_block(csv_writer, entries, rows):
    # narrow ages make same-age pairs and pre-entry claims common; tiny blocks put them at cuts
    policies = [(f"P{i}", e) for i, e in enumerate(entries)]
    files = csv_writer(policies, [(f"P{i % len(policies)}", age) for i, age in rows])
    for zero_duration in ("bucket1", "discard"):
        expected = _build_df(*files, zero_duration)
        assert _build_df_by_blocks(files, zero_duration) == [expected] * len(_CLAIM_BLOCKS)


def _corpus_with_cuts(block):
    """Policies and claims whose sorted claims put the cases below at cuts between blocks."""
    policies, rows = [], []

    def add(pid, entry, ages):
        policies.append((pid, entry))
        rows.extend((pid, age) for age in ages)

    add("RUN", 20, range(21, 23 + block))  # the cut at claim `block` splits this run
    add("PAD", 20, range(21, 21 + (block - 1 - len(rows)) % block))
    add("PAIR", 30, [35, 35])  # the last claim of a block and the first of the next
    add("PAD2", 20, range(21, 21 + -len(rows) % block))
    add("EARLY", 40, [35, 40, 45])  # a pre-entry claim opens a block, one at entry follows
    return policies, rows


@pytest.mark.parametrize("zero_duration", ["bucket1", "discard"])
@pytest.mark.parametrize("block", _CLAIM_BLOCKS)
def test_block_cuts_keep_runs_same_age_pairs_and_pre_entry_claims(csv_writer, zero_duration, block):
    policies, rows = _corpus_with_cuts(block)
    files = csv_writer(policies, rows[::-1])  # reversed, so that the sort moves every claim
    cleaning = CleaningConfig(zero_duration=zero_duration)
    triples, discarded = _reference_clean(policies, rows, cleaning)
    records, report = ingest(*files, cleaning)
    assert _triples(records) == triples and report.claims_discarded == discarded
    assert discarded == (3 if zero_duration == "discard" else 1)  # 35 < 40; the second 35 and 40 at entry
    expected = _build_df(*files, zero_duration)
    assert _build_df_by_blocks(files, zero_duration) == [expected] * len(_CLAIM_BLOCKS)


@pytest.mark.parametrize("block", _CLAIM_BLOCKS)
def test_claim_records_checks_a_fault_at_a_block_cut(monkeypatch, block):
    # claims 0..block-1 are policy 0's and the rest policy 1's; claim `block` opens a block
    monkeypatch.setattr(claims, "_CLAIM_BLOCK", block)
    owners = [0] * block + [1] * (block + 1)
    ages = list(range(21, 21 + block)) + list(range(41, 42 + block))

    def records(owners=owners, ages=ages, entries=(20, 40)):
        return ClaimRecords(("A", "B"), list(entries), owners, ages)

    def at_cut(column, value):
        return column[:block] + [value] + column[block + 1 :]

    records()
    records(ages=at_cut(ages, 40))  # at its entry age
    records(owners=[0] * len(ages), ages=at_cut(ages, 20 + block), entries=(20, 20))  # a same-age pair
    with pytest.raises(ValueError, match="must index the 2 policies"):
        records(owners=at_cut(owners, 2))
    with pytest.raises(ValueError, match="must index the 2 policies"):
        records(owners=at_cut(owners, -1))
    with pytest.raises(ValueError, match=r"sorted by \(policy, age\)"):
        records(owners=[1] * block + [0] * (block + 1), entries=(20, 20))
    with pytest.raises(ValueError, match=r"sorted by \(policy, age\)"):
        records(owners=[0] * len(ages), ages=at_cut(ages, 19 + block), entries=(20, 20))
    with pytest.raises(ValueError, match="predate its entry"):
        records(ages=at_cut(ages, 39))


def test_build_df_memory_is_bounded_by_a_block(tmp_path):
    # 2e5 claims of 3e4 policies, each policy's claims adjacent in random age order, a few pre-entry
    rng = np.random.default_rng(5)
    entry = BASE_AGE + rng.integers(0, 30, 30_000)
    owner = np.repeat(np.arange(len(entry)), rng.integers(0, 15, len(entry)))
    age = entry[owner] - 2 + rng.integers(0, 80, len(owner))
    policies, claims_file = tmp_path / "policies.csv", tmp_path / "claims.csv"
    policies.write_text("policy_id,entry_age\n" + "".join(f"P{i},{e}\n" for i, e in enumerate(entry.tolist())))
    claims_file.write_text(
        "policy_id,claim_age\n" + "".join(f"P{i},{a}\n" for i, a in zip(owner.tolist(), age.tolist()))
    )
    tracemalloc.start()
    try:
        records, _ = ingest(policies, claims_file)
        held = tracemalloc.get_traced_memory()[0]  # what the records keep
        for transition in TRANSITIONS:
            build_duration_histogram(records, transition)
        build_occurrence_table(records)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()  # no_claim_table works on the policy columns, so it has its own bound
        no_claim_table(records)
        no_claim_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:  # ingest's policy index, which it drops on return
        index = dict(zip(records.policy_ids, range(len(records.policy_ids))))
        index_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records.claim_age) >= 100_000 and len(index) == len(entry)
    # twelve block-long int64 arrays: the steps of two blocks of policies are live at once,
    # since a table's loop holds the last block while the next is computed
    assert peak <= held + index_bytes + 12 * 8 * claims._CLAIM_BLOCK
    # three policy-length int64 arrays, and nothing as long as the claims
    assert no_claim_peak <= held + 3 * 8 * len(records.entry_age)


# ingest in a fresh process; its ru_maxrss rise in KiB, from its imports to its return
_INGEST_RISE = """
import resource, sys
from renewalkit.claims import ingest
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ingest(sys.argv[1], sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB and glibc's malloc settings")
def test_ingest_memory_does_not_depend_on_the_claim_order(tmp_path):
    # 5.6e5 claims of 8e4 policies, grouped by policy and then shuffled; a sort with a merge
    # buffer (numpy's stable sort, outside tracemalloc) rises 1.4 MB more on the shuffled file
    rng = np.random.default_rng(11)
    entry = BASE_AGE + rng.integers(0, 30, 80_000)
    owner = np.repeat(np.arange(len(entry)), rng.integers(0, 15, len(entry)))
    lines = [f"P{i},{a}\n" for i, a in zip(owner.tolist(), (entry[owner] + rng.integers(0, 60, len(owner))).tolist())]
    policies = tmp_path / "policies.csv"
    policies.write_text("policy_id,entry_age\n" + "".join(f"P{i},{e}\n" for i, e in enumerate(entry.tolist())))
    src = str(Path(claims.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # glibc moves its mmap threshold as large blocks are freed, and so where the growing read
    # buffers land; that moved the rise by up to 2 MB from run to run, so the threshold is fixed
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    rise = {}
    for order in ("grouped", "shuffled"):
        if order == "shuffled":
            rng.shuffle(lines)
        claims_file = tmp_path / f"{order}.csv"
        claims_file.write_text("policy_id,claim_age\n" + "".join(lines))
        # a child inherits its parent's ru_maxrss at exec, so the child of a forked shell starts low
        proc = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-c", _INGEST_RISE,
                               str(policies), str(claims_file)], capture_output=True, text=True, env=env, check=True)
        rise[order] = int(proc.stdout) / 1024
    assert len(lines) >= 500_000 and rise["grouped"] > 10  # the records alone are 9 MB
    assert rise["shuffled"] <= rise["grouped"] + 0.5, rise


# -- the per-row ingest the block parse replaced, kept as its oracle --


def _reference_ingest(policies_file, claims_file, cleaning=CleaningConfig()):
    """One ``csv.reader`` row at a time through the same checks.

    Beyond the earlier code it carries the two later fixes: a ``csv`` error
    names its file and line, and ages go through ``claims._parse_age``.
    """
    report = IngestReport()
    index, ids, entries = {}, [], []
    for lineno, (pid, age_text) in _reference_rows(policies_file, ("policy_id", "entry_age")):
        if pid in index:
            raise ValueError(f"{policies_file}:{lineno}: duplicate policy_id {pid!r}")
        report.policies_read += 1
        if age_text == "":
            entry_age = cleaning.impute_entry_age
            report.imputed_entries += 1
        else:
            entry_age = claims._parse_age(age_text, policies_file, lineno)
            if entry_age < BASE_AGE:
                report.policies_rejected += 1
                index[pid] = -1
                continue
        index[pid] = len(ids)
        ids.append(pid)
        entries.append(entry_age)

    owners, ages = [], []
    for lineno, (pid, age_text) in _reference_rows(claims_file, ("policy_id", "claim_age")):
        report.claims_read += 1
        i = index.get(pid)
        if i is None:
            raise ValueError(f"{claims_file}:{lineno}: claim references unknown policy_id {pid!r}")
        if i >= 0:
            owners.append(i)
            ages.append(claims._parse_age(age_text, claims_file, lineno))

    entry = np.array(entries, dtype=np.int64)
    p, c = np.array(owners, dtype=np.int64), np.array(ages, dtype=np.int64)
    order = np.lexsort((c, p))
    p, c = p[order], c[order]
    keep = c >= entry[p]
    if cleaning.zero_duration == "discard":
        keep &= c > entry[p]
        keep[1:] &= (p[1:] != p[:-1]) | (c[1:] != c[:-1])
    report.claims_retained = int(keep.sum())
    report.claims_discarded = report.claims_read - report.claims_retained
    return ClaimRecords(tuple(ids), entry, p[keep], c[keep]), report


def _reference_rows(path, header):
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise ValueError(f"{path}:1: empty file, expected header {','.join(header)}")
            _reference_bytes(path, reader.line_num, first)
            if tuple(x.strip() for x in first) != header:
                raise ValueError(f"{path}:1: expected header {','.join(header)}, got {first}")
            for row in reader:
                if not row:
                    continue
                _reference_bytes(path, reader.line_num, row)
                if len(row) != 2:
                    raise ValueError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
                yield reader.line_num, (row[0].strip(), row[1].strip())
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _reference_bytes(path, lineno, row):
    """Fail a record holding a byte that is not UTF-8, which surrogateescape reads as U+DC00 + byte."""
    for ch in "".join(row):
        if 0xDC80 <= ord(ch) <= 0xDCFF:
            raise ValueError(f"{path}:{lineno}: byte 0x{ord(ch) - 0xDC00:02x} is not UTF-8")


# ids that need quoting (a comma, a quote, a line end inside) or the csv route
# (a space inside or a no-break space that strip() removes), a non-ASCII letter,
# and one past the low field limit used below
_PLAIN_IDS = ["P0", "P1", "P2", "P3", "P4", "P5", "A_6", "Ü7", "LONGLONGID8", "\u00a0P9"]
_IDS = _PLAIN_IDS + ["Q,10", "R\n11", "S\r\n12", 'T"13', "U 14"]
# a sign or a leading zero puts an age off the table of canonical texts, so its block
# is read through _parse_age; these are valid off-table ages at the clamp and the cap
_EDGE_AGES = ["+0", "-17", "0018", "+150", "0150"]
_ENTRY_AGES = ["", "", "24", "30", "45", "17", "18", "60", "150", "+24", "-3", "024", "00", *_EDGE_AGES]
# "0" and "150" are the age table's edges; a negative age, int64's minimum among
# them, would corrupt the (policy, age) sort key unless clamped as _parse_age clamps it
_CLAIM_AGES = [str(a) for a in range(15, 80, 7)] + [
    "+40", "-1", "040", "150", "0", "17", "-0", "-9223372036854775808", *_EDGE_AGES
]
_BAD_AGES = ["abc", "2_4", "٢٤", "２４", "1.5", "+", "9" * 40, "99999999999999999999"]
_FAULTS = [
    "ragged", "ragged pair", "bad age", "over age", "duplicate", "unknown", "whitespace line", "undecodable byte"
]
# bytes that are not UTF-8 where they stand: lone continuation bytes, lead bytes before ASCII, and
# bytes that never occur in UTF-8; written with surrogateescape as U+DC00 + byte
_BAD_BYTES = [chr(0xDC00 + b) for b in (0x80, 0xBF, 0xC3, 0xE2, 0xF0, 0xFF)]


def _write_field(draw, text, messy):
    if any(ch in text for ch in ',"\r\n') or (messy and draw(st.integers(0, 5)) == 0):
        return '"' + text.replace('"', '""') + '"'
    if messy:
        return draw(st.sampled_from(["", "", " ", "\t"])) + text + draw(st.sampled_from(["", "", " "]))
    return text


def _fault_row(draw, fault, ids, policies):
    """The raw text of one faulty record; an age fault in the policies file gets a fresh id."""
    owner = "N" if policies or not ids else draw(st.sampled_from(ids))
    return {
        "ragged": draw(st.sampled_from(["P0", "P0,30,31", ",", ",,"])),
        "bad age": f"{owner},{draw(st.sampled_from(_BAD_AGES))}",
        "over age": f"{owner},{draw(st.sampled_from(['151', '1000', '99999999999999999999']))}",
        "duplicate": f"{ids[0] if ids else 'P0'},30",
        "unknown": "ZZ,30",
        "whitespace line": draw(st.sampled_from([" ", "\t", "  "])),
        "undecodable byte": draw(
            st.sampled_from([f"{owner},3{{}}", f"{{}}{owner},30", f"{owner},\"{{}}\"", f"{owner},30,{{}}"])
        ).format(draw(st.sampled_from(_BAD_BYTES))),
    }[fault]


@st.composite
def _corpora(draw):
    """(policies text, claims text) with up to two faults.

    A plain corpus is what ``csv.writer`` writes, with one line end; a messy
    one mixes line ends, blank lines, padded and quoted fields.  The texts
    are to be written with ``errors="surrogateescape"``.
    """
    messy = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(_IDS if messy else _PLAIN_IDS), unique=True, max_size=8))
    plain_ids = [pid for pid in ids if pid in _PLAIN_IDS]
    policies = [
        _write_field(draw, pid, messy) + "," + _write_field(draw, draw(st.sampled_from(_ENTRY_AGES)), messy)
        for pid in ids
    ]
    claim_rows = [
        _write_field(draw, draw(st.sampled_from(ids)), messy)
        + "," + _write_field(draw, draw(st.sampled_from(_CLAIM_AGES)), messy)
        for _ in range(draw(st.integers(0, 30) if ids else st.just(0)))
    ]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        rows = {"duplicate": policies, "unknown": claim_rows}.get(fault) or draw(st.sampled_from([policies, claim_rows]))
        at = draw(st.integers(0, len(rows)))
        if fault == "ragged pair":  # two wrong rows whose commas add up to two right ones
            rows[at:at] = ["P0", "30,P1,31"]
        else:
            rows.insert(at, _fault_row(draw, fault, plain_ids, rows is policies))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    texts = []
    for header, rows in (("policy_id,entry_age", policies), ("policy_id,claim_age", claim_rows)):
        lines = [header]
        for row in rows:
            lines.extend([""] * (draw(st.sampled_from([0, 0, 0, 1, 2])) if messy else 0))
            lines.append(row)
        ends = [draw(st.sampled_from(["\r\n", "\n", "\r"])) if messy else end for _ in lines]
        if draw(st.booleans()):
            ends[-1] = ""
        texts.append(draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, ends)))
    return texts


def _outcome(read, policies, claims_file, cleaning):
    try:
        records, report = read(policies, claims_file, cleaning)
    except ValueError as exc:
        return str(exc)
    columns = (records.entry_age, records.claim_policy, records.claim_age)
    return records.policy_ids, [col.tolist() for col in columns], report


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    corpus=_corpora(),
    block=st.integers(8, 200),
    limit=st.sampled_from([None, None, 12]),
    zero_duration=st.sampled_from(["bucket1", "discard"]),
)
def test_block_parse_matches_the_per_row_reference(tmp_path, corpus, block, limit, zero_duration):
    # tiny blocks put records, faults and quoted line ends in later blocks and on block edges
    paths = tmp_path / "policies.csv", tmp_path / "claims.csv"
    for path, text in zip(paths, corpus):
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    cleaning = CleaningConfig(zero_duration=zero_duration)
    default_limit = csv.field_size_limit()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "_BLOCK", block)
        try:
            csv.field_size_limit(limit or default_limit)
            outcome = _outcome(ingest, *paths, cleaning)
            assert outcome == _outcome(_reference_ingest, *paths, cleaning)
        finally:
            csv.field_size_limit(default_limit)
    # every fault names its file and line
    where = "|".join(re.escape(str(path)) for path in paths)
    assert not isinstance(outcome, str) or re.match(rf"({where}):\d+: ", outcome)
