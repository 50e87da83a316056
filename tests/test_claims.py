import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renewalkit import golden
from renewalkit.claims import (
    BASE_AGE,
    MAX_AGE,
    TRANSITIONS,
    ClaimRecords,
    CleaningConfig,
    DurationHistogram,
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
    text = report.as_text()
    assert "claims_read=5\n" in text and "policies_rejected=1\n" in text


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

    # absurd ages fail at their line instead of sizing the count tables
    for age in (100000000000, 3000000):
        huge = tmp_path / f"huge_{age}.csv"
        huge.write_text(f"policy_id,claim_age\nA,30\nA,{age}\n")
        with pytest.raises(ValueError, match=rf"huge_{age}\.csv:3: age {age} outside .*{MAX_AGE}"):
            ingest(p, huge)


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
    labels = [r.label for r in table.rows]
    assert labels == ["18", "59", ">=60", "total"]
    by_label = {r.label: r for r in table.rows}
    assert by_label["18"].total == 2 and by_label["18"].no_claim == 1
    assert by_label["18"].prob_no_claim == 0.5 and by_label["18"].prob_claim == 0.5
    assert by_label[">=60"].total == 2 and by_label[">=60"].no_claim == 1
    assert by_label["total"].total == 5 and by_label["total"].no_claim == 3
    assert no_claim_table(_records()).rows == ()


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
    rows = [(r.label, r.total, r.no_claim) for r in no_claim_table(records, cap_age).rows]
    assert rows == _reference_no_claim(triples, cap_age)
