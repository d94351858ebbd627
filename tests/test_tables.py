"""Embedded reference tables and their reproduction machinery."""

import pytest

from psituples import TABLES, InputError, reproduce_table, verify_solution


def test_embedded_row_counts():
    assert {tid: len(spec.rows) for tid, spec in TABLES.items()} == {
        1: 18, 2: 33, 3: 46, 4: 33, 5: 31, 6: 6, 7: 5,
    }


def test_row_arities_match_kind():
    for spec in TABLES.values():
        width = spec.kind.equal + spec.kind.free
        assert all(len(row) == width for row in spec.rows)


def test_every_embedded_row_verifies():
    for spec in TABLES.values():
        for row in spec.rows:
            equal, free = spec.split_row(row)
            assert verify_solution(spec.kind, equal, free).ok, (spec.table_id, row)


def test_table1_is_the_power_family():
    spec = TABLES[1]
    assert spec.rows[0] == (2, 2, 1)
    assert spec.rows[8] == (512, 512, 256)
    assert spec.rows[-1] == (262144, 262144, 131072)


def test_reproduce_table3_bounded():
    diff = reproduce_table(3, bound=432)
    assert diff.missing == ()
    assert len(diff.matched) == 45
    # the one row beyond the bound is verified arithmetically instead
    assert [(row, ok) for row, ok in diff.out_of_range] == [((1615, 1065, 1670), True)]
    # unlisted finds are reported, not suppressed
    extra = {s.equal_entries + s.free_entries for s in diff.extra}
    assert (197, 27, 46) in extra


def test_reproduce_table2_small_bound():
    diff = reproduce_table(2, bound=100)
    assert diff.missing == ()
    in_range = {s.equal_entries + s.free_entries for s in diff.matched}
    assert (18, 22, 22, 2) in in_range
    assert all(ok for _, ok in diff.out_of_range)


def test_reproduce_rejects_unknown_table():
    with pytest.raises(InputError, match=r"unknown table 8; known tables: \[1, 2, 3, 4, 5, 6, 7\]"):
        reproduce_table(8)


def test_default_bounds_cover_or_spot_verify():
    # tables 2-4 search their whole printed range by default; 5 and 7 keep
    # the heavy tail out of range but every printed row still gets checked
    for tid in (2, 3, 4, 5, 7):
        diff = reproduce_table(tid)
        assert diff.ok, tid
        assert len(diff.matched) + len(diff.out_of_range) == len(TABLES[tid].rows)


def test_table1_default_bound_matches_all_rows():
    diff = reproduce_table(1, jobs=2)
    assert diff.bound == 262144
    assert len(diff.matched) == 18
    assert diff.missing == () and diff.out_of_range == ()
