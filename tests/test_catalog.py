"""Picard-rank-2 classification and the survey of known families."""

import pytest

from flagtke import (
    Family,
    catalog_rows,
    classify_picard2,
    example_full_flag,
    example_projectivized_tangent,
    parabolic,
)


# ---------------------------------------------------------------------------
# classification of a single flag


def test_classify_a_series_pair():
    c = classify_picard2(parabolic("A4", complement=(2, 3)))
    assert c.heights == (1, 1)
    assert c.summands == 3
    assert c.family is Family.I


def test_classify_b_adjoint_pair():
    c = classify_picard2(parabolic("B4", complement=(1, 2)))
    assert c.heights == (1, 2)
    assert c.summands == 4
    assert c.family is Family.II


def test_classify_e6_end_pair():
    c = classify_picard2(parabolic("E6", complement=(1, 6)))
    assert c.summands == 3
    assert c.family is Family.I


def test_classify_b6_three_step():
    c = classify_picard2(parabolic("B6", complement=(1, 4)))
    assert c.summands == 5
    assert c.family is Family.III


def test_classify_d4_pairs_differ():
    assert classify_picard2(parabolic("D4", complement=(1, 3))).family is Family.I
    assert classify_picard2(parabolic("D4", complement=(2, 4))).family is Family.II


def test_classify_rejects_other_picard_ranks():
    with pytest.raises(ValueError):
        classify_picard2(parabolic("A3", complement=(1,)))
    with pytest.raises(ValueError):
        classify_picard2(parabolic("A3", theta=()))


def test_classify_can_land_outside_families():
    # C3 with complement {1, 2}: radical-root coefficient pairs
    # (1,0),(0,1),(1,1),(0,2),(1,2),(2,2) give six summands
    c = classify_picard2(parabolic("C3", complement=(1, 2)))
    assert c.family is Family.OTHER
    assert c.summands not in (3, 4, 5)


# ---------------------------------------------------------------------------
# the survey table


def test_catalog_up_to_rank_nine_all_consistent():
    rows = catalog_rows(9)
    assert len(rows) == 221
    assert all(r.match for r in rows)
    assert all(r.family_consistent for r in rows)
    assert all(r.computed == r.expected for r in rows)


def test_catalog_family_counts_at_rank_nine():
    rows = catalog_rows(9)
    by_family = {f: sum(1 for r in rows if r.family == f) for f in ("I", "II", "III")}
    assert by_family == {"I": 139, "II": 72, "III": 10}


def test_catalog_specific_rows():
    rows = {(str(r.lie_type), r.complement): r for r in catalog_rows(9)}
    assert rows[("E6", (1, 6))].expected == (8, 8)
    assert rows[("E7", (6, 7))].expected == (12, 2)
    assert rows[("B9", (1, 4))].expected == (4, 13)
    assert rows[("D5", (1, 2))].expected == (2, 6)
    assert rows[("C4", (2, 4))].expected == (4, 3)
    assert rows[("D5", (4, 5))].expected == (5, 5)


def test_third_family_starts_at_rank_six():
    assert catalog_rows(5, family="III") == ()
    only = catalog_rows(6, family="III")
    assert len(only) == 1
    row = only[0]
    assert str(row.lie_type) == "B6"
    assert row.complement == (1, 4)
    assert row.expected == (4, 7)
    assert row.match


def test_catalog_family_filter_and_validation():
    twos = catalog_rows(7, family="II")
    assert twos and all(r.family == "II" for r in twos)
    with pytest.raises(ValueError):
        catalog_rows(3)
    with pytest.raises(ValueError, match=r"unknown family 'IV'.*'I', 'II', 'III'"):
        catalog_rows(6, family="IV")


@pytest.mark.parametrize("max_rank", range(4, 10))
def test_catalog_family_filter_partitions_the_table(max_rank):
    parts = [catalog_rows(max_rank, family=f) for f in ("I", "II", "III")]
    assert sum(parts, ()) == catalog_rows(max_rank)


def test_catalog_rows_carry_group_labels():
    rows = catalog_rows(6)
    assert all(r.group for r in rows)
    a_groups = {r.group for r in rows if r.lie_type.series == "A"}
    assert any("SU" in g for g in a_groups)


# ---------------------------------------------------------------------------
# named examples


def test_projectivized_tangent_example():
    for n, want in ((1, (2, 2)), (2, (3, 2)), (5, (6, 2))):
        p = example_projectivized_tangent(n)
        assert p.koszul == want
        assert p.dim == 2 * n + 1
    with pytest.raises(ValueError):
        example_projectivized_tangent(0)


def test_full_flag_example():
    for token, dim in (("A3", 6), ("G2", 6), ("E8", 120)):
        p = example_full_flag(token)
        assert p.dim == dim
        assert set(p.koszul) == {2}
