"""Named examples and the Picard-rank-two classification table.

Two kinds of content:

* worked examples with known answers (full flag varieties, and the
  paper's projectivized tangent bundle P(T P^{n+1})), returned as their
  `ParabolicData` after their defining identities are asserted;
* the three-family classification of Picard-rank-two flags.

Flags with exactly two complement nodes fall into three named families
by the number of irreducible isotropy summands (3, 4 or 5).  For each
family the generators below list the presentations checked here as
parametrized rows: the simple type, the two complement nodes in Bourbaki
numbering, the concrete isotropy group, and the closed-form koszul
numbers.  The rows are not every flag with 3, 4 or 5 summands: E6
{1,2} and E7 {1,7} (four summands) and most five-summand flags are
missing; ROADMAP.md lists the known gaps under its item on the complete
Picard-two table.  The closed forms are data, not computation: each row
is recomputed from scratch through the root-system pipeline and
compared field by field, so a wrong formula fails tests instead of
being silently accepted.

Node placements were fixed from the isotropy groups (the group label
gives the Levi subdiagram's type; where that type sits in more than one
place, as D5 in E7, the rows list one placement), and every
closed form below was re-derived by direct evaluation of the
radical-root sum; derivations live in the test suite.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from .flag import ParabolicData, parabolic
from .rootsys import LieType, _integer, _Record

__all__ = [
    "Family",
    "Picard2Class",
    "TableRow",
    "classify_picard2",
    "catalog_rows",
    "example_projectivized_tangent",
    "example_full_flag",
]


class Family(str, enum.Enum):
    """Isotropy-summand family of a Picard-rank-two flag variety."""

    I = "I"
    II = "II"
    III = "III"
    OTHER = "other"


_BY_SUMMANDS = {3: Family.I, 4: Family.II, 5: Family.III}

# Corrected type-III parameter range (the bounds are sometimes printed
# transposed); surfaced as a row note so table output flags it.
_RANGE_NOTE = "parameter range read as 3 <= p <= l-3"


class Picard2Class(_Record):
    """Classification data of one Picard-rank-two flag: the `int` pair
    ``heights``, the `int` ``summands`` and the `Family` ``family``."""

    __slots__ = ("heights", "summands", "family")


def classify_picard2(p: ParabolicData) -> Picard2Class:
    """Classify a Picard-rank-two flag by isotropy summand count.

    heights are the maximal-root coefficients at the two complement
    nodes; the summand count is the number of distinct coefficient
    pairs that radical roots take on those nodes.
    """
    if p.picard_rank != 2:
        raise ValueError(
            f"classification needs Picard rank 2, got {p.picard_rank} "
            f"for {p.describe()}"
        )
    i, j = p.complement
    mu = p.rs.maximal_root()
    heights = (mu[i - 1], mu[j - 1])
    pairs = {(g[i - 1], g[j - 1]) for g in p.radical_roots}
    summands = len(pairs)
    return Picard2Class(
        heights=heights,
        summands=summands,
        family=_BY_SUMMANDS.get(summands, Family.OTHER),
    )


class TableRow(_Record):
    """A classification row with its recomputed values and verdicts.

    ``family`` (a `Family` value), ``group`` and ``note`` are `str`s,
    ``lie_type`` a `LieType`, ``params`` a tuple of (name, `int`) pairs,
    ``summands`` an `int`; ``complement``, ``expected``, ``computed`` and
    ``heights`` are `int` pairs, and ``match`` and ``family_consistent``
    `bool`s.
    """

    __slots__ = (
        "family", "group", "lie_type", "complement", "params", "expected", "computed",
        "match", "heights", "summands", "family_consistent", "note",
    )


def _row(
    family: Family,
    lie_type: LieType,
    complement: tuple[int, int],
    expected: tuple[int, int],
    group: str,
    params: tuple[tuple[str, int], ...] = (),
    note: str = "",
) -> TableRow:
    """Instantiate one closed-form row and check it against the pipeline."""
    p = parabolic(lie_type, complement=complement)
    cls = classify_picard2(p)
    return TableRow(
        family=family.value,
        group=group,
        lie_type=lie_type,
        complement=complement,
        params=params,
        expected=expected,
        computed=p.koszul,
        match=p.koszul == expected,
        heights=cls.heights,
        summands=cls.summands,
        family_consistent=cls.family is family,
        note=note,
    )


def _family_one(max_rank: int) -> Iterator[TableRow]:
    # D(l), fork pair {l-1, l}: koszul (l, l).
    for l in range(4, max_rank + 1):
        yield _row(Family.I, LieType("D", l), (l - 1, l), expected=(l, l),
                   group=f"SO({2 * l})/U(1)xU({l - 1})", params=(("l", l),))
    # D(l), {1, l-1} and {1, l}: same koszul pair (l, 2(l-2)) by the
    # diagram symmetry swapping the fork nodes; both verified separately.
    for last in (-1, 0):
        for l in range(4, max_rank + 1):
            yield _row(Family.I, LieType("D", l), (1, l + last), expected=(l, 2 * (l - 2)),
                       group=f"SO({2 * l})/U(1)xU({l - 1})", params=(("l", l),))
    # A(r) with r = l+m+n-1, complement {l, l+m}: koszul (l+m, m+n).
    for r in range(2, max_rank + 1):
        for i in range(1, r):
            for j in range(i + 1, r + 1):
                l, m, n = i, j - i, r + 1 - j
                yield _row(Family.I, LieType("A", r), (i, j), expected=(l + m, m + n),
                           group=f"SU({l + m + n})/S(U({l})xU({m})xU({n}))",
                           params=(("l", l), ("m", m), ("n", n)))
    # E6, chain ends {1, 6}: koszul (8, 8).
    if max_rank >= 6:
        yield _row(Family.I, LieType("E", 6), (1, 6), expected=(8, 8),
                   group="E6/U(1)xU(1)xSpin(8)")


def _family_two(max_rank: int) -> Iterator[TableRow]:
    # B(l), {1, 2}: koszul (2, 2l-3).  Needs l >= 3: at l = 2 the Levi
    # is trivial and the closed form stops matching the full flag.
    for l in range(3, max_rank + 1):
        yield _row(Family.II, LieType("B", l), (1, 2), expected=(2, 2 * l - 3),
                   group=f"SO({2 * l + 1})/SO({2 * l - 3})xU(1)xU(1)", params=(("l", l),))
    # C(l), {p, l} with 1 <= p <= l-1: koszul (l, l-p+1).
    for l in range(2, max_rank + 1):
        for p in range(1, l):
            yield _row(Family.II, LieType("C", l), (p, l), expected=(l, l - p + 1),
                       group=f"Sp({l})/U({p})xU({l - p})", params=(("l", l), ("p", p)))
    # D(l), {1, 2}: koszul (2, 2(l-2)).
    for l in range(4, max_rank + 1):
        yield _row(Family.II, LieType("D", l), (1, 2), expected=(2, 2 * (l - 2)),
                   group=f"SO({2 * l})/SO({2 * (l - 2)})xU(1)xU(1)", params=(("l", l),))
    # D(l), {p, l} with 2 <= p <= l-2: koszul (l, 2(l-p-1)).
    for l in range(4, max_rank + 1):
        for p in range(2, l - 1):
            yield _row(Family.II, LieType("D", l), (p, l), expected=(l, 2 * (l - p - 1)),
                       group=f"SO({2 * l})/U({p})xU({l - p})", params=(("l", l), ("p", p)))
    if max_rank >= 6:
        yield _row(Family.II, LieType("E", 6), (1, 3), expected=(2, 8),
                   group="E6/SU(5)xU(1)xU(1)")
    if max_rank >= 7:
        # The Levi subdiagram of this isotropy group is D5, listed here on
        # nodes {1,2,3,4,5} of E7.  D5 also sits on {2,...,6} (complement
        # {1,7}, koszul (12, 10)), a placement that is not listed.
        yield _row(Family.II, LieType("E", 7), (6, 7), expected=(12, 2),
                   group="E7/SO(10)xU(1)xU(1)")


def _family_three(max_rank: int) -> Iterator[TableRow]:
    # B(l), {1, p+1} with 3 <= p <= l-3: koszul (p+1, 2l-p-2).
    for l in range(5, max_rank + 1):
        for p in range(3, l - 2):
            yield _row(Family.III, LieType("B", l), (1, p + 1), expected=(p + 1, 2 * l - p - 2),
                       group=f"SO({2 * l + 1})/U(1)xU({p})xSO({2 * (l - p - 1) + 1})",
                       params=(("l", l), ("p", p)), note=_RANGE_NOTE)


_GENERATORS = {Family.I: _family_one, Family.II: _family_two, Family.III: _family_three}


def catalog_rows(max_rank: int, family: str | None = None) -> tuple[TableRow, ...]:
    """Instantiate and verify every classification row with rank <= max_rank.

    Rows come in family order.  family may be "I", "II" or "III" to
    restrict the output.  max_rank must be at least 4 so that every
    series generator is well defined.
    """
    max_rank = _integer("max_rank", max_rank)
    if max_rank < 4:
        raise ValueError(f"max_rank must be >= 4, got {max_rank}")
    picked = [gen for fam, gen in _GENERATORS.items() if family in (None, fam.value)]
    if not picked:
        names = tuple(fam.value for fam in _GENERATORS)
        raise ValueError(f"unknown family {family!r}: expected one of {names}")
    return tuple(row for gen in picked for row in gen(max_rank))


def example_projectivized_tangent(n: int) -> ParabolicData:
    """The projectivized tangent bundle P(T P^{n+1}) of (n+1)-dimensional
    projective space, the paper's example: a flag variety of dimension
    2n+1.

    Realized on A(n+1) with complement at the last two nodes; its koszul
    numbers are (n+1, 2), asserted before returning.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = parabolic(LieType("A", n + 1), complement=(n, n + 1))
    if p.koszul != (n + 1, 2):
        raise RuntimeError(
            f"projectivized tangent bundle of P^{n + 1}: koszul {p.koszul}, "
            f"expected ({n + 1}, 2)"
        )
    return p


def example_full_flag(lie_type: LieType | str) -> ParabolicData:
    """The full flag variety of a simple type (empty Levi set).

    Its anticanonical class is twice the Weyl vector, so every koszul
    number is 2; asserted before returning.
    """
    p = parabolic(lie_type, ())
    if any(k != 2 for k in p.koszul):
        raise RuntimeError(
            f"full flag of {p.lie_type}: koszul {p.koszul}, expected all 2"
        )
    return p
