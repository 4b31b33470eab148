"""Root systems: construction, counts, pairings, maximal roots."""

import operator
import re
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from flagtke import LieType, build_root_system, parabolic, rootsys
from flagtke.catalog import catalog_rows, example_projectivized_tangent
from flagtke.rootsys import types_of_rank
from flagtke.sweep import SplitMix64

# ---------------------------------------------------------------------------
# helpers


def closed_form_count(t: LieType) -> int:
    m = t.rank
    if t.series == "A":
        return m * (m + 1) // 2
    if t.series in ("B", "C"):
        return m * m
    if t.series == "D":
        return m * (m - 1)
    if t.series == "E":
        return {6: 36, 7: 63, 8: 120}[m]
    return {"F": 24, "G": 6}[t.series]


def all_types(max_rank: int) -> list[LieType]:
    out = []
    for rank in range(1, max_rank + 1):
        for series in "ABCDEFG":
            try:
                out.append(LieType(series, rank))
            except ValueError:
                pass
    return out


def roots_by_string_closure(cartan) -> set[tuple[int, ...]]:
    """Independent positive-root oracle: level-by-level root strings.

    beta + alpha_i is a root iff p - <beta, coroot(alpha_i)> > 0, where
    p is how far the string through beta continues downward.  Uses only
    the Cartan matrix; no reflections, so it cannot share a bug with the
    library's reflection-closure construction.
    """
    m = len(cartan)
    simples = {tuple(int(k == i) for k in range(m)) for i in range(m)}
    known = set(simples)
    level = simples
    while level:
        nxt = set()
        for beta in level:
            pair = [sum(beta[j] * cartan[j][i] for j in range(m)) for i in range(m)]
            for i in range(m):
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) not in known:
                        break
                    p += 1
                if p - pair[i] > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.add(t)
        level = nxt
    return known


# ---------------------------------------------------------------------------
# type validation


@pytest.mark.parametrize(
    "series,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3)],
)
def test_invalid_ranks_rejected(series, rank):
    with pytest.raises(ValueError):
        LieType(series, rank)


def test_unknown_series_rejected():
    with pytest.raises(ValueError):
        LieType("H", 3)


def test_parse_tokens():
    assert LieType.parse("D5") == LieType("D", 5)
    assert LieType.parse("e7") == LieType("E", 7)
    assert str(LieType.parse(" G2 ")) == "G2"
    for bad in ("", "D", "5", "Dx", "A0", "A1_0", "A\u0663", "A+3"):
        with pytest.raises(ValueError):
            LieType.parse(bad)


def test_types_of_rank_are_the_valid_types_in_series_order():
    for rank in range(1, 12):
        assert list(types_of_rank(rank)) == [t for t in all_types(rank) if t.rank == rank]


# ---------------------------------------------------------------------------
# construction


def test_positive_root_counts_match_closed_form():
    for t in all_types(8):
        rs = build_root_system(t)
        assert len(rs.positive_roots) == closed_form_count(t), t


def test_every_spelling_of_a_type_shares_one_root_system():
    build_root_system.cache_clear()
    systems = [build_root_system(t) for t in ("A3", LieType("A", 3), " a3 ")]
    assert all(rs is systems[0] for rs in systems)
    assert build_root_system.cache_info().currsize == 1
    # the constructor parses a token as well, but only build_root_system caches
    built = rootsys.RootSystem(" a3 ")
    assert built == systems[0] and built is not systems[0]
    assert build_root_system.cache_info().currsize == 1


def test_a2_positive_roots_explicit():
    rs = build_root_system("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "token", ["A3", "B3", "C3", "D4", "F4", "G2", "B2", "A32", "B32", "C32", "D32"]
)
def test_reflection_closure_agrees_with_root_string_oracle(token):
    rs = build_root_system(token)
    oracle = roots_by_string_closure(rs.cartan)
    assert set(rs.positive_roots) == oracle


def test_cartan_matrices_frozen_spots():
    assert build_root_system("A2").cartan == ((2, -1), (-1, 2))
    assert build_root_system("B2").cartan == ((2, -2), (-1, 2))
    assert build_root_system("C2").cartan == ((2, -1), (-2, 2))
    assert build_root_system("G2").cartan == ((2, -1), (-3, 2))
    assert build_root_system("B3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build_root_system("C3").cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build_root_system("F4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    assert build_root_system("D4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    # E-series branch node is 2, attached to node 4
    e6 = build_root_system("E6").cartan
    assert e6[0][2] == e6[2][0] == -1  # 1-3 bond
    assert e6[1][3] == e6[3][1] == -1  # 2-4 bond
    assert e6[0][1] == e6[1][0] == 0  # 1 and 2 not adjacent


def test_cartan_entries_in_allowed_set():
    for t in all_types(8):
        a = build_root_system(t).cartan
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                assert v == 2 if i == j else v in (0, -1, -2, -3)


def test_symmetrizer_symmetrizes_and_spots():
    # on a connected diagram "positive, symmetrizing, d[0] = 1" has one
    # solution, so this pins the symmetrizer, which the oracle reads, by
    # the Cartan matrix alone; the CLI's rank limit 32 included
    for t in [*all_types(8), "A32", "B32", "C32", "D32"]:
        rs = build_root_system(t)
        a, d = rs.cartan, rs.symmetrizer
        m = rs.rank
        assert d[0] == 1 and all(x > 0 for x in d)
        for i in range(m):
            for j in range(m):
                assert d[j] * a[i][j] == d[i] * a[j][i]
    assert build_root_system("B3").symmetrizer == (1, 1, Fraction(1, 2))
    assert build_root_system("C3").symmetrizer == (1, 1, 2)
    assert build_root_system("G2").symmetrizer == (1, 3)
    assert build_root_system("F4").symmetrizer == (1, 1, Fraction(1, 2), Fraction(1, 2))


def test_every_nonsimple_positive_root_has_simple_predecessor():
    for t in all_types(6):
        rs = build_root_system(t)
        present = set(rs.positive_roots)
        for r in rs.positive_roots:
            if sum(r) == 1:
                continue
            preds = 0
            for i in range(rs.rank):
                down = list(r)
                down[i] -= 1
                if tuple(down) in present:
                    preds += 1
            assert preds >= 1, (t, r)


def test_positive_roots_sorted_by_height_then_coeffs():
    for t in all_types(6):
        rs = build_root_system(t)
        keys = [(sum(r), r) for r in rs.positive_roots]
        assert keys == sorted(keys)


def _is_int_tuple(root) -> bool:
    return type(root) is tuple and all(type(c) is int for c in root)


def test_every_root_is_a_tuple_of_ints():
    types = all_types(8)
    assert len(types) == 32
    for t in types:
        rs = build_root_system(t)
        assert all(map(_is_int_tuple, rs.positive_roots)), t
        assert _is_int_tuple(rs.maximal_root()), t
        flags = [parabolic(t, ()), *(parabolic(t, complement=(i,)) for i in range(1, t.rank + 1))]
        for p in flags:
            assert all(map(_is_int_tuple, p.radical_roots)), p.describe()
            assert _is_int_tuple(p.delta_p) and len(p.delta_p) == t.rank, p.describe()


# ---------------------------------------------------------------------------
# pairing: the stored integer forms against the rational route of `oracle`


def stored_form(rs, coeffs):
    return rs.coroot_forms[rs.positive_roots.index(tuple(coeffs))]


def test_pairing_fundamental_weight_vs_simple_coroot_is_kronecker():
    for t in all_types(8):
        rs = build_root_system(t)
        m = rs.rank
        for j in range(1, m + 1):
            assert stored_form(rs, oracle.unit(m, j)) == oracle.unit(m, j), (t, j)
            for i in range(1, m + 1):
                got = oracle.pairing(rs, oracle.unit(m, i), oracle.unit(m, j))
                assert got == (1 if i == j else 0), (t, i, j)


def test_pairing_spot_values():
    a2 = build_root_system("A2")
    assert oracle.pairing(a2, oracle.weyl_vector(a2), (1, 1)) == 2
    assert sum(stored_form(a2, (1, 1))) == 2
    b2 = build_root_system("B2")
    assert oracle.pairing(b2, oracle.unit(2, 2), (1, 1)) == 1
    assert stored_form(b2, (1, 1))[1] == 1


def test_pairing_negative_root_negates():
    rs = build_root_system("B3")
    lam = (1, Fraction(2, 3), -1)
    for r in rs.positive_roots:
        neg = tuple(-c for c in r)
        assert oracle.pairing(rs, lam, neg) == -oracle.pairing(rs, lam, r)


@given(
    t=st.sampled_from(["A1", "A3", "B2", "C3", "D4", "G2", "F4"]),
    a=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    b=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pairing_linear_in_weight(t, a, b, data):
    rs = build_root_system(t)
    m = rs.rank
    coords = st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
        min_size=m,
        max_size=m,
    )
    lam = data.draw(coords)
    mu = data.draw(coords)
    gamma = data.draw(st.sampled_from(rs.positive_roots))
    combo = tuple(a * x + b * y for x, y in zip(lam, mu))
    assert oracle.pairing(rs, combo, gamma) == a * oracle.pairing(
        rs, lam, gamma
    ) + b * oracle.pairing(rs, mu, gamma)


@given(
    t=st.sampled_from(["A2", "B3", "C2", "D4", "G2"]),
    scale=st.fractions(min_value="1/7", max_value=9, max_denominator=11),
)
@settings(max_examples=40, deadline=None)
def test_symmetrizer_rescaling_leaves_pairings_unchanged(t, scale):
    rs = build_root_system(t)
    # the oracle reads the Cartan matrix, the symmetrizer and the rank only
    scaled = SimpleNamespace(cartan=rs.cartan, rank=rs.rank,
                             symmetrizer=tuple(scale * d for d in rs.symmetrizer))
    for i in range(1, rs.rank + 1):
        lam = oracle.unit(rs.rank, i)
        assert oracle.pairings(scaled, lam, rs.positive_roots) == oracle.pairings(
            rs, lam, rs.positive_roots
        )


def test_stored_coroot_forms_are_ints_equal_to_fraction_route():
    for t in all_types(8) + [LieType(series, 12) for series in "BCD"]:
        rs = build_root_system(t)
        m = rs.rank
        assert len(rs.coroot_forms) == len(rs.positive_roots)
        # form[i-1] = <omega_i, coroot(r)>, by the oracle's own route
        columns = [oracle.pairings(rs, oracle.unit(m, i), rs.positive_roots)
                   for i in range(1, m + 1)]
        expected = list(zip(*columns))
        for k, (r, form) in enumerate(zip(rs.positive_roots, rs.coroot_forms)):
            assert all(type(v) is int for v in form), (t, r)
            assert form == expected[k], (t, r)


def test_raising_steps_rebuild_every_coroot_form():
    # form(root k) = form(root parent - 1) + step * e_node, the parent an
    # earlier root stored as 1 + its index (or 0: the zero form, for a
    # simple root), and the root itself is its parent raised along the
    # same node
    for t in all_types(8) + [LieType(series, 12) for series in "BCD"] + [LieType("A", 32)]:
        rs = build_root_system(t)
        m = rs.rank
        assert len(rs.raising_steps) == len(rs.positive_roots)
        forms = ((0,) * m, *rs.coroot_forms)  # forms[parent], the zero form first
        roots = ((0,) * m, *rs.positive_roots)
        for k, (parent, node, step) in enumerate(rs.raising_steps):
            assert 0 <= parent <= k and 1 <= node <= m and step > 0, (t, k)
            raised = tuple(v + step * e for v, e in zip(forms[parent], oracle.unit(m, node)))
            assert rs.coroot_forms[k] == raised, (t, k)
            rise = [c - b for c, b in zip(rs.positive_roots[k], roots[parent])]
            assert rise[node - 1] > 0 and rise.count(0) == m - 1, (t, k)
        simple = sorted(s for s in rs.raising_steps if s[0] == 0)
        assert simple == [(0, i, 1) for i in range(1, m + 1)], t


def test_coroot_pairings_are_dot_products_with_the_coroot_forms():
    # the one pass over the raising steps against sum_i lam_i * form[i],
    # for unit weights, rho, a seeded signed weight on every node and one
    # on a seeded subset of the nodes (0 elsewhere)
    rng = SplitMix64(1931)
    for t in all_types(8) + [LieType("A", 32)]:
        rs = build_root_system(t)
        m = rs.rank
        nodes = range(1, m + 1)
        subset = list(compress(nodes, rng._rationals(m, 0, 1, 1, 1)))
        cases = [((i,), (1,)) for i in nodes] + [(nodes, [1] * m)]
        cases += [(on, list(map(int, rng._rationals(len(on), -9, 9, 1, 1))))
                  for on in (nodes, subset)]
        for on, values in cases:
            lam = [0] * m
            for node, value in zip(on, values):
                lam[node - 1] = value
            got = rs._coroot_pairings(on, values)
            assert all(type(v) is int for v in got), (t, on)
            assert got == [sum(map(operator.mul, lam, f)) for f in rs.coroot_forms], (t, on)


# ---------------------------------------------------------------------------
# root_to_weight


def test_root_to_weight_spots():
    a2 = build_root_system("A2")
    assert oracle.root_to_weight(a2, (1, 0)) == (2, -1)
    assert oracle.root_to_weight(a2, (0, 0)) == (0, 0)
    b2 = build_root_system("B2")
    assert oracle.root_to_weight(b2, (1, 2)) == (0, 2)
    assert oracle.weight_to_root(b2, (0, 2)) == (1, 2)


def test_root_to_weight_preserves_pairings():
    for t in all_types(6):
        rs = build_root_system(t)
        a, d = rs.cartan, rs.symmetrizer
        m = rs.rank
        for g in rs.positive_roots:
            w = oracle.root_to_weight(rs, g)
            assert oracle.weight_to_root(rs, w) == g, (t, g)
            got = oracle.pairings(rs, w, rs.positive_roots)
            for b, form, value in zip(rs.positive_roots, rs.coroot_forms, got):
                # symmetrized root-coordinate computation, no weight basis
                num = sum(
                    g[i] * a[i][j] * d[j] * b[j]
                    for i in range(m)
                    for j in range(m)
                )
                den = sum(
                    b[i] * a[i][j] * d[j] * b[j]
                    for i in range(m)
                    for j in range(m)
                )
                expected = Fraction(2 * num, 1) / den
                assert value == expected, (t, g, b)
                assert sum(x * v for x, v in zip(w, form)) == expected, (t, g, b)


# ---------------------------------------------------------------------------
# weyl vector and maximal root


def test_weyl_vector_is_all_ones_and_half_sum_of_positives():
    # and the stored 2*rho is that sum, of ints: on every type of rank <= 8
    # and three large ones
    for t in [*all_types(8), *map(LieType.parse, ("A32", "C32", "D32"))]:
        rs = build_root_system(t)
        rho = oracle.weyl_vector(rs)
        assert rho == tuple([Fraction(1)] * rs.rank)
        total = [0] * rs.rank
        for r in rs.positive_roots:
            for k, c in enumerate(r):
                total[k] += c
        half = tuple(x / 2 for x in oracle.root_to_weight(rs, total))
        assert half == rho, t
        assert rs._two_rho == tuple(total) and all(type(c) is int for c in rs._two_rho), t


def test_root_system_whose_two_rho_does_not_pair_to_two_raises(monkeypatch):
    # the 2*rho check runs once, when the root system is built: without
    # alpha_1, the sum pairs to 0 with the first simple coroot
    closure = rootsys._positive_roots

    def first_dropped(cartan):
        roots, forms, steps = closure(cartan)
        return roots[1:], forms[1:], steps[1:]

    monkeypatch.setattr(rootsys, "_positive_roots", first_dropped)
    for token in ("A2", "D5", "E8"):
        with pytest.raises(RuntimeError, match=f"2\\*rho of {token} does not pair to 2"):
            rootsys.RootSystem(token)


MAX_ROOT_HEIGHTS = {
    "A5": (1, 1, 1, 1, 1),
    "B5": (1, 2, 2, 2, 2),
    "C5": (2, 2, 2, 2, 1),
    "D5": (1, 2, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}


def test_maximal_root_heights_frozen():
    for token, heights in MAX_ROOT_HEIGHTS.items():
        rs = build_root_system(token)
        assert rs.maximal_root() == heights, token
    # one height per node 1..rank, none zero: every simple root occurs
    for t in all_types(8):
        coeffs = build_root_system(t).maximal_root()
        assert len(coeffs) == t.rank and min(coeffs) >= 1, t


def test_maximal_root_dominates_every_positive_root():
    for t in all_types(7):
        rs = build_root_system(t)
        mu = rs.maximal_root()
        for r in rs.positive_roots:
            assert all(mc >= rc for mc, rc in zip(mu, r))


def test_root_system_whose_last_root_does_not_dominate_raises(monkeypatch):
    # the dominance check runs once, when the root system is built
    closure = rootsys._positive_roots

    def last_two_swapped(cartan):
        roots, forms, steps = closure(cartan)
        return (*roots[:-2], roots[-1], roots[-2]), forms, steps

    monkeypatch.setattr(rootsys, "_positive_roots", last_two_swapped)
    for token in ("A2", "D5", "E8"):
        with pytest.raises(RuntimeError, match=f"no dominating root in {token}"):
            rootsys.RootSystem(token)


def test_maximal_root_plus_simple_is_never_a_root():
    for t in all_types(7):
        rs = build_root_system(t)
        mu = rs.maximal_root()
        roots = set(rs.positive_roots)
        for i in range(1, rs.rank + 1):
            up = tuple(c + e for c, e in zip(mu, oracle.unit(rs.rank, i)))
            assert up not in roots, (t, i)


def test_low_rank_coincidences_kept_separate():
    b2 = build_root_system("B2")
    c2 = build_root_system("C2")
    assert b2.cartan != c2.cartan
    assert len(b2.positive_roots) == len(c2.positive_roots) == 4


# ---------------------------------------------------------------------------
# one integer rule for every integer argument


class Index:
    """An integer-like object that is no `int`: it has ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "call, name, bad",
    [
        (lambda: LieType("E", 6.5), "rank", 6.5),
        (lambda: LieType("A", True), "rank", True),
        (lambda: list(types_of_rank(2.0)), "rank", 2.0),
        (lambda: SplitMix64(1.5), "seed", 1.5),
        (lambda: SplitMix64(True), "seed", True),
        (lambda: catalog_rows(4.5), "max_rank", 4.5),
        (lambda: example_projectivized_tangent(2.5), "n", 2.5),
        (lambda: example_projectivized_tangent(True), "n", True),
    ],
    ids=["LieType-float", "LieType-bool", "types_of_rank", "seed-float", "seed-bool",
         "catalog_rows", "tangent-float", "tangent-bool"],
)
def test_integer_arguments_follow_one_rule(call, name, bad):
    # a bool or a float is no integer, whatever its value
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        call()


def test_integer_arguments_take_any_index_and_become_ints():
    t = LieType("A", Index(3))
    assert type(t.rank) is int and t == LieType("A", 3)
    rng, ref = SplitMix64(Index(7)), SplitMix64(7)
    assert rng.next_u64() == ref.next_u64()
    assert example_projectivized_tangent(Index(2)) == example_projectivized_tangent(2)
    assert catalog_rows(Index(4)) == catalog_rows(4)
