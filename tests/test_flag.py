"""Parabolic quotients: index vectors, dimension, degree, degree bound."""

import copy
import math
import pickle
from fractions import Fraction
from hashlib import sha256
from itertools import compress
from pathlib import Path

import pytest

import flagtke.flag
import flagtke.rootsys
import oracle
from flagtke import (
    KahlerClass,
    LieType,
    anticanonical_class,
    build_root_system,
    catalog_rows,
    degree,
    parabolic,
    snow_check,
)
from flagtke.flag import ParabolicData
from flagtke.sweep import SplitMix64, draw_kahler, enumerate_flags

# the six flags of the `classes` benchmark workload
CLASS_FLAGS = (("E8", ()), ("B8", ()), ("A8", ()), ("F4", ()), ("E7", (2,)), ("D8", (1, 3)))


def flags_up_to_rank(max_rank):
    """(type, theta) for every flag variety of rank <= max_rank."""
    for rank in range(1, max_rank + 1):
        for series in "ABCDEFG":
            try:
                t = LieType(series, rank)
            except ValueError:
                continue
            for mask in range(2**rank - 1):
                yield t, tuple(i + 1 for i in range(rank) if mask >> i & 1)


# ---------------------------------------------------------------------------
# construction and validation


def test_full_flag_has_all_twos():
    for token in ("A1", "A3", "B3", "C4", "D4", "G2", "F4", "E6"):
        p = parabolic(token, theta=())
        assert p.koszul == tuple([2] * p.lie_type.rank), token
        assert p.complement == tuple(range(1, p.lie_type.rank + 1))


def test_theta_equals_all_simples_rejected():
    with pytest.raises(ValueError, match="point"):
        parabolic("D5", theta=(1, 2, 3, 4, 5))


def test_theta_and_complement_together_rejected():
    with pytest.raises(ValueError):
        parabolic("A3", theta=(1,), complement=(2, 3))


def test_omitting_both_means_full_flag():
    p = parabolic("A3")
    assert p.theta == ()
    assert p.koszul == (2, 2, 2)


def test_node_indices_validated():
    for bad in ((0,), (4,), (-2,), (2.9, 1), (1.5,), (2.5,), ("2",)):
        with pytest.raises(ValueError):
            parabolic("A3", theta=bad)
        with pytest.raises(ValueError):
            parabolic("A3", complement=bad)
    # duplicates are harmless and deduplicated
    assert parabolic("A3", theta=(1, 1)).theta == (1,)


def test_an_empty_complement_is_named_as_such():
    with pytest.raises(ValueError) as info:
        parabolic("A2", complement=())
    assert str(info.value) == (
        "complement is empty for A2: the quotient is a point, not a flag variety")
    with pytest.raises(ValueError) as info:
        parabolic("A2", theta=(2, 1))
    assert str(info.value) == (
        "theta covers every simple root of A2: the quotient is a point, not a flag variety")


def test_parabolic_data_checks_and_normalizes_theta():
    rs = build_root_system("A3")
    p = ParabolicData(rs, [3, 1, 3])
    assert p.theta == (1, 3) and p == parabolic("A3", (1, 3)) and p.complement == (2,)
    assert ParabolicData(rs, iter(())) == parabolic("A3", ())
    with pytest.raises(ValueError, match=r"^theta index 4 out of range 1\.\.3 for A3$"):
        ParabolicData(rs, (4,))
    with pytest.raises(ValueError, match=r"^theta index must be an integer, got True$"):
        ParabolicData(rs, (True,))
    with pytest.raises(ValueError, match=r"^theta covers every simple root of A3: "):
        ParabolicData(rs, (1, 2, 3))


def test_bool_node_indices_rejected():
    # operator.index(True) is 1: a bool must not pass for node 1
    for bad in ((True,), (False,), (2, True)):
        with pytest.raises(ValueError, match=r"theta index must be an integer, got (True|False)"):
            parabolic("A3", theta=bad)
        with pytest.raises(ValueError,
                           match=r"complement index must be an integer, got (True|False)"):
            parabolic("A3", complement=bad)


def test_theta_complement_give_same_parabolic():
    p = parabolic("B4", theta=(2, 3))
    q = parabolic("B4", complement=(1, 4))
    assert p.theta == q.theta == (2, 3)
    assert p.complement == q.complement == (1, 4)
    assert p.koszul == q.koszul


def test_flags_and_root_systems_are_hashable():
    rs = build_root_system("E8")
    rebuilt = build_root_system.__wrapped__("E8")  # bypass the cache
    assert rebuilt is not rs and rebuilt == rs and hash(rebuilt) == hash(rs)
    # equality reads the type alone; the data derived from it agree too
    for name in ("cartan", "symmetrizer", "positive_roots", "coroot_forms", "raising_steps",
                 "_two_rho"):
        assert getattr(rebuilt, name) == getattr(rs, name), name
    p, q = parabolic("B3", (2,)), parabolic("B3", (2,))
    assert p is not q and p == q and hash(p) == hash(q)
    assert len({p, q, parabolic("B3", (1,))}) == 2


def test_radical_roots_are_exactly_the_roots_meeting_the_complement():
    p = parabolic("D5", theta=(2, 3, 5))
    comp = set(p.complement)
    expected = [r for r in p.rs.positive_roots if oracle.support(r) & comp]
    assert list(p.radical_roots) == expected
    # |radical| = |positive roots| - |positive roots of the Levi part|, the
    # latter counted by the oracle's pairings: a root lies in the Levi part
    # iff its coroot pairs to 0 with the fundamental weight of every
    # complement node; theta {2, 3, 5} spans an A3, with 6 positive roots
    levi = [r for r in p.rs.positive_roots
            if all(oracle.pairing(p.rs, oracle.unit(p.rs.rank, i), r) == 0 for i in comp)]
    assert all(oracle.support(r) <= set(p.theta) for r in levi)
    assert len(p.rs.positive_roots) == 20 and len(levi) == 6
    assert p.dim == len(p.radical_roots) == 20 - 6
    assert p.picard_rank == 2


# ---------------------------------------------------------------------------
# index vector (koszul) values


def test_projective_space_indices():
    # P^m from A_m with a single crossed end node
    for m in range(1, 7):
        token = f"A{m}"
        assert parabolic(token, complement=(1,)).koszul == (m + 1,)
        assert parabolic(token, complement=(m,)).koszul == (m + 1,)


def test_projectivized_tangent_indices():
    for n in range(1, 7):
        p = parabolic(f"A{n + 1}", complement=(n, n + 1))
        assert p.koszul == (n + 1, 2)
        assert p.dim == 2 * n + 1


def test_quadric_indices():
    # odd quadric Q^{2m-1} from B_m, node 1
    assert parabolic("B3", complement=(1,)).koszul == (5,)
    # even quadric Q^{2m-2} from D_m, node 1
    assert parabolic("D4", complement=(1,)).koszul == (6,)


def test_fork_end_pair_on_d_series():
    for rank in (4, 5, 6, 7):
        p = parabolic(f"D{rank}", complement=(rank - 1, rank))
        assert p.koszul == (rank, rank)


def test_d4_two_inequivalent_pairs():
    assert parabolic("D4", complement=(1, 3)).koszul == (4, 4)
    assert parabolic("D4", complement=(2, 4)).koszul == (4, 2)


def test_e6_end_pair():
    p = parabolic("E6", complement=(1, 6))
    assert p.koszul == (8, 8)
    # direct reconstruction: the radical-sum weight must restrict to koszul
    w = oracle.root_to_weight(p.rs, p.delta_p)
    for pos, node in enumerate(p.complement):
        assert w[node - 1] == p.koszul[pos]
    for node in p.theta:
        assert w[node - 1] == 0


def test_e7_pair_from_catalog_check():
    assert parabolic("E7", complement=(6, 7)).koszul == (12, 2)


def test_adjoint_style_pairs():
    assert parabolic("B3", complement=(1, 2)).koszul == (2, 3)
    assert parabolic("D5", complement=(1, 2)).koszul == (2, 6)
    assert parabolic("C4", complement=(2, 4)).koszul == (4, 3)


def test_koszul_positive_on_complement_for_all_small_flags():
    for token in ("A4", "B4", "C4", "D4", "G2", "F4"):
        rank = build_root_system(token).rank
        for mask in range(1, 2**rank - 1):
            theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            p = parabolic(token, theta=theta)
            assert all(k >= 2 for k in p.koszul), (token, theta)


def corrupted_a3(**slots):
    """An uncached A3 root system with the given private slots overwritten,
    so the shared `build_root_system` entry stays sound."""
    rs = flagtke.rootsys.RootSystem("A3")
    for name, value in slots.items():
        object.__setattr__(rs, name, value)
    return rs


def test_a_wrong_anticanonical_pairing_is_a_one_line_runtime_error():
    # theta {1}: 2*rho - alpha_1 = (2, 4, 3) pairs to 0 with alpha_1^v; (3, 4, 3) pairs to 2
    with pytest.raises(RuntimeError) as levi:
        ParabolicData(corrupted_a3(_two_rho=(4, 4, 3)), (1,))
    # the full flag: delta_P = 2*rho, here 0 on every node
    with pytest.raises(RuntimeError) as complement:
        ParabolicData(corrupted_a3(_two_rho=(0, 0, 0)), ())
    assert str(levi.value) == "anticanonical pairing at Levi node 1 is 2, expected 0"
    assert str(complement.value) == "anticanonical pairing at complement node 1 is 0, expected > 0"
    assert parabolic("A3", theta=()).koszul == (2, 2, 2)


def test_a_fractional_degree_is_a_one_line_runtime_error():
    # 6! * (2*2*2*4*4*6) over 7^6 if every coroot height read 7, not 1*1*1*2*2*3
    with pytest.raises(RuntimeError) as exc:
        ParabolicData(corrupted_a3(_heights=(7,) * 6), ())
    assert str(exc.value) == (f"anticanonical degree of A3/P(theta={{-}}, complement={{1,2,3}}) "
                              f"is {Fraction(720 * 768, 7**6)}, not a positive integer")
    assert degree(parabolic("A3", theta=())) == 720 * 768 // 12


def test_dim_shrinks_as_theta_grows():
    base = parabolic("D5", theta=())
    for theta in ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
        p = parabolic("D5", theta=theta)
        assert p.dim < base.dim
        base = p


# ---------------------------------------------------------------------------
# cohomology classes


def test_kahler_class_requires_positive_entries():
    with pytest.raises(ValueError):
        KahlerClass((1, 0))
    with pytest.raises(ValueError):
        KahlerClass((-1, 2))
    assert KahlerClass((Fraction(1, 3), 2)).coords == (Fraction(1, 3), Fraction(2))


def test_anticanonical_class_matches_koszul():
    p = parabolic("A3", complement=(1, 3))
    assert anticanonical_class(p).coords == tuple(Fraction(k) for k in p.koszul)


def signed_classes(rng, p):
    """Seeded classes of every sign pattern: positive, signed, and ones
    with zero coordinates."""
    k = p.picard_rank
    zeros = tuple(Fraction(0) if i % 2 else c
                  for i, c in enumerate(rng._rationals(k, -100, 100, 1, 100)))
    return [draw_kahler(rng, k), rng._rationals(k, -100, 100, 1, 100),
            rng._rationals(k, -100, 100, 1, 100), zeros]


def test_raising_step_pairings_match_the_oracle():
    # the raising-step pass against the oracle's inner-product route, on
    # every flag of rank <= 4 and the six flags of the classes benchmark
    flags = list(enumerate_flags(4)) + [parabolic(t, th) for t, th in CLASS_FLAGS]
    assert len(flags) == 109 + 6
    rng = SplitMix64(2718)
    for p in flags:
        for cls in signed_classes(rng, p):
            nums, den = p.radical_pairings(cls)
            expected = oracle.pairings(p.rs, oracle.class_weight(p, cls), p.radical_roots)
            assert tuple(Fraction(n, den) for n in nums) == expected, (p.describe(), cls)


def test_raising_step_pairings_of_koszul_are_the_delta_pairings():
    # two routes to <delta_P, coroot(g)>: the kernel's pass over the koszul
    # class, and the dot products that `parabolic` takes
    count = 0
    for t, theta in flags_up_to_rank(8):
        p = parabolic(t, theta)
        assert p._pairings(p.koszul) == p._delta_pairings, p.describe()
        count += 1
    assert count == 2458


def test_radical_step_table_pairs_as_the_full_pass_on_every_flag_of_rank_at_most_8():
    # second route: the full pass over every raising step on the complement
    # nodes, then the radical selector, against the pass over the flag's
    # radical steps alone, for seeded classes of every sign pattern
    count = 0
    rng = SplitMix64(31415)
    for t, theta in flags_up_to_rank(8):
        p = parabolic(t, theta)
        for cls in signed_classes(rng, p):
            nums, den = p.radical_pairings(cls)
            lifted = [c.numerator * (den // c.denominator) for c in cls]
            full = p.rs._coroot_pairings(p.complement, lifted)
            assert nums == tuple(compress(full, p._is_radical)), (p.describe(), cls)
        count += 1
    assert count == 2458


def test_radical_step_table_is_built_on_the_first_pairing_only(monkeypatch):
    # building a flag, its degree and its bound, and the catalog leave every
    # flag without a table; the first class pairing builds it, one step per
    # radical root, and later pairings reuse it
    made = []
    init = ParabolicData.__init__
    monkeypatch.setattr(ParabolicData, "__init__",
                        lambda self, *a: made.append(self) or init(self, *a))
    for t, theta in flags_up_to_rank(4):
        p = parabolic(t, theta)
        degree(p)
        snow_check(p)
    assert len(catalog_rows(9)) == 221
    assert len(made) == 109 + 221 and all(p._steps is None for p in made)
    p = parabolic("D5", (2, 3))
    p.radical_pairings((1, -2, 3))
    table = p._steps
    assert len(table) == p.dim
    p.radical_pairings((4, 5, 0))
    assert p._steps is table


def test_radical_step_table_is_a_hidden_slot():
    # out of the fields, the repr, equality and hashing; a pickle or a copy
    # starts without it and pairs as the original
    p, q = parabolic("B5", (2, 3)), parabolic("B5", (2, 3))
    expected = p.radical_pairings((1, -2, 3))
    assert p._steps is not None and q._steps is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert "_steps" not in p._fields and "_steps" not in repr(p)
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and clone._steps is None
        assert clone.radical_pairings((1, -2, 3)) == expected
        assert clone._steps == p._steps
    with pytest.raises(AttributeError):
        p._steps = None


def test_radical_selector_and_rho_product_on_every_flag_of_rank_at_most_8():
    # the selector, read off the kernel's pass with 1 on each complement
    # node, against the supports of the oracle (a root is radical iff its
    # support meets the complement), and the rho product, read off the
    # pass with 1 on every node, against the sums of the coroot forms
    count = 0
    for t, theta in flags_up_to_rank(8):
        p = parabolic(t, theta)
        comp = set(p.complement)
        assert p._is_radical == tuple(bool(oracle.support(r) & comp)
                                      for r in p.rs.positive_roots), p.describe()
        forms = compress(p.rs.coroot_forms, p._is_radical)
        assert p._rho_product == math.prod(sum(f) for f in forms), p.describe()
        count += 1
    assert count == 2458


def test_delta_p_is_the_sum_of_the_radical_roots_on_every_flag_of_rank_at_most_8():
    # delta_P is built as 2*rho - 2*rho_L from the few Levi roots; summing
    # the radical roots, as the definition reads, must give the same vector
    count = 0
    for t, theta in flags_up_to_rank(8):
        p = parabolic(t, theta)
        total = [0] * p.rs.rank
        for r in p.radical_roots:
            for k, c in enumerate(r):
                total[k] += c
        assert p.delta_p == tuple(total), p.describe()
        count += 1
    assert count == 2458


def test_every_flag_of_rank_at_most_8_reproduces_the_atlas_reference():
    # the benchmark's atlas oracle: one hash of type|theta|dim|koszul|degree
    # per flag, in the order of flags_up_to_rank, then the digest of all rows
    path = Path(__file__).resolve().parent.parent / "perfbench" / "atlas_reference.txt"
    header, *lines = path.read_text(encoding="ascii").splitlines()
    _, digest, _, flags = header.split()
    assert int(flags) == len(lines) == 2458
    join = lambda xs: ",".join(map(str, xs))  # noqa: E731
    rows = []
    for (t, theta), line in zip(flags_up_to_rank(8), lines, strict=True):
        p = parabolic(t, theta)
        row = f"{t}|{join(theta)}|{p.dim}|{join(p.koszul)}|{degree(p)}"
        assert line == f"{t} {join(theta) or '-'} {sha256(row.encode()).hexdigest()[:16]}", row
        rows.append(row)
    assert sha256("\n".join(rows).encode()).hexdigest() == digest


def test_radical_selector_is_a_hidden_field():
    # _is_radical, one bool per positive root that picks the radical
    # pairings out of a pass, is derived from (rs, theta): no field, out
    # of the repr, and pickle and copy give equal flags that pair equally
    p, other = parabolic("C4", (2,)), parabolic("C4", (1,))
    n = len(p.rs.positive_roots)
    assert len(p._is_radical) == n and sum(p._is_radical) == p.dim
    assert tuple(compress(p.rs.positive_roots, p._is_radical)) == p.radical_roots
    assert p._is_radical != other._is_radical
    assert "_is_radical" not in p._fields and "_is_radical" not in repr(p)
    expected = p.radical_pairings((1, 2, 3))
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p) and repr(clone) == repr(p)
        assert clone._is_radical == p._is_radical
        assert clone.radical_pairings((1, 2, 3)) == expected
    with pytest.raises(AttributeError):
        p._is_radical = None


def test_copies_rebuild_every_derived_value_on_every_flag_of_rank_at_most_4():
    derived = ("complement", "radical_roots", "delta_p", "koszul", "_delta_pairings",
               "_delta_product", "_rho_product", "_degree", "_is_radical")
    count = 0
    for t, theta in flags_up_to_rank(4):
        p = parabolic(t, theta)
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p and clone is not p
            for name in derived:
                assert getattr(clone, name) == getattr(p, name), (p.describe(), name)
        count += 1
    assert count == 109


def test_copies_share_the_cached_root_system():
    # a root system pickles and copies as its type, so every copy of a
    # flag carries the one root system `build_root_system` keeps
    p = parabolic("E8", theta=())
    rs = build_root_system("E8")
    assert p.rs is rs
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert clone == p and clone.rs is p.rs
    assert pickle.loads(pickle.dumps(rs)) is rs and copy.deepcopy(rs) is rs


def test_radical_pairings_agree_with_direct_pairing():
    p = parabolic("B3", theta=(2,))
    xi = KahlerClass((Fraction(3, 2), 1))
    direct = oracle.pairings(p.rs, oracle.class_weight(p, xi.coords), p.radical_roots)
    nums, den = p.radical_pairings(xi)
    assert all(isinstance(n, int) for n in nums) and den == 2
    assert tuple(Fraction(n, den) for n in nums) == direct


# ---------------------------------------------------------------------------
# degree


def test_degree_spot_values():
    assert degree(parabolic("A1", theta=())) == 2  # P^1
    assert degree(parabolic("A2", complement=(1,))) == 9  # P^2
    assert degree(parabolic("A3", complement=(1,))) == 64  # P^3
    assert degree(parabolic("A2", theta=())) == 48
    assert degree(parabolic("A3", complement=(2, 3))) == 4500


def test_degree_is_positive_integer_everywhere_small():
    for token in ("A3", "B3", "C3", "G2"):
        rank = build_root_system(token).rank
        for mask in range(0, 2**rank - 1):
            theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            d = degree(parabolic(token, theta=theta))
            assert isinstance(d, int) and d > 0


def test_degree_matches_hilbert_polynomial_oracle():
    # P(k) = prod over radical g of (k<delta_P,g^v> + <rho,g^v>) / <rho,g^v>
    # is dim H^0(G/P, -kK) by the Weyl dimension formula: integral at
    # k = 0..n, n-th finite difference n! * leading coefficient = degree,
    # and Serre duality P(-1-k) = (-1)^n P(k).
    count = 0
    for t, theta in flags_up_to_rank(5):
        d, r = oracle.radical_pairings(build_root_system(t), theta)
        n = len(d)

        def hilbert(k):
            return math.prod((k * dv + rv) / rv for dv, rv in zip(d, r))

        values = [hilbert(k) for k in range(n + 1)]
        assert all(v.denominator == 1 for v in values), (t, theta)
        diff = sum((-1) ** (n - j) * math.comb(n, j) * v for j, v in enumerate(values))
        assert diff == degree(parabolic(t, theta)), (t, theta)
        assert all(hilbert(-1 - k) == (-1) ** n * values[k] for k in range(n + 1)), (t, theta)
        count += 1
    assert count == 233


def test_degree_does_not_rebuild_the_parabolic(monkeypatch):
    p = parabolic("A9", complement=(2, 5, 7))

    def rebuild(*args, **kwargs):
        raise AssertionError("degree rebuilt the parabolic")

    monkeypatch.setattr(flagtke.flag, "parabolic", rebuild)
    assert degree(p) == oracle.degree(p.rs, p.theta)


# ---------------------------------------------------------------------------
# degree bound


def test_snow_check_equality_on_projective_space():
    chk = snow_check(parabolic("A2", complement=(1,)))
    assert chk.degree == 9 and chk.bound == 9
    assert chk.ok and chk.equality


def test_snow_check_strict_on_full_flag():
    chk = snow_check(parabolic("A2", theta=()))
    assert chk.degree == 48 and chk.bound == 64
    assert chk.ok and not chk.equality


def test_snow_check_p1():
    chk = snow_check(parabolic("A1", theta=()))
    assert chk.degree == 2 and chk.bound == 2 and chk.equality


def test_flag_fields_and_snow_check():
    p = parabolic("A3", complement=(2, 3))
    assert p.dim == 5
    assert p.picard_rank == 2
    assert p.koszul == (3, 2)
    snow = snow_check(p)
    assert snow.degree == degree(p) == 4500
    assert snow.bound == 6**5
    assert snow.ok and not snow.equality
