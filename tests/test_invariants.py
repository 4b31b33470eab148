"""Twisted-metric existence, lower bound, volumes, scalar curvature."""

import copy
import inspect
import json
import math
import pickle
import subprocess
import sys
import threading
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from flagtke import (
    CohomologyClass,
    KahlerClass,
    anticanonical_class,
    degree,
    grlb_report,
    parabolic,
    scalar_curvature,
    snow_check,
    tke_exists,
    tke_solve_from_kahler,
    trace,
    volume_bound_report,
    volume_class,
    volume_cross_check,
)
from flagtke import flag
from flagtke.flag import PAIRING_MEMO_SIZE, ParabolicData
from flagtke.invariants import _lowest, _reduced
from flagtke.sweep import SplitMix64, draw_kahler, enumerate_flags

P1 = parabolic("A1", theta=())
P2 = parabolic("A2", complement=(1,))
A2FULL = parabolic("A2", theta=())


def small_flags(max_rank):
    return list(enumerate_flags(max_rank))


def draw_signed(rng, k):
    """k seeded rationals of any sign: numerators in [-100, 100],
    denominators in [1, 100]."""
    return rng._rationals(k, -100, 100, 1, 100)


# ---------------------------------------------------------------------------
# existence of the twisted metric


def test_tke_on_p1():
    res = tke_exists(P1, (1,))
    assert res.exists
    assert res.metric.coords == (Fraction(1),)
    assert res.margins == {1: Fraction(1)}


def test_tke_boundary_twist_fails():
    res = tke_exists(P1, (2,))
    assert not res.exists
    assert res.metric is None
    assert res.margins == {1: Fraction(0)}


def test_tke_on_projectivized_tangent():
    for n in range(1, 6):
        p = parabolic(f"A{n + 1}", complement=(n, n + 1))
        ok = tke_exists(p, (n, 1))
        assert ok.exists and ok.metric.coords == (Fraction(1), Fraction(1))
        bad = tke_exists(p, (n + 1, 0))
        assert not bad.exists
        assert bad.margins[n] == 0 and bad.margins[n + 1] == 2


def test_tke_negative_twist_is_fine():
    res = tke_exists(P2, (-5,))
    assert res.exists and res.metric.coords == (Fraction(8),)


def test_tke_margins_keyed_by_complement_node():
    p = parabolic("A3", complement=(2, 3))
    res = tke_exists(p, (Fraction(5, 2), 1))
    assert set(res.margins) == {2, 3}
    assert res.margins[2] == Fraction(1, 2)
    assert res.margins[3] == Fraction(1)


def test_tke_matches_positivity_of_difference():
    rng = SplitMix64(13)
    for p in small_flags(3):
        for _ in range(8):
            beta = draw_signed(rng, p.picard_rank)
            res = tke_exists(p, beta)
            want = all(k > b for k, b in zip(p.koszul, beta))
            assert res.exists == want, (p.lie_type, p.theta, beta)
            if res.exists:
                assert all(v > 0 for v in res.margins.values())
                assert tuple(
                    Fraction(k) - b for k, b in zip(p.koszul, beta)
                ) == res.metric.coords


def test_solve_from_kahler_and_round_trip():
    sol = tke_solve_from_kahler(P2, (1,))
    assert sol.beta.coords == (Fraction(2),)
    assert sol.omega.coords == (Fraction(1),)
    rng = SplitMix64(99)
    for p in small_flags(3):
        for _ in range(6):
            xi = draw_kahler(rng, p.picard_rank)
            sol = tke_solve_from_kahler(p, xi)
            back = tke_exists(p, sol.beta)
            assert back.exists
            assert back.metric.coords == sol.omega.coords == tuple(
                Fraction(x) for x in xi
            )


def test_solve_from_scaled_anticanonical():
    for t in (Fraction(1, 3), Fraction(9, 10)):
        xi = tuple(t * k for k in A2FULL.koszul)
        sol = tke_solve_from_kahler(A2FULL, xi)
        assert sol.beta.coords == tuple((1 - t) * k for k in A2FULL.koszul)


def test_tke_rejects_wrong_arity():
    with pytest.raises(ValueError):
        tke_exists(P2, (1, 1))
    with pytest.raises(ValueError):
        tke_solve_from_kahler(P2, (1, 1))


# ---------------------------------------------------------------------------
# greatest lower bound on twist scale


def test_grlb_of_anticanonical_is_one():
    for p in small_flags(3):
        rep = grlb_report(p, anticanonical_class(p))
        assert rep.value == 1
        assert rep.argmin == p.complement


def test_grlb_spot_values():
    assert grlb_report(A2FULL, (1, 1)).value == 2
    assert grlb_report(A2FULL, (1, 2)).value == 1
    rep = grlb_report(A2FULL, (1, 2))
    assert rep.argmin == (2,)
    assert grlb_report(P2, (1,)).value == 3


def test_grlb_tie_reports_all_argmins():
    rep = grlb_report(A2FULL, (1, 1))
    assert rep.argmin == (1, 2)


@given(
    t=st.fractions(min_value="1/9", max_value=9, max_denominator=10),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_grlb_inverse_homogeneity(t, data):
    p = data.draw(st.sampled_from(small_flags(3)))
    xi = data.draw(
        st.lists(
            st.fractions(min_value="1/5", max_value=7, max_denominator=9),
            min_size=p.picard_rank,
            max_size=p.picard_rank,
        )
    )
    rep = grlb_report(p, xi)
    scaled = grlb_report(p, tuple(t * x for x in xi))
    assert scaled.value == rep.value / t
    assert scaled.argmin == rep.argmin


def test_grlb_requires_kahler():
    with pytest.raises(ValueError):
        grlb_report(P2, (0,))
    with pytest.raises(ValueError):
        grlb_report(A2FULL, (1, -1))


# ---------------------------------------------------------------------------
# volume, two routes


def test_volume_of_anticanonical_is_degree():
    for p in small_flags(3):
        assert volume_class(p, anticanonical_class(p)) == degree(p)


def test_volume_spot_values():
    assert volume_class(P1, (1,)) == 1
    assert volume_class(P2, (1,)) == 1
    assert volume_class(P2, (3,)) == 9
    assert volume_class(A2FULL, (1, 1)) == 6
    assert volume_class(A2FULL, (1, 2)) == 18


def test_volume_cross_check_route_is_independent_but_equal():
    # hand value: dim 3, radical pairings of (1,1) are 1,1,2 and of rho 1,1,2
    assert volume_cross_check(A2FULL, (1, 1)) == 6
    rng = SplitMix64(7)
    for p in small_flags(4):
        for _ in range(5):
            xi = draw_kahler(rng, p.picard_rank)
            assert volume_class(p, xi) == volume_cross_check(p, xi)


@given(
    t=st.fractions(min_value="1/6", max_value=6, max_denominator=8),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_volume_homogeneity_of_degree_dim(t, data):
    p = data.draw(st.sampled_from(small_flags(3)))
    xi = data.draw(
        st.lists(
            st.fractions(min_value="1/5", max_value=5, max_denominator=7),
            min_size=p.picard_rank,
            max_size=p.picard_rank,
        )
    )
    assert volume_class(p, tuple(t * x for x in xi)) == t**p.dim * volume_class(p, xi)


def test_volume_requires_kahler_and_arity():
    with pytest.raises(ValueError):
        volume_class(P2, (0,))
    with pytest.raises(ValueError):
        volume_class(A2FULL, (1,))


# ---------------------------------------------------------------------------
# trace and scalar curvature


def test_trace_spot_and_linearity():
    om = KahlerClass((1, 1))
    assert trace(A2FULL, om, (0, 0)) == 0
    a = trace(A2FULL, om, (1, 0))
    b = trace(A2FULL, om, (0, 1))
    assert trace(A2FULL, om, (1, 1)) == a + b
    assert trace(A2FULL, om, (2, 3)) == 2 * a + 3 * b


def test_scalar_curvature_of_anticanonical_is_dim():
    for p in small_flags(4):
        assert scalar_curvature(p, anticanonical_class(p)) == p.dim


def test_scalar_curvature_minus_twist_trace_is_dim_at_solutions():
    # when omega solves the twisted equation, each pairing ratio is 1
    rng = SplitMix64(1234)
    for p in small_flags(3):
        for _ in range(6):
            om = draw_kahler(rng, p.picard_rank)
            beta = tke_solve_from_kahler(p, om).beta
            assert scalar_curvature(p, om) - trace(p, om, beta) == p.dim


def test_scalar_curvature_matches_trace_of_anticanonical_class():
    # scalar_curvature reads the stored delta_P pairings; the oracle pairs
    # the koszul class with every radical coroot through trace
    rng = SplitMix64(4242)
    for p in small_flags(4):
        for _ in range(5):
            om = draw_kahler(rng, p.picard_rank)
            assert scalar_curvature(p, om) == trace(p, om, p.koszul)


def test_trace_splits_scalar_curvature():
    p = A2FULL
    om = (Fraction(3, 2), Fraction(2))
    beta = (Fraction(1, 3), Fraction(-2))
    rest = tuple(k - b for k, b in zip(p.koszul, beta))
    assert scalar_curvature(p, om) == trace(p, om, beta) + trace(p, om, rest)


# ---------------------------------------------------------------------------
# the sandwich bound


def test_bound_report_double_equality_on_projective_space():
    for m in range(1, 6):
        p = parabolic(f"A{m}", complement=(1,))
        rep = volume_bound_report(p, (1,))
        n = p.dim
        assert rep.r_pow_vol == rep.degree == rep.snow == (m + 1) ** n
        assert rep.left_ok and rep.right_ok
        assert rep.left_equality and rep.right_equality


def test_bound_report_left_equality_on_anticanonical():
    for p in small_flags(3):
        rep = volume_bound_report(p, anticanonical_class(p))
        assert rep.left_ok and rep.left_equality
        assert rep.r_pow_vol == rep.degree == degree(p)
        assert rep.right_ok
        assert rep.right_equality == snow_check(p).equality


def test_bound_report_strict_when_not_proportional():
    rep = volume_bound_report(A2FULL, (1, 2))
    assert rep.left_ok and not rep.left_equality
    assert rep.r_pow_vol == 1**3 * 18  # grlb 1, volume 18
    assert rep.degree == 48


def test_left_equality_iff_proportional_to_anticanonical():
    rng = SplitMix64(5150)
    for p in small_flags(3):
        k = p.koszul
        for _ in range(6):
            xi = draw_kahler(rng, p.picard_rank)
            rep = volume_bound_report(p, xi)
            prop = len({Fraction(x) / ki for x, ki in zip(xi, k)}) == 1
            assert rep.left_ok
            assert rep.left_equality == prop, (p.lie_type, p.theta, xi)
        t = Fraction(3, 7)
        rep = volume_bound_report(p, tuple(t * ki for ki in k))
        assert rep.left_equality


def test_bound_report_values_are_consistent():
    p = parabolic("B2", theta=(1,))
    xi = (Fraction(5, 3),)
    rep = volume_bound_report(p, xi)
    r = grlb_report(p, xi).value
    v = volume_class(p, xi)
    assert rep.r_pow_vol == r**p.dim * v
    assert rep.degree == degree(p)
    assert rep.snow == (p.dim + 1) ** p.dim
    assert rep.left_ok == (rep.r_pow_vol <= rep.degree)
    assert rep.right_ok == (rep.degree <= rep.snow)


def bound_cases():
    """(flag, class) pairs for the bound report: ten seeded classes on each
    flag of rank <= 5, a seeded class and a multiple of the anticanonical
    class on three big full flags, and projective space."""
    rng = SplitMix64(2207)
    for p in small_flags(5):
        for _ in range(10):
            yield p, draw_kahler(rng, p.picard_rank)
    for lie_type in ("E8", "B8", "A8"):
        p = parabolic(lie_type, theta=())
        yield p, draw_kahler(rng, p.picard_rank)
        yield p, tuple(Fraction(2, 3) * k for k in p.koszul)
    yield parabolic("A4", complement=(1,)), (Fraction(7, 5),)


def test_bound_report_matches_the_fraction_oracle():
    verdicts = Counter()
    for p, xi in bound_cases():
        rep = volume_bound_report(p, xi)
        rv = grlb_report(p, xi).value ** p.dim * volume_class(p, xi)
        d = degree(p)
        assert type(rep.r_pow_vol) is Fraction
        assert (rep.r_pow_vol.numerator, rep.r_pow_vol.denominator) == (
            rv.numerator, rv.denominator), (p.describe(), xi)
        assert (rep.left_ok, rep.left_equality) == (rv <= d, rv == d)
        assert (rep.right_ok, rep.right_equality) == (d <= rep.snow, d == rep.snow)
        verdicts[rep.left_equality, rep.right_equality] += 1
    # strict ones, left equalities (the anticanonical multiples and every
    # Picard rank one flag) and projective space's double equality
    assert set(verdicts) == {(False, False), (True, False), (True, True)}


def test_bound_report_does_no_fraction_arithmetic(monkeypatch):
    cases = [(parabolic("A2", theta=()), (1, 2)), (parabolic("B2", theta=(1,)), (Fraction(5, 3),)),
             (parabolic("E8", theta=()), tuple(Fraction(k, 9 - k) for k in range(1, 9))),
             (parabolic("A4", complement=(1,)), (Fraction(7, 5),))]
    expected = [volume_bound_report(p, xi) for p, xi in cases]

    def arithmetic(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__pow__", "__mul__", "__rmul__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, arithmetic)
    for (p, xi), rep in zip(cases, expected):  # a fresh flag: nothing remembered
        assert volume_bound_report(parabolic(p.lie_type, p.theta), xi) == rep


LOWEST_CASES = [
    (0, 1), (1, 1), (-1, 1), (-3, 4), (7, 2), (2**61 - 1, 2**64),
    (3**2524, 2**4000), (-(3**2524), 5**1000 * 2), (2**4000 + 1, 7**30),
]


@pytest.mark.parametrize("n, d", LOWEST_CASES)
def test_lowest_builds_the_fraction_of_coprime_terms(n, d):
    assert math.gcd(n, d) == 1 and d > 0
    f = _lowest(n, d)
    assert type(f) is Fraction
    assert (f, f.numerator, f.denominator) == (Fraction(n, d), n, d)
    assert hash(f) == hash(Fraction(n, d))


REDUCED_CASES = [
    (0, 5), (6, 4), (-6, 4), (7, 1), (2**64, 2**70), (3**2524 * 10, 2**4000 * 5),
]


@pytest.mark.parametrize("n, d", REDUCED_CASES)
def test_reduced_builds_the_fraction_in_lowest_terms(n, d):
    f, g = _reduced(n, d), Fraction(n, d)
    assert type(f) is Fraction
    assert (f, f.numerator, f.denominator) == (g, g.numerator, g.denominator)
    assert hash(f) == hash(g)


# The cases of LOWEST_CASES and REDUCED_CASES, read as JSON from stdin,
# through `_lowest` and `_reduced` of the package under the source
# directory argv[1].
_LOWEST_SCRIPT = """
import json, pickle, sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from flagtke.invariants import _lowest, _reduced
lowest, reduced = json.load(sys.stdin)
for build, cases in ((_lowest, lowest), (_reduced, reduced)):
    for n, d in cases:
        f, g = build(n, d), Fraction(n, d)
        assert type(f) is Fraction, (n, d)
        assert (f.numerator, f.denominator) == (g.numerator, g.denominator), (n, d)
        assert f == g and hash(f) == hash(g) and f * 3 - g == 2 * g, (n, d)
        assert pickle.loads(pickle.dumps(f)) == g, (n, d)
print(len(lowest), len(reduced))
"""


def test_lowest_builds_the_same_fractions_under_every_other_interpreter():
    # `_lowest` and `_reduced` write the private slots of CPython's `Fraction`
    from test_cli_golden import _other_interpreters
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH or under $PYENV_ROOT")
    src = str(Path(__file__).resolve().parent.parent / "src")
    cases = json.dumps([LOWEST_CASES, REDUCED_CASES])
    runs = {exe: subprocess.run([exe, "-c", _LOWEST_SCRIPT, src], input=cases,
                                capture_output=True, text=True, timeout=120)
            for exe in interpreters}
    assert {exe: (r.returncode, r.stdout, r.stderr[-2000:]) for exe, r in runs.items()} == {
        exe: (0, f"{len(LOWEST_CASES)} {len(REDUCED_CASES)}\n", "") for exe in interpreters}


# ---------------------------------------------------------------------------
# class coercion


def test_class_inputs_accept_sequences_and_classes():
    assert volume_class(P2, CohomologyClass((2,))) == 4
    assert volume_class(P2, KahlerClass((2,))) == 4
    assert volume_class(P2, [2]) == 4
    assert volume_class(P2, (Fraction(2),)) == 4
    assert volume_class(P2, ("6/3",)) == volume_class(P2, (c for c in ["2"])) == 4
    for xi in ((1,), CohomologyClass((1,)), KahlerClass((1,))):
        sol = tke_solve_from_kahler(P2, xi)
        assert type(sol.omega) is KahlerClass and type(sol.beta) is CohomologyClass
        assert sol.beta.coords == (Fraction(2),) and type(sol.beta.coords[0]) is Fraction
        back = tke_exists(P2, sol.beta)
        assert type(back.metric) is KahlerClass and back.metric.coords == (Fraction(1),)
        assert all(type(m) is Fraction for m in (*back.margins.values(), *back.metric.coords))


# Every public class argument: (name, call with the class in that slot,
# whether the slot takes a Kahler class).  A2FULL has Picard rank 2.
CLASS_SLOTS = (
    ("tke_exists", lambda c: tke_exists(A2FULL, c), False),
    ("tke_solve_from_kahler", lambda c: tke_solve_from_kahler(A2FULL, c), True),
    ("grlb", lambda c: grlb_report(A2FULL, c).value, True),
    ("grlb_report", lambda c: grlb_report(A2FULL, c), True),
    ("volume_class", lambda c: volume_class(A2FULL, c), True),
    ("volume_cross_check", lambda c: volume_cross_check(A2FULL, c), True),
    ("trace_omega", lambda c: trace(A2FULL, c, (1, -2)), True),
    ("trace_beta", lambda c: trace(A2FULL, (1, 2), c), False),
    ("scalar_curvature", lambda c: scalar_curvature(A2FULL, c), True),
    ("volume_bound_report", lambda c: volume_bound_report(A2FULL, c), True),
    ("radical_pairings", lambda c: A2FULL.radical_pairings(c), False),
)


@pytest.mark.parametrize("wrap", (tuple, CohomologyClass), ids=("sequence", "class"))
@pytest.mark.parametrize(
    "call, kahler", [s[1:] for s in CLASS_SLOTS], ids=[s[0] for s in CLASS_SLOTS]
)
def test_every_class_argument_is_checked_at_the_boundary(call, kahler, wrap):
    for bad in ((1,), (1, 2, 3)):
        arity = f"has {len(bad)} coordinates but .* has Picard rank 2"
        with pytest.raises(ValueError, match=arity):
            call(wrap(bad))
        with pytest.raises(ValueError, match=arity):
            call(KahlerClass(bad))
    for nonpositive in ((1, 0), (-1, 2)):
        if kahler:
            with pytest.raises(ValueError, match="must have strictly positive coordinates"):
                call(wrap(nonpositive))
        else:
            call(wrap(nonpositive))
    call(wrap((1, 2)))


def test_twist_may_be_any_sign_but_kahler_may_not():
    assert tke_exists(P2, CohomologyClass((-1,))).exists
    with pytest.raises(ValueError):
        tke_solve_from_kahler(P2, (-1,))


# ---------------------------------------------------------------------------
# the per-flag memo: one entry per class argument


def test_pairing_memo_evicts_and_refills_without_changing_any_answer():
    # more classes than the memo holds, revisited in an order that evicts
    # entries and brings them back; every answer equals a fresh flag's
    rng = SplitMix64(2024)
    order = (0, 1, 2, 3, 4, 5, 0, 1, 5, 2, 0, 3)
    calls = (
        lambda p, xi, beta: p.radical_pairings(xi),
        lambda p, xi, beta: p.radical_pairings(beta),
        lambda p, xi, beta: trace(p, xi, beta),
        lambda p, xi, beta: scalar_curvature(p, xi),
        lambda p, xi, beta: volume_class(p, xi),
        lambda p, xi, beta: volume_cross_check(p, xi),
    )
    for p in small_flags(4):
        xis = [draw_kahler(rng, p.picard_rank) for _ in range(PAIRING_MEMO_SIZE + 2)]
        betas = [draw_signed(rng, p.picard_rank) for _ in xis]
        for step, i in enumerate(order):
            xi, beta = xis[i], betas[i]
            for call in calls[step % len(calls):] + calls[:step % len(calls)]:
                fresh = parabolic(p.lie_type, p.theta)
                assert call(p, xi, beta) == call(fresh, xi, beta), (p.describe(), i)
                assert len(p._memo) <= PAIRING_MEMO_SIZE
            for cls in (xi, beta):
                nums, den = p.radical_pairings(cls)
                direct = oracle.pairings(p.rs, oracle.class_weight(p, cls), p.radical_roots)
                assert tuple(Fraction(n, den) for n in nums) == direct


def test_equal_arguments_of_every_kind_give_identical_answers():
    # a tuple, a list, an equal plain class, a Kahler class and an equal
    # tuple of other Fractions: each remembered object has an entry of its
    # own (a list none), and all of them answer alike
    p = parabolic("A2", theta=())
    half = (Fraction(1, 2), 1)

    def answers(x):
        return (p.radical_pairings(x), volume_class(p, x), volume_cross_check(p, x),
                grlb_report(p, x), scalar_curvature(p, x), trace(p, x, x), trace(p, half, x),
                trace(p, x, half), tke_exists(p, x))

    first = answers(half)
    assert sorted(first[0][0]) == [1, 2, 3] and first[0][1] == 2
    kinds = (list(half), CohomologyClass(half), KahlerClass(half),
             (Fraction(2, 4), Fraction(1)))
    for x in kinds:
        assert answers(x) == first, x
    assert answers(half) == first
    held = [entry.arg for entry in p._memo.values()]
    assert len(held) == PAIRING_MEMO_SIZE
    assert all(a is b for a, b in zip(held, (half, *kinds[1:])))
    # the same numerators over another denominator are another class
    assert p.radical_pairings((1, 2)) == (first[0][0], 1)
    assert trace(p, half, (1, 2)) == 2 * p.dim


def test_pairing_memo_leaves_equality_and_hash_alone():
    p = parabolic("B3", theta=(2,))
    before = hash(p)
    for k in range(PAIRING_MEMO_SIZE + 1):
        xi = (Fraction(k + 1, 3), 2)
        volume_class(p, xi)
        trace(p, xi, (1, -1))
    assert p._memo
    fresh = parabolic("B3", theta=(2,))
    assert p == fresh and not fresh._memo
    assert hash(p) == before == hash(fresh)
    assert "_memo" not in repr(p) and repr(p) == repr(fresh)
    # the memo is no constructor parameter: a flag rebuilt from its fields
    # equals it, hashes the same and starts with an empty memo
    assert "_memo" not in inspect.signature(ParabolicData).parameters
    fields = {name: getattr(p, name) for name in p._fields}
    with pytest.raises(TypeError):
        ParabolicData(**fields, _memo=p._memo)
    rebuilt = ParabolicData(**fields)
    assert rebuilt == p and hash(rebuilt) == before and not rebuilt._memo


def test_pairing_memo_shared_by_threads_gives_single_thread_answers():
    assert parabolic("B4", theta=()).dim < flag.PRODUCT_TREE_MIN
    assert_threads_match_a_fresh_flag("B4")


def test_pairing_memo_shared_by_threads_on_a_product_tree_flag():
    assert parabolic("B8", theta=()).dim >= flag.PRODUCT_TREE_MIN
    assert_threads_match_a_fresh_flag("B8")


def test_threads_store_each_entry_class_once(monkeypatch):
    # entries made by plain and by Kahler requests, shared by threads: each
    # entry's class is stored once, when the entry is made
    stores = []

    class RecordedEntry(flag._Entry):
        __slots__ = ()

        def __setattr__(self, name, value):
            if name == "cls":
                stores.append(self)  # kept alive, so no two share an id
            super().__setattr__(name, value)

    monkeypatch.setattr(flag, "_Entry", RecordedEntry)
    assert_threads_match_a_fresh_flag("B4")
    assert stores and len({id(entry) for entry in stores}) == len(stores)


def assert_threads_match_a_fresh_flag(lie_type):
    # more threads than cores share one flag's memo; a tiny switch interval
    # interleaves fills, hits and evictions of the same entries, and every
    # other request is plain first, so both kinds of entry are made
    p = parabolic(lie_type, theta=())
    rng = SplitMix64(77)
    classes = [draw_kahler(rng, p.picard_rank) for _ in range(PAIRING_MEMO_SIZE + 3)]
    fresh = parabolic(lie_type, theta=())
    expected = [(scalar_curvature(fresh, xi), trace(fresh, xi, p.koszul),
                 volume_class(fresh, xi)) for xi in classes]
    wrong = []
    start = threading.Barrier(8)

    def work(offset):
        # an exception ends only its own thread, so it is recorded as wrong
        try:
            start.wait(timeout=60)
            for k in range(300):
                i = (k * (offset + 1) + offset) % len(classes)
                xi = classes[i]
                if k % 2:
                    p.radical_pairings(xi)
                got = (scalar_curvature(p, xi), trace(p, xi, p.koszul), volume_class(p, xi))
                if got != expected[i]:
                    wrong.append((offset, i))
        except Exception as exc:
            wrong.append((offset, repr(exc)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(p._memo) <= PAIRING_MEMO_SIZE


# ---------------------------------------------------------------------------
# the two ways of summing reciprocal pairings: lcm weights and product tree


def test_product_tree_and_lcm_sums_agree(monkeypatch):
    # every flag of rank <= 4 plus E8 and B8, each summed with every class
    # on the tree side (constant 1) and on the lcm side (above every dim)
    specs = [(p.lie_type, p.theta) for p in small_flags(4)] + [("E8", ()), ("B8", ())]
    assert len(specs) == 111
    dims = {parabolic(t, th).dim for t, th in specs}
    assert {120, 64} <= dims and {n % 2 for n in dims} == {0, 1}
    rng = SplitMix64(4242)
    cases = [(t, th, draw_kahler(rng, k), draw_signed(rng, k))
             for t, th in specs for k in [parabolic(t, th).picard_rank] for _ in range(3)]
    results = {}
    for constant in (1, 10**9):
        monkeypatch.setattr(flag, "PRODUCT_TREE_MIN", constant)
        flags = [parabolic(t, th) for t, th, _, _ in cases]
        results[constant] = [
            (scalar_curvature(p, xi), trace(p, xi, beta), trace(p, xi, xi))
            for p, (_, _, xi, beta) in zip(flags, cases)
        ]
        for p, (_, _, xi, _) in zip(flags, cases):
            entry = p._entry(xi, "xi")
            assert (entry.tree is None, entry.weights is None) == (constant > 1, constant == 1)
        if constant == 1:  # the E8 tree carries an odd last element up (15 -> 8)
            e8 = next(p for p in flags if p.dim == 120)
            assert [len(level) for level in e8._entry(cases[-6][2], "xi").tree] == [
                120, 60, 30, 15, 8, 4, 2, 1]
    assert results[1] == results[10**9]


@pytest.mark.parametrize("lie_type", ("E8", "B8", "A11"))
def test_product_tree_sums_match_the_oracle_pairings(lie_type):
    p = parabolic(lie_type, theta=())
    assert p.dim >= flag.PRODUCT_TREE_MIN  # the tree side at the default constant
    rng = SplitMix64(808)
    xi = draw_kahler(rng, p.picard_rank)
    beta = draw_signed(rng, p.picard_rank)
    ratio = oracle.pairings(p.rs, oracle.class_weight(p, xi), p.radical_roots)
    delta = oracle.pairings(p.rs, oracle.root_to_weight(p.rs, p.delta_p), p.radical_roots)
    twist = oracle.pairings(p.rs, oracle.class_weight(p, beta), p.radical_roots)
    assert scalar_curvature(p, xi) == sum(d / w for d, w in zip(delta, ratio))
    assert trace(p, xi, beta) == sum(b / w for b, w in zip(twist, ratio))
    entry = p._entry(xi, "xi")
    assert entry.tree is not None and entry.weights is None
    assert scalar_curvature(p, p.koszul) == p.dim


def test_class_bundle_pairs_each_distinct_class_once(monkeypatch):
    # the seven-call per-class bundle pairs xi and koszul - xi: two
    # pairing passes, not one per call
    passes = []
    pair = ParabolicData._pairings
    monkeypatch.setattr(ParabolicData, "_pairings",
                        lambda self, form: passes.append(form) or pair(self, form))
    checked = []
    check = ParabolicData._entry
    monkeypatch.setattr(ParabolicData, "_entry",
                        lambda self, *args, **kw: checked.append(args) or check(self, *args, **kw))
    p = parabolic("E8", theta=())
    xi = tuple(Fraction(k, k + 2) for k in range(1, 9))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    v1 = volume_class(p, xi)
    assert volume_cross_check(p, xi) == v1
    grlb_report(p, xi)
    assert scalar_curvature(p, xi) - trace(p, xi, beta) == p.dim
    assert tke_exists(p, beta).exists
    assert volume_bound_report(p, xi).volume == v1
    assert len(passes) == 2
    # each call that reads pairings reaches the memo once per class
    # argument (trace twice, volume_bound_report once, through
    # volume_class); grlb_report and tke_exists read the coordinates only
    # and never reach it
    assert len(checked) == 6


@pytest.mark.parametrize(
    "call", (grlb_report, tke_exists, tke_solve_from_kahler),
    ids=("grlb_report", "tke_exists", "tke_solve_from_kahler"),
)
def test_coordinate_readers_run_no_pairing_pass_and_make_no_entry(monkeypatch, call):
    # these three read the checked coordinates only: a fresh argument
    # costs them no pairing pass, and the memo is left as it was
    p = parabolic("E8", theta=())
    xi = [Fraction(k, k + 2) for k in range(1, 9)]
    expected = call(parabolic("E8", theta=()), xi)
    volume_class(p, tuple(xi))
    before = list(p._memo.items())

    def no_pass(self, form):
        raise AssertionError("a pairing pass")

    monkeypatch.setattr(ParabolicData, "_pairings", no_pass)
    assert call(p, list(xi)) == expected
    assert call(p, tuple(xi)) == expected
    assert list(p._memo.items()) == before


def test_class_bundle_builds_the_volume_once(monkeypatch):
    # volume_bound_report reads the volume volume_class kept in the memo;
    # volume_cross_check, the other route, builds its own
    import flagtke.invariants

    built = []

    def recorded(n, d):
        value = _reduced(n, d)
        built.append(value)
        return value

    monkeypatch.setattr(flagtke.invariants, "_reduced", recorded)
    p = parabolic("E8", theta=())
    xi = tuple(Fraction(k, k + 2) for k in range(1, 9))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    v1 = volume_class(p, xi)
    assert volume_cross_check(p, xi) == v1
    grlb_report(p, xi)
    assert scalar_curvature(p, xi) - trace(p, xi, beta) == p.dim
    assert tke_exists(p, beta).exists
    assert volume_bound_report(p, xi).volume is v1
    assert built.count(v1) == 2  # volume_class once, volume_cross_check once


def _bundle(p, xi, beta):
    """The seven-call per-class bundle of the `classes` benchmark."""
    return (volume_class(p, xi), volume_cross_check(p, xi), grlb_report(p, xi),
            scalar_curvature(p, xi), trace(p, xi, beta), tke_exists(p, beta),
            volume_bound_report(p, xi))


def test_class_bundle_and_draws_build_and_read_fractions_through_their_slots(monkeypatch):
    # no normalizing Fraction(n, d) and no numerator/denominator property
    # read on the per-class path: patched to raise, the bundle on fresh
    # flags and a seeded draw give what they give unpatched
    cases = [("E8", {"theta": ()}, tuple(Fraction(k, 9 - k) for k in range(1, 9))),
             ("B2", {"theta": (1,)}, (Fraction(5, 3),)),
             ("A4", {"complement": (1,)}, (Fraction(7, 5),))]
    inputs = []
    for token, levi, xi in cases:
        p = parabolic(token, **levi)
        beta = tuple(k - x for k, x in zip(p.koszul, xi))
        inputs.append((p, parabolic(token, **levi), xi, beta))
    expected = [_bundle(fresh, xi, beta) for _, fresh, xi, beta in inputs]
    expected_draw = draw_kahler(SplitMix64(1), 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction built or read through its public API")

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", forbidden)
        m.setattr(Fraction, "numerator", property(forbidden))
        m.setattr(Fraction, "denominator", property(forbidden))
        got = [_bundle(p, xi, beta) for p, _, xi, beta in inputs]
        got_draw = draw_kahler(SplitMix64(1), 3)
    # compared only now: == reads the properties
    assert got == expected
    assert got_draw == expected_draw


def test_volume_cross_check_never_reads_the_stored_volume():
    p = parabolic("E8", theta=())
    xi = tuple(Fraction(k, 9 - k) for k in range(1, 9))
    v = volume_class(p, xi)
    p._entry(xi, "xi").volume = v + 1  # a corrupted memo entry
    assert volume_class(p, xi) == volume_bound_report(p, xi).volume == v + 1
    assert volume_cross_check(p, xi) == v != volume_class(p, xi)


def test_volume_cross_check_never_reads_the_stored_product():
    # volume_class reads the product of the pairings off the root of the
    # entry's product tree on this flag; the cross check multiplies the
    # pairings itself
    from math import prod

    p = parabolic("E8", theta=())
    xi = tuple(Fraction(k, 10 - k) for k in range(1, 9))
    entry = p._entry(xi, "xi")
    right = volume_cross_check(p, xi)
    levels = entry.tree_levels()
    assert levels[-1] == (prod(entry.nums),)
    entry.tree = (*levels[:-1], (levels[-1][0] + 1,))  # a corrupted memo entry
    assert volume_class(p, xi) != right == volume_cross_check(p, xi)


# ---------------------------------------------------------------------------
# the per-flag memo: which arguments it remembers, and for whom


def bundle(p, xi, beta):
    """The seven calls per class that the `classes` benchmark times."""
    return (volume_class(p, xi), volume_cross_check(p, xi), grlb_report(p, xi),
            scalar_curvature(p, xi), trace(p, xi, beta), tke_exists(p, beta),
            volume_bound_report(p, xi))


@pytest.mark.parametrize("lie_type", ("E8", "F4"))
def test_class_bundle_builds_two_classes_and_two_integer_forms(monkeypatch, lie_type):
    # xi and beta = koszul - xi, each a tuple of Fractions, become a memo
    # entry, which checks the class and works out the integer form once per
    # flag, not once per call; grlb_report (twice a bundle) and tke_exists
    # read coordinates only, and take the class their entry holds
    built, forms = [], []
    init = CohomologyClass.__init__

    def counted_init(self, coords):
        built.append(coords)
        init(self, coords)

    class CountedEntry(flag._Entry):
        __slots__ = ()

        def __init__(self, arg, cls, pair):
            forms.append(arg)
            super().__init__(arg, cls, pair)

    monkeypatch.setattr(CohomologyClass, "__init__", counted_init)
    monkeypatch.setattr(flag, "_Entry", CountedEntry)
    p = parabolic(lie_type, theta=())
    xi = tuple(Fraction(k, k + 2) for k in range(1, p.picard_rank + 1))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    first = bundle(p, xi, beta)
    assert len(built) == 2 and len(forms) == 2
    assert bundle(p, xi, beta) == first  # both entries served from the memo
    assert len(built) == 2 and len(forms) == 2
    assert first == bundle(parabolic(lie_type, theta=()), list(xi), list(beta))


@pytest.mark.parametrize("lie_type", ("E8", "F4"))
def test_every_entry_is_paired_when_made_and_fills_each_field_once(monkeypatch, lie_type):
    # every entry served already holds its pairings; the tree (E8) or
    # the weights (F4) and the volume are each stored once,
    # by the first call that needs them, however often the bundle asks
    stores = Counter()
    served = []

    class CountedEntry(flag._Entry):
        def __setattr__(self, name, value):
            if value is not None:
                arg = value if name == "arg" else self.arg
                stores["xi" if arg is xi else "beta", name] += 1
            super().__setattr__(name, value)

    entry_of = ParabolicData._entry

    def served_entry(self, *args, **kw):
        entry = entry_of(self, *args, **kw)
        served.append(entry.nums)
        return entry

    monkeypatch.setattr(flag, "_Entry", CountedEntry)
    monkeypatch.setattr(ParabolicData, "_entry", served_entry)
    p = parabolic(lie_type, theta=())
    xi = tuple(Fraction(k, k + 2) for k in range(1, p.picard_rank + 1))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    first = bundle(p, xi, beta)
    assert bundle(p, xi, beta) == first
    assert len(served) == 12 and all(type(nums) is tuple for nums in served)
    sums = "tree" if p.dim >= flag.PRODUCT_TREE_MIN else "weights"
    assert stores == Counter(
        [("xi", name) for name in ("arg", "cls", "den", "nums", sums, "volume")]
        + [("beta", name) for name in ("arg", "cls", "den", "nums")])


def test_a_list_mutated_between_calls_gives_the_new_answer():
    def answers(q, x):
        return (volume_class(q, x), grlb_report(q, x).value, trace(q, x, x),
                q.radical_pairings(x))

    p = parabolic("B3", theta=(2,))
    xi = [1, 2]
    first = answers(p, xi)
    xi[0] = 3
    assert answers(p, xi) == answers(parabolic("B3", theta=(2,)), (3, 2)) != first
    assert not p._memo  # a list is never remembered


def test_argument_memo_evicts_the_oldest_without_changing_any_answer():
    p = parabolic("C3", theta=())
    rng = SplitMix64(1414)
    xis = [draw_kahler(rng, p.picard_rank) for _ in range(PAIRING_MEMO_SIZE + 3)]
    fresh = parabolic("C3", theta=())
    expected = [(volume_class(fresh, list(xi)), scalar_curvature(fresh, list(xi))) for xi in xis]
    for k, xi in enumerate(xis):
        assert (volume_class(p, xi), scalar_curvature(p, xi)) == expected[k]
        kept = xis[max(0, k + 1 - PAIRING_MEMO_SIZE):k + 1]
        assert list(p._memo) == [id(t) for t in kept]
        assert all(entry.arg is t for entry, t in zip(p._memo.values(), kept))
    for k in (0, 6, 1, 5, 2):  # evicted ones come back, remembered ones are served
        assert (volume_class(p, xis[k]), scalar_curvature(p, xis[k])) == expected[k]
        assert len(p._memo) <= PAIRING_MEMO_SIZE


def test_a_positive_request_after_a_plain_one_returns_a_kahler_class():
    p = parabolic("A3", theta=(2,))
    t = (Fraction(1, 2), 3)
    plain = p._entry(t, "class").cls
    entry = p._memo[id(t)]
    assert type(plain) is CohomologyClass and entry.arg is t and entry.cls is plain
    for _ in range(2):  # each Kahler request checks the sign, and stores nothing
        assert p._entry(t, "Kahler class", positive=True) is entry
        kahler = p._checked(t, "Kahler class", positive=True)
        assert type(kahler) is KahlerClass and kahler.coords == plain.coords
        assert entry.cls is plain
    assert p._entry(t, "class").cls is plain
    # a remembered class that is not positive fails every positive request
    neg = (Fraction(-1, 2), 3)
    assert type(p._entry(neg, "twist class").cls) is CohomologyClass
    for _ in range(2):
        with pytest.raises(ValueError, match="Kahler class must have strictly positive"):
            p._entry(neg, "Kahler class", positive=True)
    assert type(p._memo[id(neg)].cls) is CohomologyClass


def test_only_tuples_of_exact_coordinates_are_remembered():
    class Int(int):
        pass

    class Pair(tuple):
        pass

    p = parabolic("A3", theta=(2,))
    for values in ((Int(1), 2), [1, 2], Pair((1, 2)), (1, Int(2)), iter((1, 2))):
        assert p._entry(values, "class").cls.coords == (1, 2)
    assert not p._memo
    # exact int, Fraction and str, and a class, which cannot change either
    for values in ((1, 2), (Fraction(1), "2"), CohomologyClass((1, 2))):
        p._entry(values, "class")
        assert p._memo[id(values)].arg is values
    # an argument of the wrong arity is refused, and not remembered
    wrong = (1, 2, 3)
    with pytest.raises(ValueError, match="3 coordinates"):
        p._entry(wrong, "class")
    assert id(wrong) not in p._memo


def count_memo_lookups(monkeypatch):
    """The keys of every memo lookup of each flag built after this call."""
    lookups = []

    class CountedMemo(OrderedDict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    monkeypatch.setattr(flag, "OrderedDict", CountedMemo)
    return lookups


def test_checked_serves_a_remembered_tuple_and_checks_a_class_as_it_is(monkeypatch):
    lookups = count_memo_lookups(monkeypatch)
    p = parabolic("A3", theta=(2,))
    t = (Fraction(1, 2), 3)
    entry = p._entry(t, "Kahler class", positive=True)
    lookups.clear()
    assert p._checked(t, "Kahler class", positive=True) is entry.cls
    assert p._checked(t, "class") is entry.cls
    assert lookups == [id(t), id(t)]
    # a class object, remembered or not, is checked with no lookup
    plain, neg = CohomologyClass((1, 2)), CohomologyClass((-1, 2))
    for cls in (plain, neg):
        p._entry(cls, "class")
        assert p._memo[id(cls)].arg is cls
    lookups.clear()
    assert p._checked(plain, "class") is plain
    kahler = p._checked(plain, "Kahler class", positive=True)
    assert type(kahler) is KahlerClass and kahler.coords == plain.coords
    with pytest.raises(ValueError, match="Kahler class must have strictly positive"):
        p._checked(neg, "Kahler class", positive=True)
    with pytest.raises(ValueError, match="3 coordinates"):
        p._checked(KahlerClass((1, 2, 3)), "Kahler class", positive=True)
    assert lookups == []


def test_a_memo_miss_makes_one_lookup(monkeypatch):
    # the miss path checks its argument with no second lookup: the first
    # volume_class of a new tuple, and every call with a list, look once
    lookups = count_memo_lookups(monkeypatch)
    p = parabolic("A3", theta=(2,))
    t = (Fraction(1, 2), 3)
    first = volume_class(p, t)
    assert lookups == [id(t)] and p._memo[id(t)].arg is t
    lookups.clear()
    assert volume_class(p, t) == first and lookups == [id(t)]
    xs = [Fraction(1, 2), 3]
    for _ in range(3):
        lookups.clear()
        assert volume_class(p, xs) == first and lookups == [id(xs)]
    assert id(xs) not in p._memo
    # a refused argument is looked up once too
    lookups.clear()
    with pytest.raises(ValueError, match="3 coordinates"):
        volume_class(p, (1, 2, 3))
    assert len(lookups) == 1


def test_a_tuple_at_a_freed_tuples_address_gives_its_own_answer():
    # each loop drops its tuple just before building the next one, which
    # CPython then tends to place at the freed address (the same id).  The
    # class made from a tuple of ints keeps Fractions of its own, so only
    # the memo entry holds the tuple: none is freed while remembered, and
    # a new tuple never finds an entry.  The expected volume comes from a
    # list, which no memo remembers.
    p = parabolic("A2", theta=())
    fresh = parabolic("A2", theta=())
    xi = None
    for k in range(1, 40):
        del xi
        xi = (k, 1)
        assert volume_class(p, xi) == volume_class(fresh, [k, 1]), k
    assert len(p._memo) == PAIRING_MEMO_SIZE


def test_argument_memo_is_no_field():
    p = parabolic("B3", theta=(2,))
    before = hash(p)
    for k in range(PAIRING_MEMO_SIZE + 1):
        volume_class(p, (Fraction(k + 1, 3), 2))
    assert len(p._memo) == PAIRING_MEMO_SIZE
    fresh = parabolic("B3", theta=(2,))
    assert p == fresh and hash(p) == before == hash(fresh) and not fresh._memo
    assert "_memo" not in repr(p) and repr(p) == repr(fresh)
    assert "_memo" not in inspect.signature(ParabolicData).parameters
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and not clone._memo
        assert volume_class(clone, (1, 2)) == volume_class(p, (1, 2))


def test_argument_memo_shared_by_threads_gives_single_thread_answers():
    # 8 threads share one flag and the same argument tuples, more of them
    # than the memo holds, asking for each as a plain and as a Kahler class
    p = parabolic("D4", theta=(2,))
    rng = SplitMix64(88)
    xis = [draw_kahler(rng, p.picard_rank) for _ in range(PAIRING_MEMO_SIZE + 3)]
    betas = [draw_signed(rng, p.picard_rank) for _ in xis]
    fresh = parabolic("D4", theta=(2,))
    expected = [bundle(fresh, xi, beta) + (trace(fresh, xi, xi),)
                for xi, beta in zip(xis, betas)]
    wrong = []
    start = threading.Barrier(8)

    def work(offset):
        # an exception ends only its own thread, so it is recorded as wrong
        try:
            start.wait(timeout=60)
            for k in range(120):
                i = (k * (offset + 1) + offset) % len(xis)
                xi, beta = xis[i], betas[i]
                p.radical_pairings(xi)  # a plain request before the Kahler ones
                if bundle(p, xi, beta) + (trace(p, xi, xi),) != expected[i]:
                    wrong.append((offset, i))
        except Exception as exc:
            wrong.append((offset, repr(exc)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(p._memo) <= PAIRING_MEMO_SIZE


# ---------------------------------------------------------------------------
# one product of the pairings per class


@pytest.mark.parametrize("lie_type", ("E8", "B8"))
def test_class_bundle_builds_the_product_tree_once(monkeypatch, lie_type):
    # volume_class builds the metric class's tree and reads its product
    # off the root; scalar_curvature and trace sum up the same tree, and
    # only volume_cross_check multiplies the pairings out itself
    import math

    trees, products = [], []
    levels = flag._Entry.tree_levels
    prod = math.prod

    def counted_levels(self):
        if self.tree is None:
            trees.append(self.nums)
        return levels(self)

    def counted_prod(iterable, *args, **kw):
        products.append(iterable)
        return prod(iterable, *args, **kw)

    p = parabolic(lie_type, theta=())
    assert p.dim >= flag.PRODUCT_TREE_MIN
    monkeypatch.setattr(flag._Entry, "tree_levels", counted_levels)
    monkeypatch.setattr(math, "prod", counted_prod)
    xi = tuple(Fraction(k, k + 3) for k in range(1, 9))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    bundle(p, xi, beta)
    entry = p._entry(xi, "xi")
    assert trees == [entry.nums]
    assert [n for n in products if n is entry.nums] == [entry.nums]  # the cross check's
    assert entry.tree[-1][0] == prod(entry.nums)
    assert entry.volume == Fraction(degree(p) * entry.tree[-1][0],
                                    entry.den**p.dim * p._delta_product)


def test_volume_routes_agree_with_and_without_the_product_tree(monkeypatch):
    # the tree side (constant 1: every product is a tree root) and the
    # math.prod side (above every dim) give the same volume, equal to the
    # cross check's own product on both
    specs = [(p.lie_type, p.theta) for p in small_flags(3)] + [("E8", ()), ("B8", ())]
    rng = SplitMix64(5151)
    cases = [(t, th, draw_kahler(rng, parabolic(t, th).picard_rank)) for t, th in specs]
    results = {}
    for constant in (1, 10**9):
        monkeypatch.setattr(flag, "PRODUCT_TREE_MIN", constant)
        results[constant] = []
        for t, th, xi in cases:
            p = parabolic(t, th)
            v = volume_class(p, xi)
            assert v == volume_cross_check(p, xi), (p.describe(), constant)
            entry = p._entry(xi, "xi")
            assert (entry.tree is None) == (constant > 1)
            results[constant].append(v)
    assert results[1] == results[10**9]
