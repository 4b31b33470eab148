"""Twisted-metric existence, lower bound, volumes, scalar curvature."""

import inspect
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from flagtke import (
    CohomologyClass,
    KahlerClass,
    anticanonical_class,
    degree,
    grlb,
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
from flagtke.flag import PAIRING_MEMO_SIZE, ParabolicData
from flagtke.sweep import SplitMix64, draw_kahler, draw_twist, enumerate_flags

P1 = parabolic("A1", theta=())
P2 = parabolic("A2", complement=(1,))
A2FULL = parabolic("A2", theta=())


def small_flags(max_rank):
    return list(enumerate_flags(max_rank))


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
            beta = draw_twist(rng, p.picard_rank)
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
    assert grlb(A2FULL, (1, 1)) == 2
    assert grlb(A2FULL, (1, 2)) == 1
    rep = grlb_report(A2FULL, (1, 2))
    assert rep.argmin == (2,)
    assert grlb(P2, (1,)) == 3


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
        grlb(P2, (0,))
    with pytest.raises(ValueError):
        grlb(A2FULL, (1, -1))


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
    om = KahlerClass.of((1, 1))
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
    r = grlb(p, xi)
    v = volume_class(p, xi)
    assert rep.r_pow_vol == r**p.dim * v
    assert rep.degree == degree(p)
    assert rep.snow == (p.dim + 1) ** p.dim
    assert rep.left_ok == (rep.r_pow_vol <= rep.degree)
    assert rep.right_ok == (rep.degree <= rep.snow)


# ---------------------------------------------------------------------------
# class coercion


def test_class_inputs_accept_sequences_and_classes():
    assert volume_class(P2, CohomologyClass.of((2,))) == 4
    assert volume_class(P2, KahlerClass.of((2,))) == 4
    assert volume_class(P2, [2]) == 4
    assert volume_class(P2, (Fraction(2),)) == 4
    for xi in ((1,), CohomologyClass.of((1,)), KahlerClass.of((1,))):
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
    ("grlb", lambda c: grlb(A2FULL, c), True),
    ("grlb_report", lambda c: grlb_report(A2FULL, c), True),
    ("volume_class", lambda c: volume_class(A2FULL, c), True),
    ("volume_cross_check", lambda c: volume_cross_check(A2FULL, c), True),
    ("trace_omega", lambda c: trace(A2FULL, c, (1, -2)), True),
    ("trace_beta", lambda c: trace(A2FULL, (1, 2), c), False),
    ("scalar_curvature", lambda c: scalar_curvature(A2FULL, c), True),
    ("volume_bound_report", lambda c: volume_bound_report(A2FULL, c), True),
    ("radical_pairings", lambda c: A2FULL.radical_pairings(c), False),
)


@pytest.mark.parametrize("wrap", (tuple, CohomologyClass.of), ids=("sequence", "class"))
@pytest.mark.parametrize(
    "call, kahler", [s[1:] for s in CLASS_SLOTS], ids=[s[0] for s in CLASS_SLOTS]
)
def test_every_class_argument_is_checked_at_the_boundary(call, kahler, wrap):
    for bad in ((1,), (1, 2, 3)):
        arity = f"has {len(bad)} coordinates but .* has Picard rank 2"
        with pytest.raises(ValueError, match=arity):
            call(wrap(bad))
        with pytest.raises(ValueError, match=arity):
            call(KahlerClass.of(bad))
    for nonpositive in ((1, 0), (-1, 2)):
        if kahler:
            with pytest.raises(ValueError, match="must have strictly positive coordinates"):
                call(wrap(nonpositive))
        else:
            call(wrap(nonpositive))
    call(wrap((1, 2)))


def test_twist_may_be_any_sign_but_kahler_may_not():
    assert tke_exists(P2, CohomologyClass.of((-1,))).exists
    with pytest.raises(ValueError):
        tke_solve_from_kahler(P2, (-1,))


# ---------------------------------------------------------------------------
# the per-flag pairing memo


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
        betas = [draw_twist(rng, p.picard_rank) for _ in xis]
        for step, i in enumerate(order):
            xi, beta = xis[i], betas[i]
            for call in calls[step % len(calls):] + calls[:step % len(calls)]:
                fresh = parabolic(p.lie_type, p.theta)
                assert call(p, xi, beta) == call(fresh, xi, beta), (p.describe(), i)
                assert len(p._paired) <= PAIRING_MEMO_SIZE
            for cls in (xi, beta):
                nums, den = p.radical_pairings(cls)
                direct = oracle.pairings(p.rs, oracle.class_weight(p, cls), p.radical_roots)
                assert tuple(Fraction(n, den) for n in nums) == direct


def test_equal_classes_share_one_memo_entry_and_scales_do_not_collide():
    p = parabolic("A2", theta=())
    half = (Fraction(1, 2), 1)
    assert sorted(p.radical_pairings(half)[0]) == [1, 2, 3]
    for cls in (half, (Fraction(2, 4), Fraction(1)), CohomologyClass.of(half),
                KahlerClass.of(half)):
        assert p.radical_pairings(cls)[1] == 2
    assert len(p._paired) == 1
    # the same numerators over another denominator are another class
    assert p.radical_pairings((1, 2)) == (p.radical_pairings(half)[0], 1)
    assert len(p._paired) == 2
    assert trace(p, half, (1, 2)) == 2 * p.dim


def test_pairing_memo_leaves_equality_and_hash_alone():
    p = parabolic("B3", theta=(2,))
    before = hash(p)
    for k in range(PAIRING_MEMO_SIZE + 1):
        xi = (Fraction(k + 1, 3), 2)
        volume_class(p, xi)
        trace(p, xi, (1, -1))
    assert p._paired
    fresh = parabolic("B3", theta=(2,))
    assert p == fresh and not fresh._paired
    assert hash(p) == before == hash(fresh)
    assert "_paired" not in repr(p) and repr(p) == repr(fresh)
    # the memo is no constructor parameter: a flag rebuilt from its fields
    # equals it, hashes the same and starts with an empty memo
    assert "_paired" not in inspect.signature(ParabolicData).parameters
    fields = {name: getattr(p, name) for name in p._fields}
    with pytest.raises(TypeError):
        ParabolicData(**fields, _paired=p._paired)
    rebuilt = ParabolicData(**fields)
    assert rebuilt == p and hash(rebuilt) == before and not rebuilt._paired


def test_pairing_memo_shared_by_threads_gives_single_thread_answers():
    # more threads than cores share one flag's memo; a tiny switch interval
    # interleaves fills, hits and evictions of the same entries
    p = parabolic("B4", theta=())
    rng = SplitMix64(77)
    classes = [draw_kahler(rng, p.picard_rank) for _ in range(PAIRING_MEMO_SIZE + 3)]
    fresh = parabolic("B4", theta=())
    expected = [(scalar_curvature(fresh, xi), trace(fresh, xi, p.koszul),
                 volume_class(fresh, xi)) for xi in classes]
    wrong = []
    start = threading.Barrier(8)

    def work(offset):
        start.wait(timeout=60)
        for k in range(300):
            i = (k * (offset + 1) + offset) % len(classes)
            xi = classes[i]
            got = (scalar_curvature(p, xi), trace(p, xi, p.koszul), volume_class(p, xi))
            if got != expected[i]:
                wrong.append((offset, i))

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
    assert len(p._paired) <= PAIRING_MEMO_SIZE


class CountedRows(tuple):
    """A tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        CountedRows.passes += 1
        return super().__iter__()


def test_class_bundle_pairs_each_distinct_class_once():
    # the seven-call per-class bundle pairs xi and koszul - xi: two passes
    # over the radical coroot rows, not one per call
    p = parabolic("E8", theta=())
    object.__setattr__(p, "_complement_forms", CountedRows(p._complement_forms))
    CountedRows.passes = 0
    xi = tuple(Fraction(k, k + 2) for k in range(1, 9))
    beta = tuple(k - x for k, x in zip(p.koszul, xi))
    v1 = volume_class(p, xi)
    assert volume_cross_check(p, xi) == v1
    grlb_report(p, xi)
    assert scalar_curvature(p, xi) - trace(p, xi, beta) == p.dim
    assert tke_exists(p, beta).exists
    assert volume_bound_report(p, xi).volume == v1
    assert CountedRows.passes == 2
