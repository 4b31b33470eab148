"""The integer class arithmetic against the plain `Fraction` definitions.

`grlb_report`, `tke_exists`, `tke_solve_from_kahler` and the positivity
of a `KahlerClass` work on integer numerators and denominators.  Here each
is compared with its textbook form in `Fraction` arithmetic, on every flag
of rank <= 4 with seeded classes, forced ties (xi proportional to koszul,
so every node attains the minimum, and two-node ties) and twists on and
past the boundary (zero and negative margins).  A class takes exact
coordinates only; a float never becomes one.
"""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from flagtke import (
    CohomologyClass,
    KahlerClass,
    grlb_report,
    parabolic,
    tke_exists,
    tke_solve_from_kahler,
    volume_class,
)
from flagtke.sweep import enumerate_flags

FLAGS = list(enumerate_flags(4))


def fraction_grlb(p, xi):
    ratios = {idx: Fraction(k) / Fraction(c) for idx, k, c in zip(p.complement, p.koszul, xi)}
    value = min(ratios.values())
    return value, tuple(idx for idx in p.complement if ratios[idx] == value)


def fraction_margins(p, beta):
    return {idx: Fraction(k) - Fraction(c) for idx, k, c in zip(p.complement, p.koszul, beta)}


def rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 60))


def kahler_classes(rng, p):
    """Seeded positive classes, then the forced ties: xi = t * koszul (every
    node attains the minimum) and, for each pair of nodes, a class whose
    minimum is attained at exactly those two."""
    k = p.koszul
    out = [tuple(rational(rng, 1, 90) for _ in k) for _ in range(4)]
    t = rational(rng, 1, 90)
    out.append(tuple(t * c for c in k))
    for i in range(len(k)):
        for j in range(i + 1, len(k)):
            out.append(tuple(t * c if n in (i, j) else t * c / 2 for n, c in enumerate(k)))
    return out


def twists(rng, p):
    """Seeded twists of any sign, the boundary twist koszul (every margin 0)
    and twists with one margin 0 or negative and the others positive."""
    k = p.koszul
    out = [tuple(rational(rng, -90, 90) for _ in k) for _ in range(4)]
    out.append(tuple(Fraction(c) for c in k))
    for n in range(len(k)):
        for shift in (0, rational(rng, 1, 30)):
            out.append(tuple(c + shift if m == n else c - Fraction(1, 7) for m, c in enumerate(k)))
    return out


@pytest.mark.parametrize("p", FLAGS, ids=lambda p: f"{p.lie_type}{p.theta}")
def test_integer_paths_match_the_fraction_definitions(p):
    rng = random.Random(f"integer-paths/{p.lie_type}/{p.theta}")
    for xi in kahler_classes(rng, p):
        value, argmin = fraction_grlb(p, xi)
        rep = grlb_report(p, xi)
        assert (rep.value, rep.argmin) == (value, argmin)
        assert type(rep.value) is Fraction
        sol = tke_solve_from_kahler(p, xi)
        want = tuple(fraction_margins(p, xi).values())
        assert sol.beta.coords == want and sol.omega.coords == xi
        assert all(type(c) is Fraction for c in sol.beta.coords)
    for beta in twists(rng, p):
        margins = fraction_margins(p, beta)
        res = tke_exists(p, beta)
        assert res.margins == margins
        assert all(type(m) is Fraction for m in res.margins.values())
        assert res.exists == all(m > 0 for m in margins.values())
        if res.exists:
            assert type(res.metric) is KahlerClass
            assert res.metric.coords == tuple(margins.values())
        else:
            assert res.metric is None
        if beta == tuple(p.koszul):
            assert not res.exists and set(res.margins.values()) == {0}
        positive = all(Fraction(c) > 0 for c in beta)
        try:
            KahlerClass(beta)
        except ValueError:
            assert not positive
        else:
            assert positive
        try:
            p._entry(beta, "xi", positive=True).cls
        except ValueError as exc:
            assert not positive and "strictly positive" in str(exc)
        else:
            assert positive


def test_the_generated_cases_include_every_tie_and_margin_sign():
    p = parabolic("A4", theta=())
    rng = random.Random(0)
    argmins = {grlb_report(p, xi).argmin for xi in kahler_classes(rng, p)}
    assert {p.complement, (1, 2), (1, 4), (3, 4)} <= argmins
    margins = [m for b in twists(rng, p) for m in tke_exists(p, b).margins.values()]
    assert min(margins) < 0 < max(margins) and 0 in margins


# ---------------------------------------------------------------------------
# exact coordinates only


INEXACT = (0.1, 1.0, complex(1, 0), Decimal("0.5"), True, False)


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("build", (CohomologyClass, KahlerClass),
                         ids=("CohomologyClass", "KahlerClass"))
def test_a_class_takes_no_inexact_coordinate(build, bad):
    message = f"class coordinate 2 is {bad!r}, a {type(bad).__name__}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build((1, bad))


def test_inexact_coordinates_fail_at_the_boundary_of_every_entry_point():
    p = parabolic("A2", ())
    with pytest.raises(ValueError, match="coordinate 1 is 0.1, a float"):
        grlb_report(p, (0.1, 1))
    with pytest.raises(ValueError, match="coordinate 1 is 0.5, a float"):
        volume_class(p, KahlerClass((0.5, 1)))
    with pytest.raises(ValueError, match="coordinate 2 is Decimal"):
        tke_exists(p, (1, Decimal(2)))


UNORDERED = ("12", b"12", bytearray(b"12"), memoryview(b"12"), {5: "x", 7: "y"}, {3, 1},
             frozenset({3, 1}), {3: 1}.keys())


@pytest.mark.parametrize("whole", UNORDERED, ids=lambda v: type(v).__name__)
def test_a_str_bytes_set_or_mapping_is_no_class(whole):
    # each iterates, but not as the coordinates in order: "12" read as
    # (1, 2), b"12" as (49, 50), a dict as its keys, a set in hash order
    message = f"class coordinates come in order, not a {type(whole).__name__}"
    p = parabolic("A2", ())
    for call in (CohomologyClass, KahlerClass, lambda v: volume_class(p, v),
                 lambda v: grlb_report(p, v), lambda v: tke_exists(p, v)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(whole)


@pytest.mark.parametrize("bad", ("1/0", "x", " "))
def test_a_malformed_string_coordinate_is_named(bad):
    message = f"class coordinate 1 is {bad!r}, not a rational number"
    with pytest.raises(ValueError, match=re.escape(message)):
        grlb_report(parabolic("A2", ()), (bad, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        CohomologyClass((bad,))


@pytest.mark.parametrize("bad", ("1_0", "1_000/3", "\u0663", "\u0661/\u0662", "\uff17"))
def test_a_string_coordinate_reads_alike_on_every_interpreter(bad):
    # Fraction reads "1_0" from CPython 3.11 on, and non-ASCII digits on
    # every version; a coordinate takes neither, as node lists and
    # integer options do not
    message = f"class coordinate 1 is {bad!r}, not a rational number"
    with pytest.raises(ValueError, match=re.escape(message)):
        grlb_report(parabolic("A1", ()), (bad,))
    with pytest.raises(ValueError, match=re.escape(message)):
        CohomologyClass((bad,))
    assert CohomologyClass((" 3/2 ", "-1e2", "7")).coords == (Fraction(3, 2), -100, 7)


def test_exact_coordinates_of_every_accepted_kind_become_fractions():
    class Half(Fraction):
        pass

    for build in (CohomologyClass, KahlerClass):
        cls = build([2, "3/4", Fraction(5, 6), Half(1, 2)])
        assert cls.coords == (2, Fraction(3, 4), Fraction(5, 6), Fraction(1, 2))
        assert all(type(c) is Fraction for c in cls.coords)
        assert type(cls.coords) is tuple
    assert CohomologyClass((1, 2)) == CohomologyClass(iter((1, 2)))
    assert repr(KahlerClass((1,))) == "KahlerClass(coords=(Fraction(1, 1),))"
