"""Existence, curvature and volume invariants of flag varieties.

All quantities are functions of a parabolic datum plus rational class
coordinates on the complement nodes, and all are computed exactly:

* twisted Einstein existence and the solved metric class;
* the greatest Ricci lower bound (an exact minimum of ratios);
* volumes by the product-over-radical-roots formula, plus a second,
  algebraically independent route used as a cross check;
* trace and scalar curvature of invariant classes;
* the two-sided degree bound combining all of the above.

Arithmetic inside is integer, and each public function builds
`fractions.Fraction`s only for what it returns, with no `Fraction`
arithmetic on the way:

* the grlb compares koszul_i * d_i / n_i by cross-multiplying, n_i / d_i
  being the class's coordinate at node i;
* a margin of `tke_exists`, and a coordinate of the twist that
  `tke_solve_from_kahler` returns, is (k*d - n)/d for a coordinate n/d,
  positive by the sign of k*d - n;
* the volume, trace and curvature pair the class with the radical
  coroots, as integer numerators over its common denominator;
* `volume_bound_report` multiplies r^n * Vol out of the lowest terms of
  the grlb r and the volume, cancelling across as `Fraction` does, and
  reads the left side's two verdicts off the sign of its numerator minus
  degree times its denominator.

Where the terms are coprime by construction (the margins and twist
coordinates, and r^n * Vol) the `Fraction` is built by `flag._lowest`,
which fills its two slots with no gcd; any other by `flag._reduced`,
which divides both terms by their one gcd first.  A class coordinate is
read from its slots too (see `flag`).

Every class argument passes the one check `ParabolicData._checked`
(arity = Picard rank; in a Kahler slot, strictly positive by the one
sign rule `flag._require_positive`).  It checks a sequence the flag's
memo remembers through the class its entry holds, and a class object as
it is, with no memo lookup.  `grlb_report`, `tke_exists` and
`tke_solve_from_kahler` read only the checked coordinates, so they call
it directly and make no memo entry.
The others read the radical pairings, and work on the entry
`ParabolicData._entry` finds or makes with one lookup: the flag's memo
entry of that argument, whose class is fixed when it is made, which
holds its common denominator and its pairings, and builds their product
and reciprocal sums (see `flag._Entry`).  `volume_bound_report` calls
`grlb_report` and `volume_class`, so a remembered tuple costs it two
memo hits, a class object one.
`volume_cross_check` never reads the kept volume or the entry's product
of the pairings: it is the independent route, and multiplies the
pairings out itself.

Unit convention (shared with `flag`): class coordinates absorb the
customary 2*pi factor, so the anticanonical class IS the vector of
koszul numbers and the twisted existence test is a plain coordinate
comparison.  Twists may be any rationals, including negative ones;
Kahler classes must be strictly positive.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .flag import (ClassLike, CohomologyClass, KahlerClass, ParabolicData, _lowest, _reduced,
                   degree, snow_check)
from .rootsys import _Record

__all__ = [
    "CohomologyClass",
    "KahlerClass",
    "TkeResult",
    "TwistedSolution",
    "GrlbReport",
    "VolumeBoundReport",
    "tke_exists",
    "tke_solve_from_kahler",
    "grlb_report",
    "volume_class",
    "volume_cross_check",
    "trace",
    "scalar_curvature",
    "volume_bound_report",
]


class TkeResult(_Record):
    """Verdict of the twisted Einstein existence test.

    ``margins`` maps each complement node (an `int`) to koszul minus the
    twist coordinate there (a `Fraction`); ``exists``, a `bool`, is
    equivalent to all margins positive, and then the ``metric`` class is
    exactly the margin vector, a `KahlerClass` (else None).  A `dict`
    field, so the record compares but does not hash.
    """

    __slots__ = ("exists", "metric", "margins")


class TwistedSolution(_Record):
    """Solved pair: Ricci of omega equals omega plus beta, ``omega`` a
    `KahlerClass` and ``beta`` a `CohomologyClass`."""

    __slots__ = ("omega", "beta")


class GrlbReport(_Record):
    """Greatest Ricci lower bound, the `Fraction` ``value``, plus
    ``argmin``, the tuple of the `int` nodes attaining the minimum."""

    __slots__ = ("value", "argmin")


class VolumeBoundReport(_Record):
    """Both sides of r^n * Vol <= degree <= (n+1)^n, exactly evaluated,
    with the `GrlbReport` ``grlb`` and the `Fraction` ``volume`` they
    were built from: the `Fraction` ``r_pow_vol``, the `int`s ``degree``
    and ``snow`` = (n+1)^n, and a `bool` verdict per side, ``left_ok``,
    ``right_ok``, ``left_equality`` and ``right_equality``."""

    __slots__ = (
        "grlb", "volume", "r_pow_vol", "degree", "snow",
        "left_ok", "right_ok", "left_equality", "right_equality",
    )


def tke_exists(p: ParabolicData, beta: ClassLike) -> TkeResult:
    """Decide solvability of Ric(omega) = omega + beta in invariant classes.

    Solvable iff every twist coordinate is strictly below the koszul
    number at its node; the solution class is then koszul - beta.
    """
    b = p._checked(beta, "twist class")
    diffs, ok = _koszul_minus(p, b)
    metric = KahlerClass._trusted(diffs) if ok else None
    return TkeResult(exists=ok, metric=metric, margins=dict(zip(p.complement, diffs)))


def tke_solve_from_kahler(p: ParabolicData, xi: ClassLike) -> TwistedSolution:
    """Produce the twist that makes xi the twisted Einstein class.

    For any positive xi the pair (omega, beta) = (xi, koszul - xi)
    solves Ric(omega) = omega + beta; this never fails on valid input.
    """
    x = p._checked(xi, "Kahler class", positive=True)
    return TwistedSolution(omega=x, beta=CohomologyClass._trusted(_koszul_minus(p, x)[0]))


def _koszul_minus(p: ParabolicData, cls: CohomologyClass) -> tuple[tuple[Fraction, ...], bool]:
    """koszul - cls, each coordinate (k*d - n)/d for the coordinate n/d of
    cls, and whether all of them are positive (the signs of k*d - n).
    k*d - n and d are coprime as n and d are, so `_lowest` builds them."""
    diffs = []
    positive = True
    for k, c in zip(p.koszul, cls.coords):
        d = c._denominator
        m = k * d - c._numerator
        positive = positive and m > 0
        diffs.append(_lowest(m, d))
    return tuple(diffs), positive


def grlb_report(p: ParabolicData, xi: ClassLike) -> GrlbReport:
    """Greatest Ricci lower bound with its full argmin set (no tie break)."""
    # with a coordinate n/d, koszul/xi = k*d/n: compare those by cross-multiplying
    nodes = zip(p.complement, p.koszul, p._checked(xi, "Kahler class", positive=True).coords)
    idx, k, c = next(nodes)
    best_num, best_den = k * c._denominator, c._numerator
    argmin = [idx]
    for idx, k, c in nodes:
        num, den = k * c._denominator, c._numerator
        cross = num * best_den - best_num * den
        if cross < 0:
            best_num, best_den, argmin = num, den, [idx]
        elif cross == 0:
            argmin.append(idx)
    return GrlbReport(value=_reduced(best_num, best_den), argmin=tuple(argmin))


def volume_class(p: ParabolicData, xi: ClassLike) -> Fraction:
    """Volume of the class xi, normalized so the anticanonical volume
    equals the anticanonical degree: degree * prod over radical roots of
    <xi, coroot(g)> / <delta_P, coroot(g)>.  Kept in the flag's memo
    entry of xi, so asking again for a remembered class builds nothing.
    The product of the pairings is the entry's (`flag._Entry.product`).
    """
    entry = p._entry(xi, "Kahler class", positive=True)
    if entry.volume is None:
        entry.volume = _reduced(degree(p) * entry.product(), entry.den**p.dim * p._delta_product)
    return entry.volume


def volume_cross_check(p: ParabolicData, xi: ClassLike) -> Fraction:
    """Second volume route: n! * prod of <xi, coroot(g)> / <rho, coroot(g)>.

    Algebraically equal to volume_class, but evaluated without ever
    touching the degree, delta_P, or the volume and the product tree of
    the pairings that `volume_class` keeps in the memo, so the two routes
    check each other.
    """
    entry = p._entry(xi, "Kahler class", positive=True)
    return _reduced(
        math.factorial(p.dim) * math.prod(entry.nums), entry.den**p.dim * p._rho_product
    )


def trace(p: ParabolicData, omega: ClassLike, beta: ClassLike) -> Fraction:
    """Trace of the class beta against the metric class omega.

    An invariant class with weight lambda acts on the root line of a
    radical root g with eigenvalue <lambda, coroot(g)>, so the trace is
    the sum over radical roots of the beta/omega eigenvalue ratios.
    """
    w = p._entry(omega, "metric class", positive=True)
    b = p._entry(beta, "traced class")
    return w.ratio_sum(b.nums, b.den)


def scalar_curvature(p: ParabolicData, omega: ClassLike) -> Fraction:
    """Scalar curvature of the invariant metric in the class omega:
    the trace of the anticanonical class against omega.  Constant, and
    equal to dim when omega is the anticanonical class itself.  The
    anticanonical pairings are the ones stored on ``p``.
    """
    return p._entry(omega, "metric class", positive=True).ratio_sum(p._delta_pairings, 1)


def volume_bound_report(p: ParabolicData, xi: ClassLike) -> VolumeBoundReport:
    """Evaluate grlb(xi)^n * Vol(xi) <= degree <= (n+1)^n exactly.

    Both inequalities hold for every flag variety and every positive xi;
    the left one is an equality precisely when xi is proportional to the
    anticanonical class, the right one precisely for projective space.
    The right side is `flag.snow_check`'s, read as it decides it.
    """
    n = p.dim
    g = grlb_report(p, xi)
    vol = volume_class(p, xi)
    # r^n * Vol as Fraction.__mul__ builds it: a^n/b^n and v/w are each in
    # lowest terms, so cancelling across leaves the product in lowest terms
    a_n, b_n = g.value._numerator**n, g.value._denominator**n
    v, w = vol._numerator, vol._denominator
    g1, g2 = math.gcd(a_n, w), math.gcd(v, b_n)
    num, den = (a_n // g1) * (v // g2), (b_n // g2) * (w // g1)
    right = snow_check(p)
    left = num - right.degree * den  # the sign of r^n * Vol - degree, den being positive
    return VolumeBoundReport(
        grlb=g,
        volume=vol,
        r_pow_vol=_lowest(num, den),
        degree=right.degree,
        snow=right.bound,
        left_ok=left <= 0,
        right_ok=right.ok,
        left_equality=left == 0,
        right_equality=right.equality,
    )
