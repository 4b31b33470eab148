"""Existence, curvature and volume invariants of flag varieties.

All quantities are functions of a parabolic datum plus rational class
coordinates on the complement nodes, and all are computed exactly:

* twisted Einstein existence and the solved metric class;
* the greatest Ricci lower bound (an exact minimum of ratios);
* volumes by the product-over-radical-roots formula, plus a second,
  algebraically independent route used as a cross check;
* trace and scalar curvature of invariant classes;
* the two-sided degree bound combining all of the above.

Arithmetic inside is integer: a class is paired with the radical coroots
as integer numerators over one common denominator, and each public
function builds a single `fractions.Fraction` for the value it returns.
Those pairings come from the flag's memo (see `flag`): the last
`PAIRING_MEMO_SIZE` classes paired on a flag, keyed by their integer
form, are not paired again, and a metric class also keeps the lcm of
its pairings and the reciprocal weights ``lcm // n`` that `trace` and
`scalar_curvature` sum against.

Unit convention (shared with `flag`): class coordinates absorb the
customary 2*pi factor, so the anticanonical class IS the vector of
koszul numbers and the twisted existence test is a plain coordinate
comparison.  Twists may be any rationals, including negative ones;
Kahler classes must be strictly positive.

A class argument is a sequence of rationals or a `CohomologyClass` /
`KahlerClass`, checked once by `ParabolicData.checked_class` (arity =
Picard rank, Kahler arguments strictly positive) and handed on as is.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .flag import ClassLike, CohomologyClass, KahlerClass, ParabolicData, degree

__all__ = [
    "CohomologyClass",
    "KahlerClass",
    "TkeResult",
    "TwistedSolution",
    "GrlbReport",
    "VolumeBoundReport",
    "tke_exists",
    "tke_solve_from_kahler",
    "grlb",
    "grlb_report",
    "volume_class",
    "volume_cross_check",
    "trace",
    "scalar_curvature",
    "volume_bound_report",
]


@dataclass(frozen=True)
class TkeResult:
    """Verdict of the twisted Einstein existence test.

    ``margins`` maps each complement node to koszul minus the twist
    coordinate there; existence is equivalent to all margins positive,
    and then the metric class is exactly the margin vector.
    """

    exists: bool
    metric: Optional[KahlerClass]
    margins: dict[int, Fraction]


@dataclass(frozen=True)
class TwistedSolution:
    """Solved pair: Ricci of omega equals omega plus beta."""

    omega: KahlerClass
    beta: CohomologyClass


@dataclass(frozen=True)
class GrlbReport:
    """Greatest Ricci lower bound plus the nodes attaining the minimum."""

    value: Fraction
    argmin: tuple[int, ...]


@dataclass(frozen=True)
class VolumeBoundReport:
    """Both sides of r^n * Vol <= degree <= (n+1)^n, exactly evaluated,
    with the grlb report and the volume they were built from."""

    grlb: GrlbReport
    volume: Fraction
    r_pow_vol: Fraction
    degree: int
    snow: int
    left_ok: bool
    right_ok: bool
    left_equality: bool
    right_equality: bool


def tke_exists(p: ParabolicData, beta: ClassLike) -> TkeResult:
    """Decide solvability of Ric(omega) = omega + beta in invariant classes.

    Solvable iff every twist coordinate is strictly below the koszul
    number at its node; the solution class is then koszul - beta.
    """
    b = p.checked_class(beta, "twist class")
    margins = {
        idx: Fraction(k) - c
        for idx, k, c in zip(p.complement, p.koszul, b.coords, strict=True)
    }
    ok = all(m > 0 for m in margins.values())
    metric = KahlerClass(tuple(margins.values())) if ok else None
    return TkeResult(exists=ok, metric=metric, margins=margins)


def tke_solve_from_kahler(p: ParabolicData, xi: ClassLike) -> TwistedSolution:
    """Produce the twist that makes xi the twisted Einstein class.

    For any positive xi the pair (omega, beta) = (xi, koszul - xi)
    solves Ric(omega) = omega + beta; this never fails on valid input.
    """
    x = p.checked_class(xi, "Kahler class", positive=True)
    beta = CohomologyClass(
        tuple(Fraction(k) - c for k, c in zip(p.koszul, x.coords, strict=True))
    )
    return TwistedSolution(omega=x, beta=beta)


def grlb_report(p: ParabolicData, xi: ClassLike) -> GrlbReport:
    """Greatest Ricci lower bound with its full argmin set (no tie break)."""
    x = p.checked_class(xi, "Kahler class", positive=True)
    ratios = {
        idx: Fraction(k) / c
        for idx, k, c in zip(p.complement, p.koszul, x.coords, strict=True)
    }
    value = min(ratios.values())
    argmin = tuple(idx for idx in p.complement if ratios[idx] == value)
    return GrlbReport(value=value, argmin=argmin)


def grlb(p: ParabolicData, xi: ClassLike) -> Fraction:
    """min over complement nodes of koszul / xi coordinate, exact."""
    return grlb_report(p, xi).value


def volume_class(p: ParabolicData, xi: ClassLike) -> Fraction:
    """Volume of the class xi, normalized so the anticanonical volume
    equals the anticanonical degree: degree * prod over radical roots of
    <xi, coroot(g)> / <delta_P, coroot(g)>.
    """
    x = p.checked_class(xi, "Kahler class", positive=True)
    nums, den = p.radical_pairings(x)
    return Fraction(
        degree(p) * math.prod(nums), den**p.dim * math.prod(p._delta_pairings)
    )


def volume_cross_check(p: ParabolicData, xi: ClassLike) -> Fraction:
    """Second volume route: n! * prod of <xi, coroot(g)> / <rho, coroot(g)>.

    Algebraically equal to volume_class, but evaluated without ever
    touching the degree or delta_P, so the two routes check each other.
    """
    x = p.checked_class(xi, "Kahler class", positive=True)
    nums, den = p.radical_pairings(x)
    return Fraction(
        math.factorial(p.dim) * math.prod(nums), den**p.dim * math.prod(p._rho_pairings)
    )


def _ratio_sum(
    p: ParabolicData, w: KahlerClass, b_nums: Sequence[int], b_den: int
) -> Fraction:
    """sum_k (b_nums[k]/b_den) / (w_k/w_den), w_k/w_den the radical pairings
    of ``w``, summed over the lcm of the w_k with the memo's reciprocal
    weights lcm // w_k."""
    lcm, recips, w_den = p._reciprocal_weights(w)
    total = sum(map(operator.mul, b_nums, recips))
    return Fraction(total * w_den, lcm * b_den)


def trace(p: ParabolicData, omega: ClassLike, beta: ClassLike) -> Fraction:
    """Trace of the class beta against the metric class omega.

    An invariant class with weight lambda acts on the root line of a
    radical root g with eigenvalue <lambda, coroot(g)>, so the trace is
    the sum over radical roots of the beta/omega eigenvalue ratios.
    """
    w = p.checked_class(omega, "metric class", positive=True)
    b = p.checked_class(beta, "traced class")
    return _ratio_sum(p, w, *p.radical_pairings(b))


def scalar_curvature(p: ParabolicData, omega: ClassLike) -> Fraction:
    """Scalar curvature of the invariant metric in the class omega:
    the trace of the anticanonical class against omega.  Constant, and
    equal to dim when omega is the anticanonical class itself.  The
    anticanonical pairings are the ones stored on ``p``.
    """
    w = p.checked_class(omega, "metric class", positive=True)
    return _ratio_sum(p, w, p._delta_pairings, 1)


def volume_bound_report(p: ParabolicData, xi: ClassLike) -> VolumeBoundReport:
    """Evaluate grlb(xi)^n * Vol(xi) <= degree <= (n+1)^n exactly.

    Both inequalities hold for every flag variety and every positive xi;
    the left one is an equality precisely when xi is proportional to the
    anticanonical class, the right one precisely for projective space.
    """
    x = p.checked_class(xi, "Kahler class", positive=True)
    n = p.dim
    g = grlb_report(p, x)
    vol = volume_class(p, x)
    rv = g.value**n * vol
    d = degree(p)
    snow = (n + 1) ** n
    return VolumeBoundReport(
        grlb=g,
        volume=vol,
        r_pow_vol=rv,
        degree=d,
        snow=snow,
        left_ok=rv <= d,
        right_ok=d <= snow,
        left_equality=rv == d,
        right_equality=d == snow,
    )
