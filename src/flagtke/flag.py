"""Parabolic quotients of simple groups and their anticanonical geometry.

A flag variety here is a pair (simple type, theta), where theta is the
set of simple roots generating the Levi part of a parabolic subgroup.
Its complement indexes the Picard group.  From that combinatorial seed
we compute, exactly:

* the radical roots (positive roots outside the Levi span), whose count
  is the complex dimension;
* the anticanonical class, recorded through its pairings with the simple
  coroots of the complement ("koszul numbers");
* the anticanonical degree, via the classical product formula over the
  radical roots, with integrality enforced rather than assumed.

Construction is integer arithmetic throughout (integer coroot forms from
`rootsys`, support bitmasks, one exact big-integer division for the
degree); `fractions.Fraction` appears only in the classes of the public
API.

A `ParabolicData` pairs each class with its radical coroots once: it
remembers the integer pairings of the last `PAIRING_MEMO_SIZE` classes
it paired, keyed by the class's integer form (common denominator, then
the numerators scaled to it), so the volume, trace and curvature of one
class share a single pairing pass.  The memo is private state; it takes
no part in equality or hashing.

All classes live in the Picard basis dual to the complement coroots and
are stored in units that already absorb the customary 2*pi factor; see
the CLI for the display-only "raw" toggle.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rootsys import LieType, Root, RootSystem, build_root_system

__all__ = [
    "CohomologyClass",
    "KahlerClass",
    "ParabolicData",
    "SnowCheck",
    "parabolic",
    "degree",
    "snow_check",
    "anticanonical_class",
]


@dataclass(frozen=True)
class CohomologyClass:
    """A degree-2 class, as rational coordinates on the Picard basis.

    Coordinates are listed against the ascending complement indices of
    the parabolic they belong to.  No positivity is implied.
    """

    coords: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable[Rational]) -> "CohomologyClass":
        # An exact Fraction is kept as is: Fraction(Fraction) pays an abc
        # isinstance check per coordinate.
        return cls(tuple(v if type(v) is Fraction else Fraction(v) for v in values))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class KahlerClass(CohomologyClass):
    """A cohomology class with strictly positive coordinates."""

    def __post_init__(self) -> None:
        if any(c <= 0 for c in self.coords):
            raise ValueError(f"Kahler class needs positive coordinates, got {self}")


Rational = Union[Fraction, int, str]
ClassLike = Union[CohomologyClass, Sequence[Rational]]

# How many classes one ParabolicData remembers the radical pairings of;
# the oldest is dropped first.
PAIRING_MEMO_SIZE = 4


class _Pairing:
    """Memo entry: the radical pairings of one class as ``nums`` over
    ``den``; for a Kahler class, once asked for, ``weights`` = (lcm of
    ``nums``, ``lcm // n`` for each pairing n)."""

    __slots__ = ("nums", "den", "weights")

    def __init__(self, nums: tuple[int, ...], den: int) -> None:
        self.nums = nums
        self.den = den
        self.weights: tuple[int, tuple[int, ...]] | None = None


@dataclass(frozen=True)
class ParabolicData:
    """Root-theoretic data of one parabolic quotient G/P.

    The trailing private fields are derived from the public ones: the
    integer coroot forms of the radical roots restricted to the
    complement, the integer pairings of delta_p and of the Weyl vector
    with every radical coroot, and the degree.  They exist so that the
    volume and trace product formulas of downstream modules are small
    integer dot products instead of repeated root-system lookups.
    ``_paired`` is the pairing memo (at most `PAIRING_MEMO_SIZE` classes),
    left out of equality, hashing and repr.
    """

    rs: RootSystem
    theta: tuple[int, ...]
    complement: tuple[int, ...]
    levi_roots: tuple[Root, ...]
    radical_roots: tuple[Root, ...]
    delta_p: Root
    koszul: tuple[int, ...]
    _complement_forms: tuple[tuple[int, ...], ...] = field(repr=False)
    _delta_pairings: tuple[int, ...] = field(repr=False)
    _rho_pairings: tuple[int, ...] = field(repr=False)
    _degree: int = field(repr=False)
    _paired: OrderedDict[tuple[int, ...], _Pairing] = field(
        default_factory=OrderedDict, init=False, compare=False, repr=False
    )

    @property
    def lie_type(self) -> LieType:
        return self.rs.lie_type

    @property
    def dim(self) -> int:
        """Complex dimension = number of radical roots."""
        return len(self.radical_roots)

    @property
    def picard_rank(self) -> int:
        return len(self.complement)

    def checked_class(
        self, values: ClassLike, what: str, *, positive: bool = False
    ) -> CohomologyClass:
        """The one check of a class argument: a sequence becomes a class of
        `Fraction`s once, a `CohomologyClass` passes through; the arity must
        be the Picard rank.  With ``positive`` (a Kahler slot) the result is
        a `KahlerClass`, so it is strictly positive.
        """
        cls = values if isinstance(values, CohomologyClass) else CohomologyClass.of(values)
        if len(cls.coords) != self.picard_rank:
            raise ValueError(
                f"{what} has {len(cls.coords)} coordinates but {self.describe()} "
                f"has Picard rank {self.picard_rank}"
            )
        if positive and not isinstance(cls, KahlerClass):
            try:  # KahlerClass's own invariant is the positivity test
                cls = KahlerClass(cls.coords)
            except ValueError:
                raise ValueError(
                    f"{what} must have strictly positive coordinates, got {cls}"
                ) from None
        return cls

    def radical_pairings(self, cls: ClassLike) -> tuple[tuple[int, ...], int]:
        """Pairing of a Picard class with every radical coroot, in order.

        ``cls`` goes through `checked_class` (arity only, any sign).
        Returned as integer numerators over one common denominator, the
        lcm of the class's coordinate denominators: the pairing with the
        k-th radical coroot is ``Fraction(nums[k], den)``.  Served from the
        memo when ``cls`` is one of the last `PAIRING_MEMO_SIZE` classes
        paired on this flag.
        """
        entry = self._pairing(cls)
        return entry.nums, entry.den

    def _pairing(self, cls: ClassLike) -> _Pairing:
        """The memo entry of ``cls``, pairing it with the radical coroots
        only if none of the last `PAIRING_MEMO_SIZE` classes equals it."""
        coords = self.checked_class(cls, "class").coords
        den = math.lcm(*(c.denominator for c in coords))
        key = (den, *[c.numerator * (den // c.denominator) for c in coords])
        memo = self._paired
        entry = memo.get(key)
        if entry is None:
            scaled = key[1:]
            nums = tuple(sum(map(operator.mul, scaled, row)) for row in self._complement_forms)
            entry = memo[key] = _Pairing(nums, den)
            if len(memo) > PAIRING_MEMO_SIZE:
                memo.popitem(last=False)
        return entry

    def _reciprocal_weights(self, cls: KahlerClass) -> tuple[int, tuple[int, ...], int]:
        """For a Kahler class, whose radical pairings n are all positive:
        their lcm, ``lcm // n`` for each, and the pairings' denominator."""
        entry = self._pairing(cls)
        if entry.weights is None:  # one attribute store, so a reader never sees half of it
            lcm = math.lcm(*entry.nums)
            entry.weights = (lcm, tuple(lcm // n for n in entry.nums))
        return (*entry.weights, entry.den)

    def describe(self) -> str:
        th = ",".join(str(i) for i in self.theta) or "-"
        co = ",".join(str(i) for i in self.complement)
        return f"{self.lie_type}/P(theta={{{th}}}, complement={{{co}}})"


def _normalize_indices(rs: RootSystem, indices: Iterable[int], what: str) -> tuple[int, ...]:
    nodes: set[int] = set()
    for i in indices:
        try:
            nodes.add(operator.index(i))  # int() would truncate 2.9 to 2
        except TypeError:
            raise ValueError(f"{what} index {i!r} is not an integer") from None
    out = sorted(nodes)
    for i in out:
        if not 1 <= i <= rs.rank:
            raise ValueError(
                f"{what} index {i} out of range 1..{rs.rank} for {rs.lie_type}"
            )
    return tuple(out)


def parabolic(
    lie_type: LieType | str,
    theta: Iterable[int] | None = None,
    *,
    complement: Iterable[int] | None = None,
) -> ParabolicData:
    """Build parabolic data from a Levi set theta (or its complement).

    Exactly one of theta / complement may be given; theta=() is the full
    flag variety (Borel case).  theta equal to the whole simple set is
    rejected: the quotient would be a point, not a flag variety.
    """
    rs = build_root_system(lie_type)
    if complement is not None:
        if theta is not None:
            raise ValueError("give either theta or complement, not both")
        comp = _normalize_indices(rs, complement, "complement")
        th = tuple(i for i in range(1, rs.rank + 1) if i not in comp)
    else:
        th = _normalize_indices(rs, theta if theta is not None else (), "theta")
        comp = tuple(i for i in range(1, rs.rank + 1) if i not in th)
    if not comp:
        raise ValueError(
            f"theta covers every simple root of {rs.lie_type}: "
            "the quotient is a point, not a flag variety"
        )

    # A root lies in the Levi part iff its support avoids the complement.
    theta_mask = sum(1 << (i - 1) for i in th)
    levi: list[Root] = []
    radical: list[Root] = []
    forms: list[tuple[int, ...]] = []
    for g, mask, form in zip(rs.positive_roots, rs.support_masks, rs.coroot_forms):
        if mask & ~theta_mask:
            radical.append(g)
            forms.append(form)
        else:
            levi.append(g)

    delta = tuple(map(sum, zip(*(g.coeffs for g in radical))))
    delta_p = Root(delta)

    # Anticanonical pairings: zero exactly on theta, strictly positive on
    # the complement.  Cheap sanity net over every construction path, so
    # enforced here rather than in tests only.
    koszul: list[int] = []
    for i in range(1, rs.rank + 1):
        n = sum(d * row[i - 1] for d, row in zip(delta, rs.cartan))
        if i in th:
            if n != 0:
                raise RuntimeError(
                    f"anticanonical pairing at Levi node {i} is {n}, expected 0"
                )
        else:
            if n <= 0:
                raise RuntimeError(
                    f"anticanonical pairing at complement node {i} is {n}, expected > 0"
                )
            koszul.append(n)

    koszul_t = tuple(koszul)
    comp_forms = tuple(tuple(f[i - 1] for i in comp) for f in forms)
    delta_pairings = tuple(sum(map(operator.mul, koszul_t, row)) for row in comp_forms)
    rho_pairings = tuple(sum(f) for f in forms)

    # Degree: dim! * prod <delta_P, coroot(g)> / <rho, coroot(g)>, as one
    # exact division of big integers that must leave a positive quotient
    # and no remainder.
    num = math.factorial(len(radical)) * math.prod(delta_pairings)
    den = math.prod(rho_pairings)
    deg, rem = divmod(num, den)
    p = ParabolicData(
        rs=rs,
        theta=th,
        complement=comp,
        levi_roots=tuple(levi),
        radical_roots=tuple(radical),
        delta_p=delta_p,
        koszul=koszul_t,
        _complement_forms=comp_forms,
        _delta_pairings=delta_pairings,
        _rho_pairings=rho_pairings,
        _degree=deg,
    )
    if rem or deg <= 0:
        raise RuntimeError(
            f"anticanonical degree of {p.describe()} is {Fraction(num, den)}, "
            "not a positive integer"
        )
    return p


def degree(p: ParabolicData) -> int:
    """Anticanonical degree: dim! * prod over radical roots of
    <delta_P, coroot(g)> / <rho, coroot(g)>.  Always a positive integer,
    computed once when ``p`` is built.
    """
    return p._degree


@dataclass(frozen=True)
class SnowCheck:
    """Outcome of the degree upper bound against (dim+1)**dim."""

    degree: int
    bound: int
    ok: bool
    equality: bool


def snow_check(p: ParabolicData) -> SnowCheck:
    """Compare the anticanonical degree with (n+1)^n, n = dim.

    The bound holds for every flag variety, with equality exactly for
    projective space itself.
    """
    d = degree(p)
    n = p.dim
    bound = (n + 1) ** n
    return SnowCheck(degree=d, bound=bound, ok=d <= bound, equality=d == bound)


def anticanonical_class(p: ParabolicData) -> KahlerClass:
    """The anticanonical class in Picard coordinates (the koszul numbers)."""
    return KahlerClass.of(p.koszul)
