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

Construction is integer arithmetic throughout: the radical selector
comes from one pass over the root system's raising steps
(`rootsys._step_pass`), the Weyl vector's pairings are the root
system's coroot heights (`RootSystem._heights`), and every class's
pairings come from the same loop over the flag's radical step table,
which has no Levi step (see `ParabolicData._pairings`); delta_P is
2*rho - 2*rho_L, the root system's 2*rho (`RootSystem._two_rho`) less
the sum of the few Levi roots, and pairs through the integer coroot
forms of `rootsys`; the degree is one exact big-integer division; and
`fractions.Fraction` appears only in the classes of the public API.  A
class takes exact coordinates only (`int`, `Fraction`, `str`) and keeps
them as `Fraction`s; a `str` is read by the one spelling rule
`_exact_coordinate`, which the CLI's class options share.

The package builds and reads a `Fraction` through its two slots,
``_numerator`` and ``_denominator``: `_lowest` and `_reduced` fill them,
and a `Fraction` the package built or checked itself is read there, not
through its ``numerator`` and ``denominator`` properties.

Every class argument goes through one check, `ParabolicData._checked`,
and a Kahler class through one sign rule, `_require_positive`.  An
invariant that reads a class's radical pairings pays once for each
argument: the flag's memo (see `ParabolicData._entry`) keeps one `_Entry`
per argument, whose class is fixed when it is made, which holds the
class's common denominator and radical pairings and builds all that the
invariants read of them, the product of the pairings and the sums of
their reciprocals (see `_Entry`).  Each call looks the memo up at most
once.

All classes live in the Picard basis dual to the complement coroots and
are stored in units that already absorb the customary 2*pi factor; see
the CLI for the display-only "raw" toggle.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from fractions import Fraction
from itertools import compress

from .rootsys import LieType, RootSystem, _integer, _Record, _setattr, _step_pass, build_root_system

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


def _lowest(n: int, d: int, _new=object.__new__, _cls=Fraction) -> Fraction:
    """Fraction(n, d) for coprime n and d > 0, its two slots filled with
    no gcd, as by `Fraction._from_coprime_ints` on CPython >= 3.12.  Bound
    to the real class, so a patched `Fraction` sees no call."""
    self = _new(_cls)
    self._numerator, self._denominator = n, d
    return self


def _reduced(n: int, d: int, _new=object.__new__, _cls=Fraction, _gcd=math.gcd) -> Fraction:
    """Fraction(n, d) for d > 0: both terms divided by their one gcd, the
    slots filled as `_lowest` fills them."""
    g = _gcd(n, d)
    self = _new(_cls)
    self._numerator, self._denominator = n // g, d // g
    return self


class CohomologyClass(_Record):
    """A degree-2 class, as rational coordinates on the Picard basis.

    Coordinates are listed against the ascending complement indices of
    the parabolic they belong to.  No positivity is implied.  Only exact
    coordinates are accepted: each must be an `int`, a `Fraction` or a
    string that `Fraction` parses, and is stored as a `Fraction`.  They
    come in order: a whole `str`, bytes, set or mapping is refused.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rational]) -> None:
        if type(coords) is not tuple:
            if (isinstance(coords, (str, bytes, bytearray, memoryview, Set, Mapping))
                    or not isinstance(coords, Iterable)):
                raise ValueError(f"class coordinates come in order, not a {type(coords).__name__}")
            coords = tuple(coords)
        if any(type(c) is not Fraction for c in coords):
            coords = tuple(_exact_coordinate(i, c) for i, c in enumerate(coords, 1))
        _setattr(self, "coords", coords)

    @classmethod
    def _trusted(cls, coords: tuple[Fraction, ...]) -> "CohomologyClass":
        """A class of coordinates known to be `Fraction`s (and, for a
        `KahlerClass`, positive), built unchecked."""
        self = object.__new__(cls)
        _setattr(self, "coords", coords)
        return self

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class KahlerClass(CohomologyClass):
    """A cohomology class with strictly positive coordinates.  Never equal
    to a plain `CohomologyClass`, even with the same coordinates."""

    __slots__ = ()

    def __init__(self, coords: Iterable[Rational]) -> None:
        super().__init__(coords)
        _require_positive(self, "Kahler class")


def _exact_coordinate(i: int, value: object) -> Fraction:
    """Coordinate ``i`` (1-based) of a class as a `Fraction`: no float
    (or other inexact number) ever becomes a class.  A `str` is read by
    `Fraction` if it is ASCII and has no ``_``, so that the same spelling
    gives the same answer on every CPython; this is the one rule for a
    spelled rational, the CLI's class options included."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise ValueError(f"class coordinate {i} is {value!r}, a {type(value).__name__}: "
                         "coordinates must be int, Fraction or str")
    try:
        if isinstance(value, str) and (not value.isascii() or "_" in value):
            raise ValueError(value)  # Fraction reads "1_0" from CPython 3.11 on
        return Fraction(value)
    except (ValueError, ZeroDivisionError):  # a str that is not a rational number
        raise ValueError(f"class coordinate {i} is {value!r}, not a rational number") from None


def _require_positive(cls: CohomologyClass, what: str) -> None:
    """The one sign rule of a Kahler class: `ValueError` naming ``what``
    unless every coordinate is strictly positive, read off the numerators'
    signs (a `Fraction` keeps its denominator positive)."""
    if not all(c._numerator > 0 for c in cls.coords):
        raise ValueError(f"{what} must have strictly positive coordinates, got {cls}")


Rational = Fraction | int | str
ClassLike = CohomologyClass | Sequence[Rational]

# How many class arguments one ParabolicData remembers; the oldest is
# dropped first.
PAIRING_MEMO_SIZE = 4

# From how many radical pairings on an `_Entry` sums up a product tree
# instead of over the lcm of the pairings.  Set by timing both on the
# flags of the `classes` benchmark: the tree wins on the E8 (120
# pairings) and B8 (64) full flags, the lcm on A8 (36), D8 (54) and E7
# (62) flags and on every small flag, whose product outgrows the lcm.
PRODUCT_TREE_MIN = 64


class _Entry:
    """Memo entry of one class argument ``arg``, made by
    `ParabolicData._entry`.  It holds:

    * ``arg`` itself, so that no other object takes its id, the memo's
      key, while the entry is kept;
    * ``cls``, the class checked from ``arg``, fixed when the entry is
      made (a `KahlerClass` if a Kahler slot made it);
    * ``den``, the lcm of the coordinate denominators;
    * ``nums``, its radical pairings over den, from the flag's pairing
      pass ``pair`` on the coordinates' numerators over den, run once
      when the entry is made;
    * filled on first use: ``weights`` or ``tree``, what `ratio_sum`
      sums against (a Kahler class only); and ``volume``, the value
      `invariants.volume_class` built.

    Sums of reciprocal pairings take one of two routes.  Below
    `PRODUCT_TREE_MIN` pairings ``weights`` is (lcm of ``nums``,
    ``lcm // n`` for each pairing n), and a sum is one integer dot
    product.  From `PRODUCT_TREE_MIN` on, where that lcm and its
    divisions cost work quadratic in the dimension, ``tree`` is the
    levels of the product tree of ``nums``, from ``nums`` up to its
    product (each level the pairwise products of the one below, an odd
    last element carried up unchanged); a sum folds its numerators up
    the tree with no lcm and no division, and `product` takes the tree's
    root, so the volume builds the tree the sums read.  Each field is
    filled by one attribute store, so a thread never reads half of it.
    The entry keeps no reference to the flag.
    """

    __slots__ = ("arg", "cls", "den", "nums", "weights", "tree", "volume")

    def __init__(self, arg: object, cls: CohomologyClass,
                 pair: Callable[[Sequence[int]], tuple[int, ...]]) -> None:
        self.arg = arg
        self.cls = cls
        coords = cls.coords
        dens = [c._denominator for c in coords]
        den = self.den = math.lcm(*dens)
        self.nums = pair([c._numerator * (den // d) for c, d in zip(coords, dens)])
        self.weights: tuple[int, tuple[int, ...]] | None = None
        self.tree: tuple[tuple[int, ...], ...] | None = None
        self.volume: Fraction | None = None

    def tree_levels(self) -> tuple[tuple[int, ...], ...]:
        """``tree``, built on the first call."""
        if self.tree is None:
            nums = self.nums
            levels = [nums]
            while len(nums) > 1:
                nums = (*map(operator.mul, nums[0::2], nums[1::2]), *nums[len(nums) & ~1:])
                levels.append(nums)
            self.tree = tuple(levels)
        return self.tree

    def product(self) -> int:
        """The product of ``nums``: the root of ``tree`` from
        `PRODUCT_TREE_MIN` pairings on, one `math.prod` below."""
        if len(self.nums) >= PRODUCT_TREE_MIN:
            return self.tree_levels()[-1][0]
        return math.prod(self.nums)

    def ratio_sum(self, b_nums: Sequence[int], b_den: int) -> Fraction:
        """sum_k (b_nums[k]/b_den) / (nums[k]/den), for a Kahler class,
        whose pairings are all positive.  Up the product tree, two sibling
        sums N_l/D_l and N_r/D_r make the parent (N_l*D_r + N_r*D_l)/(D_l*D_r).
        """
        nums = self.nums
        if len(nums) < PRODUCT_TREE_MIN:
            weights = self.weights
            if weights is None:
                lcm = math.lcm(*nums)
                weights = self.weights = (lcm, tuple(map(lcm.__floordiv__, nums)))
            lcm, recips = weights
            return _reduced(sum(map(operator.mul, b_nums, recips)) * self.den, lcm * b_den)
        tree = self.tree_levels()
        sums = b_nums
        for dens in tree[:-1]:
            odd = sums[len(sums) & ~1:]
            sums = [n_l * d_r + n_r * d_l for n_l, d_r, n_r, d_l
                    in zip(sums[0::2], dens[1::2], sums[1::2], dens[0::2])]
            sums += odd
        return _reduced(sums[0] * self.den, tree[-1][0] * b_den)


class ParabolicData(_Record):
    """Root-theoretic data of one parabolic quotient G/P, derived from
    its two fields: the root system ``rs`` and the Levi set ``theta``.

    ``theta`` is checked and normalized as `parabolic` does (integer
    nodes in range, sorted, each once), and a theta that covers every
    simple root is refused.  The rest is derived here, once per flag:
    the complement, the radical roots, delta_P and the koszul numbers,
    delta_P as 2*rho - 2*rho_L (`RootSystem._two_rho` less the sum of
    the Levi roots, which are far fewer than the radical ones), and the
    koszul numbers as delta_P's fundamental-weight coordinates
    <delta_P, alpha_i^v> on the complement (checked to be 0 on theta);
    and, in private slots, the integer pairings of delta_P with every
    radical coroot, their product and the product of the Weyl vector's
    pairings with the radical coroots (the two sides of the degree
    formula) and the degree.  They exist so that the volume and trace
    formulas of downstream modules read integers built once per flag
    instead of repeated root-system lookups and products.

    Two further slots start empty on every flag, a copy or a pickle
    included: ``_memo`` (see `_entry`), and ``_steps``, the radical step
    table that the first class pairing builds (see `_step_table`) and
    that is ``None`` until then, so that a flag whose classes are never
    paired never builds it.
    """

    _fields = ("rs", "theta")
    __slots__ = (*_fields, "complement", "radical_roots", "delta_p", "koszul",
                 "_delta_pairings", "_delta_product", "_rho_product", "_degree",
                 "_steps", "_memo")

    def __init__(self, rs: RootSystem, theta: Iterable[int]) -> None:
        if not isinstance(rs, RootSystem):
            raise ValueError(f"a flag is built on a RootSystem, not a {type(rs).__name__}")
        theta = _normalize_indices(rs, theta, "theta")
        comp = tuple(i for i in range(1, rs.rank + 1) if i not in theta)
        if not comp:
            raise ValueError(
                f"theta covers every simple root of {rs.lie_type}: "
                "the quotient is a point, not a flag variety"
            )
        _setattr(self, "rs", rs)
        _setattr(self, "theta", theta)
        _setattr(self, "complement", comp)

        # A root is radical iff its support meets the complement, iff its
        # coroot pairs positively with the sum of the complement's
        # fundamental weights (the pass's output is never negative).
        on_comp = [i in comp for i in range(rs.rank + 1)]  # that sum, by 1-based node
        is_radical = tuple(map(bool, _step_pass(rs.raising_steps, on_comp)))
        radical = tuple(compress(rs.positive_roots, is_radical))
        # delta_P = 2*rho - 2*rho_L: the sum of the radical roots is 2*rho
        # less the sum of the Levi roots, the positive roots off the selector
        levi = tuple(compress(rs.positive_roots, map(operator.not_, is_radical)))
        delta = (tuple(map(operator.sub, rs._two_rho, map(sum, zip(*levi)))) if levi
                 else rs._two_rho)

        # delta_P's fundamental-weight coordinates <delta_P, alpha_i^v>: zero
        # exactly on theta, strictly positive on the complement.  A cheap
        # sanity net, so enforced on every flag rather than in tests only.
        weights = [sum(map(operator.mul, delta, column)) for column in zip(*rs.cartan)]
        for i, n in enumerate(weights, 1):
            if i in theta:
                if n:
                    raise RuntimeError(f"anticanonical pairing at Levi node {i} is {n}, expected 0")
            elif n <= 0:
                raise RuntimeError(
                    f"anticanonical pairing at complement node {i} is {n}, expected > 0")
        koszul = tuple(weights[i - 1] for i in comp)

        comp_forms = (tuple(f[i - 1] for i in comp)
                      for f in compress(rs.coroot_forms, is_radical))
        delta_pairings = tuple(sum(map(operator.mul, koszul, row)) for row in comp_forms)
        delta_product = math.prod(delta_pairings)
        rho_product = math.prod(compress(rs._heights, is_radical))
        _setattr(self, "radical_roots", radical)
        _setattr(self, "delta_p", delta)
        _setattr(self, "koszul", koszul)
        _setattr(self, "_delta_pairings", delta_pairings)
        _setattr(self, "_delta_product", delta_product)
        _setattr(self, "_rho_product", rho_product)
        _setattr(self, "_steps", None)
        _setattr(self, "_memo", OrderedDict())

        # Degree: dim! * prod <delta_P, coroot(g)> / <rho, coroot(g)>, as
        # one exact division of big integers that must leave a positive
        # quotient and no remainder.
        num = math.factorial(len(radical)) * delta_product
        deg, rem = divmod(num, rho_product)
        if rem or deg <= 0:
            raise RuntimeError(
                f"anticanonical degree of {self.describe()} is {Fraction(num, rho_product)}, "
                "not a positive integer"
            )
        _setattr(self, "_degree", deg)

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

    def _checked(self, values: ClassLike, what: str, positive: bool = False) -> CohomologyClass:
        """The one check of a class argument.  A `CohomologyClass` is
        checked as it is, with no memo lookup: its check is cheaper than
        one.  A sequence costs one lookup: if the memo holds its entry
        (see `_entry`), the entry's class is checked, else the sequence
        becomes a class of `Fraction`s.  The arity must be the Picard
        rank.  With ``positive`` (a Kahler slot) the class returned is a
        `KahlerClass`: a plain class passes `_require_positive` first.
        """
        if isinstance(values, CohomologyClass):
            cls = values
        else:
            entry = self._memo.get(id(values))
            cls = CohomologyClass(values) if entry is None else entry.cls
        if len(cls.coords) != self.picard_rank:
            raise ValueError(
                f"{what} has {len(cls.coords)} coordinates but {self.describe()} "
                f"has Picard rank {self.picard_rank}"
            )
        if positive and not isinstance(cls, KahlerClass):
            _require_positive(cls, what)
            cls = KahlerClass._trusted(cls.coords)
        return cls

    def _entry(self, values: ClassLike, what: str, positive: bool = False) -> _Entry:
        """The memo entry of a class argument, looked up once.

        ``_memo`` keeps the entries of the last `PAIRING_MEMO_SIZE`
        arguments, keyed by the argument's id: an entry holds its
        argument, so no other live object has that id while it is kept.
        A hit is served as it is, its class checked for its sign in a
        Kahler slot (``positive``).  A miss makes a new entry of the
        class checked by `_checked`, paired when it is made (see
        `_Entry`); a sequence is made a class before that check, which
        then makes no lookup.

        It remembers only arguments that cannot change: a
        `CohomologyClass`, or a `tuple` whose coordinates are all exactly
        `Fraction`, `int` or `str`.  Any other argument, a list say, gets
        a fresh entry on every call.
        """
        entry = self._memo.get(id(values))
        if entry is not None:
            if positive and not isinstance(entry.cls, KahlerClass):
                _require_positive(entry.cls, what)
            return entry
        cls = values if isinstance(values, CohomologyClass) else CohomologyClass(values)
        entry = _Entry(values, self._checked(cls, what, positive), self._pairings)
        if isinstance(values, CohomologyClass) or (
                type(values) is tuple and all(type(c) in (Fraction, int, str) for c in values)):
            memo = self._memo
            memo[id(values)] = entry
            if len(memo) > PAIRING_MEMO_SIZE:
                memo.popitem(last=False)
        return entry

    def radical_pairings(self, cls: ClassLike) -> tuple[tuple[int, ...], int]:
        """Pairing of a Picard class with every radical coroot, in order.

        ``cls`` goes through `_entry` (arity only, any sign).  Returned as
        integer numerators over one common denominator, the lcm of the
        class's coordinate denominators: the pairing with the k-th radical
        coroot is ``Fraction(nums[k], den)``.
        """
        entry = self._entry(cls, "class")
        return entry.nums, entry.den

    def _pairings(self, nums: Sequence[int]) -> tuple[int, ...]:
        """The radical pairings of a class whose coordinates are ``nums``
        over one denominator, over that denominator: one addition per
        radical root along the flag's step table (see `_step_table`),
        with ``[0, *nums]`` as the weight, so that position 0 stands for
        every theta node, where a Picard class is 0.
        """
        steps = self._steps
        if steps is None:
            steps = self._step_table()
        return tuple(_step_pass(steps, [0, *nums]))

    def _step_table(self) -> tuple[tuple[int, int, int], ...]:
        """The radical step table, built from ``rs.raising_steps`` and
        kept in ``_steps`` by one store: one (parent, node, step) per
        radical root, in order, with the parent renumbered among the
        radical roots (0 for a Levi parent or none) and the node among the
        complement nodes (0 for a theta node).  A root is radical iff its
        parent is or its raising node is a complement node, since its
        support is its parent's plus that node.  A Picard class pairs to 0
        with every Levi coroot and is 0 on every theta node, so no other
        step is needed.
        """
        position = [0] * (self.rs.rank + 1)
        for k, node in enumerate(self.complement, 1):
            position[node] = k
        where = [0]  # where[k]: root k's 1-based radical position, 0 for a Levi root
        steps = []
        for parent, node, step in self.rs.raising_steps:
            if where[parent] or position[node]:
                steps.append((where[parent], position[node], step))
                where.append(len(steps))
            else:
                where.append(0)
        steps = tuple(steps)
        _setattr(self, "_steps", steps)
        return steps

    def describe(self) -> str:
        th = ",".join(str(i) for i in self.theta) or "-"
        co = ",".join(str(i) for i in self.complement)
        return f"{self.lie_type}/P(theta={{{th}}}, complement={{{co}}})"


def _normalize_indices(rs: RootSystem, indices: Iterable[int], what: str) -> tuple[int, ...]:
    if not isinstance(indices, Iterable):
        raise ValueError(f"{what} is a collection of node indices, not a {type(indices).__name__}")
    name = f"{what} index"
    out = sorted({_integer(name, i) for i in indices})
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
    """The flag of a simple type and a Levi set theta (or its complement):
    ``ParabolicData(build_root_system(lie_type), theta)``.

    Exactly one of theta / complement may be given; theta=() is the full
    flag variety (Borel case).  theta equal to the whole simple set, or
    an empty complement, is rejected: the quotient would be a point, not
    a flag variety.
    """
    rs = build_root_system(lie_type)
    if complement is not None:
        if theta is not None:
            raise ValueError("give either theta or complement, not both")
        comp = _normalize_indices(rs, complement, "complement")
        if not comp:
            raise ValueError(
                f"complement is empty for {rs.lie_type}: "
                "the quotient is a point, not a flag variety"
            )
        theta = (i for i in range(1, rs.rank + 1) if i not in comp)
    return ParabolicData(rs, () if theta is None else theta)


def degree(p: ParabolicData) -> int:
    """Anticanonical degree: dim! * prod over radical roots of
    <delta_P, coroot(g)> / <rho, coroot(g)>.  Always a positive integer,
    computed once when ``p`` is built.
    """
    return p._degree


class SnowCheck(_Record):
    """Outcome of the degree upper bound against (dim+1)**dim: the `int`s
    ``degree`` and ``bound``, and the `bool`s ``ok`` (degree <= bound)
    and ``equality``."""

    __slots__ = ("degree", "bound", "ok", "equality")


def snow_check(p: ParabolicData) -> SnowCheck:
    """Compare the anticanonical degree with (n+1)^n, n = dim.

    The bound holds for every flag variety, with equality exactly for
    projective space itself.
    """
    d = degree(p)
    n = p.dim
    bound = (n + 1) ** n
    return SnowCheck(d, bound, d <= bound, d == bound)  # by position: the cheaper call


def anticanonical_class(p: ParabolicData) -> KahlerClass:
    """The anticanonical class in Picard coordinates (the koszul numbers)."""
    return KahlerClass(p.koszul)
