"""Exact root-system combinatorics for the simple complex Lie algebras.

Everything downstream (parabolic data, anticanonical classes, volumes)
reduces to integer linear algebra on root coordinates, so this module is
deliberately dependency-free and exact, with no floating point.  Inside,
everything is an integer: roots, the Cartan matrix, and the coroot form
of every positive root, which is its coroot in simple-coroot coordinates
and is built together with the root.  `fractions.Fraction` appears only
in the symmetrizer.

Conventions, fixed once here and relied on everywhere else:

* Simple roots carry Bourbaki numbering for every series: A_m is the
  chain 1..m; B_m has its unique short root last; C_m its unique long
  root last; D_m forks at the nodes m-1, m (both attached to m-2); the
  E-series branch node is 2, attached to node 4, with the long chain
  1-3-4-5-6(-7-8); F4 is 1-2=>3-4 (3, 4 short); G2 has alpha_1 short.
* ``cartan[i][j]`` is <alpha_i, coroot(alpha_j)>.  Rows therefore give
  the fundamental-weight coordinates of a simple root and columns pair
  against a fixed simple coroot.
* Roots are integer vectors in simple-root coordinates; a coroot form
  pairs with a weight given in fundamental-weight coordinates.
* The symmetrizer ``d`` makes ``d[j] * cartan[i][j]`` symmetric, i.e.
  d[j] is proportional to half the squared length of alpha_j.  Every
  pairing is a ratio, so any positive rescaling of d gives identical
  results (tested).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction

__all__ = [
    "LieType",
    "Root",
    "RootSystem",
    "build_root_system",
    "types_of_rank",
]

_setattr = object.__setattr__


class _Record:
    """Base of the package's immutable record types.

    A subclass lists its fields in ``__slots__`` (or, when it keeps
    private state in further slots, in ``_fields``), takes them in that
    order in its ``__init__`` and stores them there with ``_setattr``;
    a subclass with ``__slots__ = ()`` inherits its parent's fields.  The
    base then gives what a frozen dataclass would, without generating
    code at import: equality and hashing by the fields, against records
    of the very same type only; the repr ``Name(field=value, ...)``,
    leaving out the fields named in ``_hidden``; `AttributeError` on
    assignment and deletion; and a ``__reduce__`` that rebuilds the
    record through its constructor, for `pickle` and `copy`.
    ``_fields`` is the field list, as on a named tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls._fields + vars(cls).get("__slots__", ())
        if cls._fields:  # the field values, as one value or one tuple, read in C
            cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)


class _OrderedRecord(_Record):
    """A record that also orders by its fields, as a tuple would."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return self._key(self) < other._key(other) if type(other) is type(self) else NotImplemented

    def __le__(self, other: object) -> bool:
        return self._key(self) <= other._key(other) if type(other) is type(self) else NotImplemented

    def __gt__(self, other: object) -> bool:
        return self._key(self) > other._key(other) if type(other) is type(self) else NotImplemented

    def __ge__(self, other: object) -> bool:
        return self._key(self) >= other._key(other) if type(other) is type(self) else NotImplemented


# Valid rank window per series; None means unbounded above.
_RANK_RULES: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class LieType(_OrderedRecord):
    """A simple series letter plus a rank, e.g. ``LieType("D", 5)``."""

    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        rule = _RANK_RULES.get(series)
        if rule is None:
            raise ValueError(f"unknown series {series!r}: expected one of A, B, C, D, E, F, G")
        lo, hi = rule
        if rank < lo or (hi is not None and rank > hi):
            top = "unbounded" if hi is None else str(hi)
            raise ValueError(f"series {series} requires rank in [{lo}, {top}], got {rank}")
        _setattr(self, "series", series)
        _setattr(self, "rank", rank)

    @classmethod
    def parse(cls, token: str) -> "LieType":
        """Parse a compact token such as ``"D5"`` or ``"e7"``."""
        token = token.strip()
        if len(token) < 2:
            raise ValueError(f"malformed type token {token!r}: expected e.g. 'D5'")
        series, tail = token[0].upper(), token[1:]
        # ASCII digits only: int() would also take "1_0", "+3" and "\u0663".
        if not (tail.isascii() and tail.isdigit()):
            raise ValueError(
                f"malformed type token {token!r}: rank part {tail!r} is not an integer"
            )
        return cls(series, int(tail))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def types_of_rank(rank: int) -> Iterator[LieType]:
    """Every simple type of the given rank, in series order A, B, ..., G."""
    for series, (lo, hi) in _RANK_RULES.items():
        if lo <= rank and (hi is None or rank <= hi):
            yield LieType(series, rank)


class Root(_OrderedRecord):
    """A root (or integer root combination) in simple-root coordinates."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        _setattr(self, "coeffs", coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _cartan_matrix(t: LieType) -> list[list[int]]:
    """Cartan matrix in Bourbaki numbering, entry [i][j] = <a_i, a_j^v>."""
    m = t.rank
    a = [[2 if i == j else 0 for j in range(m)] for i in range(m)]

    def bond(i: int, j: int) -> None:
        # single bond between 1-based nodes i and j
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1

    if t.series in ("A", "B", "C"):
        for i in range(1, m):
            bond(i, i + 1)
        if t.series == "B":
            a[m - 2][m - 1] = -2  # last root short
        elif t.series == "C":
            a[m - 1][m - 2] = -2  # last root long
    elif t.series == "D":
        for i in range(1, m - 1):
            bond(i, i + 1)
        bond(m - 2, m)
    elif t.series == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if j <= m:
                bond(i, j)
        bond(2, 4)
    elif t.series == "F":
        for i in range(1, 4):
            bond(i, i + 1)
        a[1][2] = -2  # arrow 2 => 3; roots 3, 4 short
    elif t.series == "G":
        bond(1, 2)
        a[1][0] = -3  # alpha_1 short
    return a


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Positive d with d[j]*a[i][j] symmetric, found by edge propagation."""
    m = len(cartan)
    d: list[Fraction | None] = [None] * m
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(m):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    if any(v is None or v <= 0 for v in d):
        raise RuntimeError("Dynkin diagram is not connected; cannot symmetrize")
    return tuple(v for v in d if v is not None)


def _positive_roots(
    cartan: Sequence[Sequence[int]],
) -> tuple[tuple[Root, ...], tuple[tuple[int, ...], ...]]:
    """All positive roots with their integer coroot forms, by upward closure.

    For a positive root c other than alpha_i, s_i(c) is again positive
    (Humphreys, Lie Algebras, 10.2), and every positive root is reached
    from a simple root by reflections that raise the height.  Since
    s_i(c)^v = s_i(c^v), each root's coroot, in simple-coroot coordinates
    (its coroot form), is carried along.  Sorted by (height, coefficients)
    for reproducible output.
    """
    m = len(cartan)
    # The nonzero entries (at most four) of each column and each row.
    cols = [[(j, row[i]) for j, row in enumerate(cartan) if row[i]] for i in range(m)]
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    simples = [tuple(int(k == i) for k in range(m)) for i in range(m)]
    coroot: dict[tuple[int, ...], tuple[int, ...]] = dict(zip(simples, simples))
    frontier = simples
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for c in frontier:
            v = coroot[c]
            for i in range(m):
                p = sum(c[j] * a for j, a in cols[i])  # <c, coroot(alpha_i)>
                if p >= 0:
                    continue
                up = list(c)
                up[i] -= p
                t = tuple(up)
                if t not in coroot:
                    w = list(v)
                    w[i] -= sum(v[j] * a for j, a in rows[i])  # <alpha_i, coroot(c)>
                    coroot[t] = tuple(w)
                    nxt.append(t)
        frontier = nxt
    order = sorted(coroot, key=lambda c: (sum(c), c))
    return tuple(Root(c) for c in order), tuple(coroot[c] for c in order)


class RootSystem(_Record):
    """Immutable root-system data for one simple type.

    ``coroot_forms`` and ``support_masks`` run parallel to
    ``positive_roots`` and stay out of the repr: the coroot form of each
    root, i.e. its coroot in simple-coroot coordinates, so that
    <lam, coroot(g)> = sum_i lam_i * form[i], and its support as a
    bitmask (bit i-1 set iff alpha_i occurs in g).
    """

    __slots__ = (
        "lie_type", "cartan", "symmetrizer", "positive_roots", "coroot_forms", "support_masks",
    )
    _hidden = ("coroot_forms", "support_masks")

    def __init__(self, lie_type: LieType, cartan: tuple[tuple[int, ...], ...],
                 symmetrizer: tuple[Fraction, ...], positive_roots: tuple[Root, ...],
                 coroot_forms: tuple[tuple[int, ...], ...],
                 support_masks: tuple[int, ...]) -> None:
        _setattr(self, "lie_type", lie_type)
        _setattr(self, "cartan", cartan)
        _setattr(self, "symmetrizer", symmetrizer)
        _setattr(self, "positive_roots", positive_roots)
        _setattr(self, "coroot_forms", coroot_forms)
        _setattr(self, "support_masks", support_masks)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def maximal_root(self) -> Root:
        """The unique positive root dominating all others coefficientwise."""
        mu = max(self.positive_roots, key=lambda r: (r.height, r.coeffs))
        for g in self.positive_roots:
            if any(mc < gc for mc, gc in zip(mu.coeffs, g.coeffs, strict=True)):
                raise RuntimeError(f"no dominating root in {self.lie_type}")
        return mu


def _construct(lie_type: LieType | str) -> RootSystem:
    t = LieType.parse(lie_type) if isinstance(lie_type, str) else lie_type
    cartan = _cartan_matrix(t)
    d = _symmetrizer(cartan)
    positives, forms = _positive_roots(cartan)
    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=d,
        positive_roots=positives,
        coroot_forms=forms,
        support_masks=tuple(
            sum(1 << i for i, c in enumerate(r.coeffs) if c) for r in positives
        ),
    )


_cached = functools.lru_cache(maxsize=None)(_construct)


def build_root_system(lie_type: LieType | str) -> RootSystem:
    """The root system of a simple type, built once per type.

    A token such as ``"A3"`` or ``" a3 "`` is parsed first, so every
    spelling of a type shares one cache entry and one object.  The cache
    is reachable as on any ``lru_cache`` function: ``cache_info``,
    ``cache_clear``, and ``__wrapped__`` for an uncached build.
    """
    return _cached(LieType.parse(lie_type) if isinstance(lie_type, str) else lie_type)


build_root_system.cache_info = _cached.cache_info
build_root_system.cache_clear = _cached.cache_clear
build_root_system.__wrapped__ = _construct
