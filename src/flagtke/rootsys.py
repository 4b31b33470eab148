"""Exact root-system combinatorics for the simple complex Lie algebras.

Everything downstream (parabolic data, anticanonical classes, volumes)
reduces to integer linear algebra on root coordinates, so this module is
deliberately dependency-free and exact, with no floating point.  Inside,
everything is an integer: roots, the Cartan matrix, and the coroot form
of every positive root, which is its coroot in simple-coroot coordinates
and is built together with the root.  `fractions.Fraction` appears only
in the symmetrizer.

The closure that finds the positive roots raises a root c to s_i(c) and
its coroot form v to v + step * e_i, so it also keeps, per root, that
raising step: (parent, node, step), the parent stored as 1 + its index
and a simple root's as 0.  Parents come first in the stored order, so
the pairings <lam, coroot(g)> of one weight with every positive coroot
are a single forward pass of additions over these steps,
`RootSystem._coroot_pairings`.  `flag` finds a flag's radical selector
with that pass, and the Weyl vector's pairings are the pass with 1 on
every node, run once per type.  A class pairs through the same loop,
`_step_pass`, over a flag's radical step table, the raising steps of
its radical roots renumbered among themselves, so that its Levi steps,
which all pair to 0, are never walked.  2*rho, the sum
of the positive roots in root coordinates, is also kept once per type
(`RootSystem._two_rho`): a flag's delta_P, the sum of its radical roots,
is 2*rho - 2*rho_L, 2*rho less the sum of the few roots of its Levi
factor.

Conventions, fixed once here and relied on everywhere else:

* Simple roots carry Bourbaki numbering for every series: A_m is the
  chain 1..m; B_m has its unique short root last; C_m its unique long
  root last; D_m forks at the nodes m-1, m (both attached to m-2); the
  E-series branch node is 2, attached to node 4, with the long chain
  1-3-4-5-6(-7-8); F4 is 1-2=>3-4 (3, 4 short); G2 has alpha_1 short.
* ``cartan[i][j]`` is <alpha_i, coroot(alpha_j)>.  Rows therefore give
  the fundamental-weight coordinates of a simple root and columns pair
  against a fixed simple coroot.
* A root is its integer vector in simple-root coordinates, a plain
  `tuple` of `int`s; a coroot form pairs with a weight given in
  fundamental-weight coordinates.
* The symmetrizer ``d`` makes ``d[j] * cartan[i][j]`` symmetric, i.e.
  d[j] is proportional to half the squared length of alpha_j, with
  d[0] = 1; it is read off the highest root's coroot form.  Every
  pairing is a ratio, so any positive rescaling of d gives identical
  results (tested).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

__all__ = [
    "LieType",
    "RootSystem",
    "build_root_system",
    "types_of_rank",
]

_setattr = object.__setattr__


class _Record:
    """Base of the package's immutable record types.

    A record is the arguments that build it.  A subclass lists its fields,
    the parameters of its ``__init__`` in order, in ``__slots__``, or in
    ``_fields`` when further slots hold what ``__init__`` derives from
    them, and a subclass with ``__slots__ = ()`` inherits its parent's
    fields.  A subclass whose body sets a non-empty ``__slots__`` and
    defines no ``__init__`` is a plain record: it gets an ``__init__``
    that takes its fields in order, positionally or by keyword, and
    stores each as given, generated once with `exec` when the class is
    made, as `collections.namedtuple` makes its ``__new__``.  A record
    that checks or derives writes its own ``__init__`` and stores each
    field with ``_setattr``.  The base then gives what a frozen
    dataclass would: equality and hashing by the fields, against
    records of the very same type only; the repr
    ``Name(field=value, ...)``, the constructor call; `AttributeError`
    on assignment and deletion; and a ``__reduce__`` that rebuilds the
    record by calling its constructor on the fields, for `pickle` and
    `copy`.  ``_fields`` is the field list, as on a named tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        if "_fields" not in own:
            cls._fields = cls._fields + own.get("__slots__", ())
        if cls._fields:  # the field values, as one value or one tuple, read in C
            cls._key = staticmethod(operator.attrgetter(*cls._fields))
        if own.get("__slots__") and "__init__" not in own:
            cls.__init__ = _plain_init(cls)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)


def _plain_init(cls: type[_Record]) -> Callable[..., None]:
    """The ``__init__`` of the plain record ``cls``: one argument per
    field, each stored by the ``__set__`` of its slot's descriptor,
    which goes past the refusing ``__setattr__``."""
    names = cls._fields
    namespace = {f"_set{i}": getattr(cls, n).__set__ for i, n in enumerate(names)}
    namespace |= {"__builtins__": {}, "__name__": cls.__module__}
    stores = "".join(f"\n    _set{i}(self, {n})" for i, n in enumerate(names))
    exec(f"def __init__(self, {', '.join(names)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _integer(name: str, value: object) -> int:
    """``value`` as an `int`, the one rule for every integer argument of
    the package: a `bool`, a float or any other non-integer is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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


@functools.total_ordering
class LieType(_Record):
    """A simple series letter plus a rank, e.g. ``LieType("D", 5)``;
    types order as their ``(series, rank)`` tuples."""

    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        rule = _RANK_RULES.get(series) if isinstance(series, str) else None
        if rule is None:
            raise ValueError(f"unknown series {series!r}: expected one of A, B, C, D, E, F, G")
        rank = _integer("rank", rank)
        lo, hi = rule
        if rank < lo or (hi is not None and rank > hi):
            top = "unbounded" if hi is None else str(hi)
            raise ValueError(f"series {series} requires rank in [{lo}, {top}], got {rank}")
        _setattr(self, "series", series)
        _setattr(self, "rank", rank)

    @classmethod
    def parse(cls, token: str) -> "LieType":
        """Parse a compact token such as ``"D5"`` or ``"e7"``."""
        if not isinstance(token, str):
            raise ValueError("a type is a LieType or a token such as 'D5', "
                             f"not a {type(token).__name__}")
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

    def __lt__(self, other: object) -> bool:
        return self._key(self) < other._key(other) if type(other) is type(self) else NotImplemented

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def types_of_rank(rank: int) -> Iterator[LieType]:
    """Every simple type of the given rank, in series order A, B, ..., G."""
    rank = _integer("rank", rank)
    for series, (lo, hi) in _RANK_RULES.items():
        if lo <= rank and (hi is None or rank <= hi):
            yield LieType(series, rank)


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


def _positive_roots(
    cartan: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All positive roots with their integer coroot forms and raising
    steps, by upward closure.

    For a positive root c other than alpha_i, s_i(c) is again positive
    (Humphreys, Lie Algebras, 10.2), and every positive root is reached
    from a simple root by reflections that raise the height.  Since
    s_i(c)^v = s_i(c^v), each root's coroot, in simple-coroot coordinates
    (its coroot form), is carried along: the form of s_i(c) is the form
    of c plus step * e_i, step = -<alpha_i, coroot(c)> > 0.  The first
    such (c, i, step) that reaches a root is its raising step.  Sorted by
    (height, coefficients) for reproducible output, so a parent, being
    lower, comes before its child.
    """
    m = len(cartan)
    # The nonzero entries (at most four) of each column and each row.
    cols = [[(j, row[i]) for j, row in enumerate(cartan) if row[i]] for i in range(m)]
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    simples = [tuple(int(k == i) for k in range(m)) for i in range(m)]
    # root -> (coroot form, parent root, 1-based node, step); a simple root raises the zero form
    closure = {s: (s, None, i + 1, 1) for i, s in enumerate(simples)}
    frontier = simples
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for c in frontier:
            v = closure[c][0]
            for i in range(m):
                p = sum(c[j] * a for j, a in cols[i])  # <c, coroot(alpha_i)>
                if p >= 0:
                    continue
                up = list(c)
                up[i] -= p
                t = tuple(up)
                if t not in closure:
                    step = -sum(v[j] * a for j, a in rows[i])  # -<alpha_i, coroot(c)>
                    w = list(v)
                    w[i] += step
                    closure[t] = (tuple(w), c, i + 1, step)
                    nxt.append(t)
        frontier = nxt
    order = sorted(closure, key=lambda c: (sum(c), c))
    index = {c: k for k, c in enumerate(order, 1)}  # a simple root's parent None -> 0
    records = list(map(closure.get, order))
    steps = tuple((index.get(parent, 0), node, step) for _, parent, node, step in records)
    return tuple(order), tuple(form for form, *_ in records), steps


class RootSystem(_Record):
    """Immutable root-system data for one simple type, derived from the
    type alone: its one field is ``lie_type``, given as a `LieType` or a
    token that `LieType.parse` reads.  ``positive_roots`` holds
    each positive root as its `int` tuple, sorted by (height, coefficients).

    ``coroot_forms`` and ``raising_steps`` run parallel to
    ``positive_roots``: the coroot form of each root, i.e. its coroot in
    simple-coroot coordinates, so that <lam, coroot(g)> = sum_i lam_i *
    form[i]; and its raising step ``(parent, node, step)``, which says
    that the form is the form of root number ``parent - 1`` (an earlier
    one; ``parent`` 0 stands for the zero form of no root, the parent of
    a simple root) plus ``step`` at the 1-based ``node``.  The steps
    alone pair a weight with every positive coroot (`_coroot_pairings`);
    `flag` finds a flag's radical roots there, and builds from them the
    radical step table that every class pairs through.
    ``_heights``, also parallel, holds the Weyl vector's pairings
    <rho, coroot(g)>, the coroot heights: that pass with 1 on every node.
    ``_two_rho`` is 2*rho, the sum of the positive roots in simple-root
    coordinates, checked to pair to 2 with every simple coroot; a flag
    takes its delta_P as 2*rho - 2*rho_L from it.
    """

    _fields = ("lie_type",)
    __slots__ = (*_fields, "cartan", "symmetrizer", "positive_roots", "coroot_forms",
                 "raising_steps", "_heights", "_two_rho")

    def __init__(self, lie_type: LieType | str) -> None:
        if not isinstance(lie_type, LieType):
            lie_type = LieType.parse(lie_type)
        cartan = _cartan_matrix(lie_type)
        positives, forms, steps = _positive_roots(cartan)
        # the highest root, last in (height, coefficients) order, must
        # dominate every positive root coefficientwise
        if tuple(map(max, zip(*positives))) != positives[-1]:
            raise RuntimeError(f"no dominating root in {lie_type}")
        # theta^v = 2*theta/(theta, theta): form entry i is c_i*(alpha_i, alpha_i)/(theta, theta)
        c, top_form = positives[-1], forms[-1]
        symmetrizer = tuple(Fraction(f * c[0], ci * top_form[0]) for f, ci in zip(top_form, c))
        # 2*rho pairs to 2 with every simple coroot
        two_rho = tuple(map(sum, zip(*positives)))
        if any(sum(map(operator.mul, two_rho, column)) != 2 for column in zip(*cartan)):
            raise RuntimeError(f"2*rho of {lie_type} does not pair to 2 with every simple coroot")
        _setattr(self, "lie_type", lie_type)
        _setattr(self, "cartan", tuple(map(tuple, cartan)))
        _setattr(self, "symmetrizer", symmetrizer)
        _setattr(self, "positive_roots", positives)
        _setattr(self, "coroot_forms", forms)
        _setattr(self, "raising_steps", steps)
        _setattr(self, "_two_rho", two_rho)
        m = lie_type.rank
        _setattr(self, "_heights", tuple(self._coroot_pairings(range(1, m + 1), [1] * m)))

    def __reduce__(self) -> tuple:
        """Pickle and copy as `build_root_system` of the type: the cached one."""
        return build_root_system, (self.lie_type,)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def _coroot_pairings(self, nodes: Iterable[int], values: Iterable[int]) -> list[int]:
        """<lam, coroot(g)> for every positive root g, in order, where the
        weight lam has the entries of ``values`` as its fundamental-weight
        coordinates at the 1-based ``nodes`` and 0 elsewhere.

        One forward pass of additions over ``raising_steps``, with no dot
        product per root: starting from the zero form's pairing 0, every
        positive coroot pairs as its parent coroot does plus the step
        times lam at the raising node.  A coroot form has the support of
        its root, so with ``values`` positive a coroot pairs to 0 exactly
        when its root avoids ``nodes``.
        """
        lam = [0] * (self.rank + 1)
        for node, value in zip(nodes, values):
            lam[node] = value
        return _step_pass(self.raising_steps, lam)

    def maximal_root(self) -> tuple[int, ...]:
        """The unique positive root dominating all others coefficientwise,
        checked to do so when the root system was built."""
        return self.positive_roots[-1]


def _step_pass(steps: Iterable[tuple[int, int, int]], lam: Sequence[int]) -> list[int]:
    """The pairings of a weight along a list of raising steps
    ``(parent, node, step)``, in order: each is ``pairs[parent] + step *
    lam[node]``, where ``pairs[0]`` is 0 and ``pairs[k]`` the k-th pairing
    made.  The one loop behind every pairing pass, over a root system's
    ``raising_steps`` (`RootSystem._coroot_pairings`) or a flag's radical
    step table (`flag.ParabolicData._pairings`)."""
    pairs = [0]
    append = pairs.append
    for parent, node, step in steps:
        append(pairs[parent] + step * lam[node])
    del pairs[0]
    return pairs


_cached = functools.lru_cache(maxsize=None)(RootSystem)


def build_root_system(lie_type: LieType | str) -> RootSystem:
    """The root system of a simple type, built once per type.

    A token such as ``"A3"`` or ``" a3 "`` is parsed first, so every
    spelling of a type shares one cache entry and one object.  The cache
    is reachable as on any ``lru_cache`` function: ``cache_info``,
    ``cache_clear``, and ``__wrapped__`` for an uncached build.
    """
    return _cached(lie_type if isinstance(lie_type, LieType) else LieType.parse(lie_type))


build_root_system.cache_info = _cached.cache_info
build_root_system.cache_clear = _cached.cache_clear
build_root_system.__wrapped__ = RootSystem
