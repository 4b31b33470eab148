"""The rational route to <lam, coroot(gamma)>, for tests only.

``pairing`` computes 2(lam, gamma)/(gamma, gamma) from a root system's
Cartan matrix and symmetrizer alone.  The weight lam, given in
fundamental-weight coordinates, is moved into simple-root coordinates
with the inverse of the Cartan matrix (Gauss-Jordan over `Fraction`), and
both inner products are taken in root coordinates through
(alpha_i, alpha_j) = cartan[i][j] * d[j].  This module never reads the
integer forms a root system stores, and it reaches them by another route
(inner products, not reflections of coroots), so a test that compares
those forms with it checks them instead of repeating them.  The stored
symmetrizer is itself read off the highest root's coroot form; it stays
independent of the forms because `test_symmetrizer_symmetrizes_and_spots`
pins it by the Cartan matrix alone (positive, symmetrizing, d[0] = 1 has
one solution on a connected diagram).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence


def unit(m: int, i: int) -> tuple[int, ...]:
    """The i-th (1-based) unit vector of length m: alpha_i in root
    coordinates, omega_i in weight coordinates."""
    return tuple(int(k == i - 1) for k in range(m))


def support(coeffs: Sequence[int]) -> frozenset[int]:
    """1-based indices of the simple roots occurring in a root."""
    return frozenset(i + 1 for i, c in enumerate(coeffs) if c)


def root_to_weight(rs, coeffs: Sequence[int]) -> tuple[Fraction, ...]:
    """Fundamental-weight coordinates of an integer root combination:
    the i-th is <gamma, coroot(alpha_i)> = sum_j c_j * cartan[j][i]."""
    a, m = rs.cartan, rs.rank
    return tuple(Fraction(sum(coeffs[j] * a[j][i] for j in range(m))) for i in range(m))


def weyl_vector(rs) -> tuple[Fraction, ...]:
    """rho = sum of the fundamental weights."""
    return (Fraction(1),) * rs.rank


def class_weight(p, cls: Sequence) -> tuple[Fraction, ...]:
    """A Picard class of the flag ``p`` as a weight: its coordinates on
    the complement nodes, zero on theta."""
    coords = [Fraction(0)] * p.rs.rank
    for node, c in zip(p.complement, cls, strict=True):
        coords[node - 1] = Fraction(c)
    return tuple(coords)


@functools.lru_cache(maxsize=None)
def _inverse(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    m = len(cartan)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(cartan)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return tuple(tuple(row[m:]) for row in rows)


def weight_to_root(rs, lam: Sequence) -> tuple[Fraction, ...]:
    """Simple-root coordinates c of a weight: the c with c * cartan = lam."""
    inv, m = _inverse(rs.cartan), rs.rank
    return tuple(sum(Fraction(lam[j]) * inv[j][i] for j in range(m)) for i in range(m))


@functools.lru_cache(maxsize=None)
def _gram(cartan: tuple[tuple[int, ...], ...], d: tuple[Fraction, ...]):
    """(alpha_i, alpha_j) = cartan[i][j] * d[j], with d scaled to integers
    (every pairing is a ratio of inner products, so the scale cancels)."""
    scale = math.lcm(*(v.denominator for v in d))
    return tuple(tuple(int(a_ij * d_j * scale) for a_ij, d_j in zip(row, d)) for row in cartan)


def inner(rs, x: Sequence, y: Sequence[int]):
    """(x, y) for x, y in simple-root coordinates, y integral."""
    gram, m = _gram(rs.cartan, rs.symmetrizer), rs.rank
    return sum(x[i] * sum(gram[i][j] * y[j] for j in range(m) if y[j]) for i in range(m) if x[i])


def pairings(rs, lam: Sequence, gammas) -> tuple[Fraction, ...]:
    """<lam, coroot(gamma)> = 2(lam, gamma)/(gamma, gamma) for a weight lam
    in fundamental-weight coordinates and each nonzero gamma in ``gammas``
    (integer simple-root coordinates)."""
    x = weight_to_root(rs, lam)
    return tuple(Fraction(2 * inner(rs, x, c)) / inner(rs, c, c) for c in gammas)


def pairing(rs, lam: Sequence, gamma) -> Fraction:
    """`pairings` for one gamma."""
    return pairings(rs, lam, (gamma,))[0]


def radical_pairings(rs, theta) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """<delta_P, coroot(g)> and <rho, coroot(g)> over the radical roots g
    of the flag with Levi nodes ``theta`` (positive roots not supported on
    theta), with delta_P the sum of those roots; no parabolic data used."""
    radical = [g for g in rs.positive_roots if not support(g) <= set(theta)]
    delta = tuple(map(sum, zip(*radical)))
    return (pairings(rs, root_to_weight(rs, delta), radical),
            pairings(rs, weyl_vector(rs), radical))


def degree(rs, theta) -> Fraction:
    """n! * prod <delta_P, coroot(g)> / <rho, coroot(g)>: the anticanonical
    degree by the Weyl dimension formula (a `Fraction`; integral if right)."""
    d, r = radical_pairings(rs, theta)
    return math.factorial(len(d)) * math.prod(a / b for a, b in zip(d, r))
