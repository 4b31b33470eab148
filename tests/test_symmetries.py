"""Symmetry oracles: answers that must agree across a diagram automorphism
or across an isomorphism of flag varieties.

The expected value comes from the symmetry, not from a formula, so these
checks share no code with the root-system build or the product formulas.
The rational route of `oracle` certifies each automorphism (it preserves
every pairing of simple roots) and recomputes each degree.
"""

import itertools
from fractions import Fraction

import oracle
from flagtke import LieType, build_root_system, degree, grlb_report, parabolic, volume_class
from flagtke.sweep import SplitMix64, draw_kahler


def automorphisms(t):
    """Nontrivial diagram automorphisms as maps node -> node (Bourbaki)."""
    m = t.rank
    if t.series == "A":
        return [{i: m + 1 - i for i in range(1, m + 1)}]
    if t.series == "D" and m == 4:  # triality: any permutation of the legs 1, 3, 4
        legs = (1, 3, 4)
        return [{2: 2, **dict(zip(legs, perm))}
                for perm in itertools.permutations(legs) if perm != legs]
    if t.series == "D":
        return [{**{i: i for i in range(1, m - 1)}, m - 1: m, m: m - 1}]
    if t.series == "E" and m == 6:
        return [{1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}]
    return []


AUTOMORPHIC_TYPES = ("A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6")


def test_diagram_automorphisms_permute_koszul_and_keep_degree_volume_grlb():
    rng = SplitMix64(6)
    cases = 0
    for token in AUTOMORPHIC_TYPES:
        t = LieType.parse(token)
        rs = build_root_system(t)
        m = rs.rank
        simple_weights = [oracle.root_to_weight(rs, oracle.unit(m, i)) for i in range(1, m + 1)]
        for sigma in automorphisms(t):
            inverse = sorted(sigma, key=sigma.get)  # inverse[k - 1] is sent to node k
            # sigma preserves <alpha_i, coroot(alpha_j)>, by the rational route
            for i, j in itertools.product(range(1, m + 1), repeat=2):
                after = oracle.pairing(rs, simple_weights[sigma[i] - 1], oracle.unit(m, sigma[j]))
                before = oracle.pairing(rs, simple_weights[i - 1], oracle.unit(m, j))
                assert after == before, (token, sigma, i, j)
            for mask in range(2**m - 1):
                theta = tuple(i + 1 for i in range(m) if mask >> i & 1)
                p = parabolic(t, theta)
                q = parabolic(t, tuple(sorted(sigma[i] for i in theta)))
                image = {tuple(g[i - 1] for i in inverse) for g in p.radical_roots}
                assert image == set(q.radical_roots), (token, theta, sigma)
                koszul_p = dict(zip(p.complement, p.koszul))
                koszul_q = dict(zip(q.complement, q.koszul))
                assert koszul_q == {sigma[i]: k for i, k in koszul_p.items()}, (token, theta)
                assert degree(q) == degree(p), (token, theta, sigma)
                for _ in range(2):
                    xi = dict(zip(p.complement, draw_kahler(rng, p.picard_rank)))
                    moved = tuple(xi[i] for i in inverse if i in xi)  # q's node order
                    assert volume_class(q, moved) == volume_class(p, tuple(xi.values()))
                    rp, rq = grlb_report(p, tuple(xi.values())), grlb_report(q, moved)
                    assert rq.value == rp.value
                    assert rq.argmin == tuple(sorted(sigma[i] for i in rp.argmin))
                cases += 1
    assert cases == 288


# (type, complement) pairs that are the same polarized variety
ISOMORPHIC = (
    *(((f"C{n}", (1,)), (f"A{2 * n - 1}", (1,))) for n in range(2, 7)),  # P^{2n-1}
    *(((f"B{n}", (n,)), (f"D{n + 1}", (n + 1,))) for n in range(3, 7)),  # spinor varieties
    (("G2", (1,)), ("B3", (1,))),  # the 5-dimensional quadric
)


def test_isomorphic_flags_agree_on_dim_koszul_degree_and_volume():
    for (t1, c1), (t2, c2) in ISOMORPHIC:
        p, q = parabolic(t1, complement=c1), parabolic(t2, complement=c2)
        assert (p.dim, p.koszul) == (q.dim, q.koszul), (t1, t2)
        assert degree(p) == degree(q) == oracle.degree(p.rs, p.theta) == (
            oracle.degree(q.rs, q.theta)
        ), (t1, t2)
        # (3H)^n = 3^n H^n, with -K = koszul * H
        expected = Fraction(3**p.dim * degree(p), p.koszul[0] ** p.dim)
        assert volume_class(p, (3,)) == volume_class(q, (3,)) == expected, (t1, t2)
    assert len(ISOMORPHIC) == 10
