"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  Every comparison is exact rational arithmetic; the only
tolerances are the stated wall-clock budgets.
"""

import time
from fractions import Fraction

import pytest

import oracle
from flagtke import (
    LieType,
    build_root_system,
    catalog_rows,
    degree,
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
from flagtke.sweep import SplitMix64, draw_kahler, enumerate_flags


def _verdict(num: int, desc: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")
    return ok


def all_types(max_rank):
    out = []
    for rank in range(1, max_rank + 1):
        for series in "ABCDEFG":
            try:
                out.append(LieType(series, rank))
            except ValueError:
                pass
    return out


def proper_flags(max_rank):
    for t in all_types(max_rank):
        for mask in range(2**t.rank - 1):
            theta = tuple(i + 1 for i in range(t.rank) if mask >> i & 1)
            yield parabolic(t, theta)


# ---------------------------------------------------------------------------
# criterion 1: survey table reproduction, rank <= 9, < 5 s


def test_criterion_01_catalog_reproduction():
    start = time.perf_counter()
    rows = catalog_rows(9)
    elapsed = time.perf_counter() - start
    ok = (
        len(rows) == 221
        and all(r.match for r in rows)
        and all(r.family_consistent for r in rows)
        and elapsed < 5.0
    )
    assert _verdict(
        1,
        f"catalog rank<=9: {len(rows)} rows, all closed forms exact, "
        f"{elapsed:.2f}s (budget 5s)",
        ok,
    )


# ---------------------------------------------------------------------------
# criterion 2: projectivized tangent example, n = 1..8


def test_criterion_02_projectivized_tangent_thresholds():
    ok = True
    for n in range(1, 9):
        p = parabolic(f"A{n + 1}", complement=(n, n + 1))
        ok = ok and p.koszul == (n + 1, 2)
        # threshold behaviour: strictly below both entries is solvable
        ok = ok and tke_exists(p, (n, 1)).exists
        ok = ok and not tke_exists(p, (n + 1, 1)).exists
        ok = ok and not tke_exists(p, (n, 2)).exists
    assert _verdict(2, "A_{n+1} pair {n, n+1} has thresholds (n+1, 2), n=1..8", ok)


# ---------------------------------------------------------------------------
# criterion 3: full flags have all thresholds equal to 2, rank <= 8


def test_criterion_03_full_flag_twos():
    ok = True
    count = 0
    for t in all_types(8):
        p = parabolic(t, theta=())
        ok = ok and p.koszul == tuple([2] * t.rank)
        count += 1
    assert _verdict(3, f"empty theta gives all-2 thresholds on {count} types", ok)


# ---------------------------------------------------------------------------
# criterion 4: degree <= (n+1)^n exhaustively, rank <= 6, < 60 s


def test_criterion_04_degree_bound_exhaustive():
    start = time.perf_counter()
    equality = set()
    ok = True
    count = 0
    for p in proper_flags(6):
        chk = snow_check(p)
        ok = ok and chk.ok
        if chk.equality:
            equality.add((str(p.lie_type), p.complement))
        count += 1
    elapsed = time.perf_counter() - start
    # every projective-space presentation, and nothing else:
    # A_m crossed at either end is P^m; C_m crossed at node 1 is P^{2m-1}
    # (symplectic group is transitive on lines); B2 crossed at node 2 is
    # P^3 through the rank-2 coincidence with C2
    expected = set()
    for m in range(1, 7):
        expected.add((f"A{m}", (1,)))
        expected.add((f"A{m}", (m,)))
    for m in range(2, 7):
        expected.add((f"C{m}", (1,)))
    expected.add(("B2", (2,)))
    ok = ok and equality == expected and elapsed < 60.0
    assert _verdict(
        4,
        f"degree <= (n+1)^n on {count} flags, equality exactly on projective "
        f"spaces ({len(equality)} cases), {elapsed:.2f}s (budget 60s)",
        ok,
    )


# ---------------------------------------------------------------------------
# criteria 5-8 share one seeded sweep: rank <= 5, 50 classes per flag


@pytest.fixture(scope="module")
def sweep():
    rng = SplitMix64(0xACCE97)
    flags = list(enumerate_flags(5))
    per_flag = []
    start = time.perf_counter()
    for p in flags:
        k = p.picard_rank
        xis = [draw_kahler(rng, k) for _ in range(50)]
        twists = [rng._rationals(k, -100, 100, 1, 100) for _ in range(5)]
        per_flag.append((p, xis, twists))
    records = []
    for p, xis, twists in per_flag:
        kos = p.koszul
        deg = degree(p)
        for xi in xis:
            rep = volume_bound_report(p, xi)
            v1 = volume_class(p, xi)
            v2 = volume_cross_check(p, xi)
            r = grlb_report(p, xi).value
            prop = len({x / k for x, k in zip(xi, kos)}) == 1
            sol = tke_solve_from_kahler(p, xi)
            back = tke_exists(p, sol.beta)
            s_minus_lam = scalar_curvature(p, xi) - trace(
                p, xi, tuple(Fraction(a) - b for a, b in zip(kos, xi))
            )
            records.append(
                {
                    "flag": p,
                    "xi": xi,
                    "left_ok": rep.left_ok,
                    "left_eq": rep.left_equality,
                    "proportional": prop,
                    "r_pow_vol": r**p.dim * v1,
                    "degree": deg,
                    "vol_match": v1 == v2,
                    "roundtrip": back.exists and back.metric.coords == xi,
                    "s_minus_lam": s_minus_lam,
                }
            )
        for beta in twists:
            verdict = tke_exists(p, beta)
            want = all(Fraction(a) - b > 0 for a, b in zip(kos, beta))
            records.append(
                {
                    "flag": p,
                    "twist": beta,
                    "verdict_ok": verdict.exists == want,
                    "metric_ok": (
                        verdict.metric is None
                        if not verdict.exists
                        else verdict.metric.coords
                        == tuple(Fraction(a) - b for a, b in zip(kos, beta))
                    ),
                }
            )
    elapsed = time.perf_counter() - start
    return {
        "flags": flags,
        "records": records,
        "elapsed": elapsed,
        "xi_records": [r for r in records if "xi" in r],
        "twist_records": [r for r in records if "twist" in r],
    }


def test_criterion_05_volume_bound_left_side(sweep):
    xi_recs = sweep["xi_records"]
    ok = all(r["left_ok"] for r in xi_recs)
    ok = ok and all(r["r_pow_vol"] <= r["degree"] for r in xi_recs)
    ok = ok and all(r["left_eq"] == r["proportional"] for r in xi_recs)
    ok = ok and len(sweep["flags"]) == 233 and len(xi_recs) == 233 * 50
    ok = ok and sweep["elapsed"] < 60.0
    assert _verdict(
        5,
        f"grlb^n*vol <= degree on {len(xi_recs)} samples, equality iff "
        f"proportional to anticanonical, {sweep['elapsed']:.2f}s (budget 60s)",
        ok,
    )


def test_criterion_06_volume_route_identity(sweep):
    xi_recs = sweep["xi_records"]
    ok = all(r["vol_match"] for r in xi_recs)
    assert _verdict(
        6, f"both volume routes agree exactly on {len(xi_recs)} samples", ok
    )


def test_criterion_07_tke_thresholds_and_round_trip(sweep):
    tw = sweep["twist_records"]
    xi_recs = sweep["xi_records"]
    ok = len(tw) >= 1000
    ok = ok and all(r["verdict_ok"] and r["metric_ok"] for r in tw)
    ok = ok and all(r["roundtrip"] for r in xi_recs)
    assert _verdict(
        7,
        f"existence verdict correct on {len(tw)} twists; solve/exists round "
        f"trip exact on {len(xi_recs)} classes",
        ok,
    )


def test_criterion_08_twisted_csck_identity(sweep):
    xi_recs = sweep["xi_records"]
    ok = all(r["s_minus_lam"] == r["flag"].dim for r in xi_recs)
    assert _verdict(
        8, f"S(xi) - trace(xi, koszul - xi) = dim on {len(xi_recs)} samples", ok
    )


# ---------------------------------------------------------------------------
# criterion 9: degree spot values against in-file oracles


def _poly_mul(a, b, caps):
    """Multiply exponent-dict polynomials, truncating above per-axis caps."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= cap for x, cap in zip(e, caps)):
                out[e] = out.get(e, 0) + ca * cb
    return out


def test_criterion_09_degree_spot_values():
    # P^1: anticanonical is twice the point class; H^1 integrates to 1
    oracle_p1 = 2**1 * 1
    # P^2: anticanonical is three hyperplanes; (3H)^2 = 9 H^2, H^2 = 1
    oracle_p2 = 3**2 * 1
    # full flag of A2: the (1,1) divisor X in P^2 x P^2; by adjunction
    # -K_X restricts (2,2), so the degree is the coefficient of H1^2 H2^2
    # in (2 H1 + 2 H2)^3 (H1 + H2), computed by blind polynomial algebra
    caps = (2, 2)
    anti = {(1, 0): 2, (0, 1): 2}
    cube = _poly_mul(_poly_mul(anti, anti, caps), anti, caps)
    total = _poly_mul(cube, {(1, 0): 1, (0, 1): 1}, caps)
    oracle_full = total[(2, 2)]
    got = (
        degree(parabolic("A1", theta=())),
        degree(parabolic("A2", complement=(1,))),
        degree(parabolic("A2", theta=())),
    )
    want = (oracle_p1, oracle_p2, oracle_full)
    ok = got == want == (2, 9, 48)
    assert _verdict(9, f"degrees (P1, P2, full A2) = {got}, oracles {want}", ok)


# ---------------------------------------------------------------------------
# criterion 10: structural invariants, exhaustive over rank <= 6


def test_criterion_10_structural_invariants():
    def closed_form(t):
        m = t.rank
        if t.series == "A":
            return m * (m + 1) // 2
        if t.series in ("B", "C"):
            return m * m
        if t.series == "D":
            return m * (m - 1)
        if t.series == "E":
            return {6: 36, 7: 63, 8: 120}[m]
        return {"F": 24, "G": 6}[t.series]

    ok = True
    count = 0
    for t in all_types(6):
        rs = build_root_system(t)
        ok = ok and len(rs.positive_roots) == closed_form(t)
    for p in proper_flags(6):
        rs = p.rs
        w = oracle.root_to_weight(rs, p.delta_p)
        simple = oracle.pairings(rs, w, [oracle.unit(rs.rank, i) for i in range(1, rs.rank + 1)])
        for i in p.theta:
            ok = ok and simple[i - 1] == 0
        for pos, i in enumerate(p.complement):
            got = simple[i - 1]
            ok = ok and got > 0 and got == p.koszul[pos]
        # integrality from the raw product, not the library's cast
        n = p.dim
        raw = Fraction(1)
        rho = oracle.pairings(rs, oracle.weyl_vector(rs), p.radical_roots)
        for dv, rv in zip(oracle.pairings(rs, w, p.radical_roots), rho):
            raw *= dv / rv
        for k in range(1, n + 1):
            raw *= k
        ok = ok and raw.denominator == 1 and raw > 0 and raw == degree(p)
        count += 1
    assert _verdict(
        10,
        f"koszul vanishing/positivity, degree integrality, root counts on "
        f"{count} flags",
        ok,
    )
