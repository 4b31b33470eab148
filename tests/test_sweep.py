"""Randomized verification sweeps and the deterministic generator."""

import hashlib
import shlex
from collections import OrderedDict
from fractions import Fraction

import pytest

import flagtke.flag
import flagtke.sweep
from flagtke.cli import main
from flagtke.flag import KahlerClass, SnowCheck, parabolic
from flagtke.invariants import TkeResult, VolumeBoundReport, tke_solve_from_kahler, trace
from flagtke.sweep import (
    CHECKS,
    SplitMix64,
    SweepConfig,
    draw_kahler,
    enumerate_flags,
    run_sweep,
)


# ---------------------------------------------------------------------------
# generator


def test_splitmix64_reference_stream():
    # first outputs for seed 0, from the published reference sequence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_validation():
    SplitMix64(0)
    SplitMix64(2**64 - 1)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            SplitMix64(bad)


def test_generator_and_config_share_one_seed_rule():
    for bad in (-1, 2**64):
        message = f"seed must be a 64-bit unsigned integer, got {bad}"
        for make in (SplitMix64, lambda seed: SweepConfig(seed=seed)):
            with pytest.raises(ValueError, match=message):
                make(bad)
    for bad in (1.0, True, "3"):
        for make in (SplitMix64, lambda seed: SweepConfig(seed=seed)):
            with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
                make(bad)


def test_randint_bounds_and_coverage():
    # randint's rule keeps each numerator and denominator in its range
    # and reaches every value of it
    rng = SplitMix64(42)
    assert set(rng._rationals(500, 1, 6, 1, 1)) == {1, 2, 3, 4, 5, 6}
    assert {1 / x for x in rng._rationals(500, 1, 1, 1, 6)} == {1, 2, 3, 4, 5, 6}
    assert rng._rationals(3, 3, 3, 1, 1) == (3, 3, 3)


def test_draws_have_expected_shape():
    rng = SplitMix64(1)
    xi = draw_kahler(rng, 3)
    assert len(xi) == 3 and all(x > 0 for x in xi)
    tw = rng._rationals(2, -100, 100, 1, 100)
    assert len(tw) == 2
    for f in (*xi, *tw):
        assert 1 <= f.denominator <= 100


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_drawn_classes_meet_the_kahler_class_contract(seed):
    # run_sweep builds each drawn class unchecked, so every draw must be
    # what the checked constructor would build from it
    rng = SplitMix64(seed)
    for _ in range(100):
        for k in range(1, 9):
            x = draw_kahler(rng, k)
            assert type(x) is tuple and all(type(c) is Fraction for c in x)
            assert KahlerClass(x) == KahlerClass._trusted(x)


def test_identical_seeds_reproduce_streams():
    a, b = SplitMix64(777), SplitMix64(777)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def ref_randint(rng, lo, hi):
    """randint's rejection rule, written over next_u64 alone."""
    span = hi - lo + 1
    limit = 2**64 - 2**64 % span
    while True:
        u = rng.next_u64()
        if u < limit:
            return lo + u % span


def ref_rationals(rng, k, num, den):
    return tuple(Fraction(ref_randint(rng, *num), ref_randint(rng, *den)) for _ in range(k))


def unmix(z):
    """The state whose splitmix64 output is z: each step of the output
    function (xor with a right shift, multiply by an odd constant) is a
    bijection on 64-bit words, undone here in reverse order."""
    for shift, mult in ((31, MIX[1]), (27, MIX[0]), (30, None)):
        x = z
        for _ in range(64 // shift + 1):  # x ^ (x >> shift) == z, solved bit block by block
            x = z ^ (x >> shift)
        z = x if mult is None else (x * pow(mult, -1, 2**64)) & MASK
    return z


def test_splitmix64_first_thousand_outputs_are_pinned():
    rng = SplitMix64(0)
    digest = hashlib.sha256(b"".join(rng.next_u64().to_bytes(8, "little")
                                     for _ in range(1000)))
    assert digest.hexdigest() == (
        "7f98a09e99350eb39ae57ed25756af8f24974ce73b4895960518a8028cf6c338")


@pytest.mark.parametrize("seed", [0, 1, 42, 701, 2**63 + 5, MASK])
def test_every_draw_follows_randint_over_next_u64(seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    for k in (0, 1, 2, 5, 8):
        assert draw_kahler(rng, k) == ref_rationals(ref, k, (1, 100), (1, 100))
        assert rng._rationals(k, -100, 100, 1, 100) == ref_rationals(ref, k, (-100, 100), (1, 100))
    for num, den in (((1, 100), (1, 100)), ((-7, 3), (2, 2)), ((0, 2**63), (1, 3**40)),
                     ((1, 6), (1, 1)), ((-5, 5), (1, 1)), ((0, 2**64 - 1), (1, 1)),
                     ((3, 3), (1, 1))):
        assert rng._rationals(1, *num, *den) == ref_rationals(ref, 1, num, den)
    assert [rng.next_u64() for _ in range(4)] == [ref.next_u64() for _ in range(4)]


@pytest.mark.parametrize("output", [MASK, 2**64 - 16, 2**64 - 17, 2**64 - 151, 2**64 - 152])
def test_outputs_at_the_rejection_limits_are_drawn_alike(output):
    # a span of 100 keeps outputs below 2**64 - 16, a span of 201 below 2**64 - 151
    state = unmix(output)
    for j in (1, 2, 3, 4):  # the output is a numerator, a denominator, then the second pair's
        seed = (state - j * GAMMA) & MASK
        probe = SplitMix64(seed)
        assert [probe.next_u64() for _ in range(j)][-1] == output
        for k, num in ((2, (1, 100)), (2, (-100, 100)), (1, (-100, 100)), (1, (1, 100))):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            assert rng._rationals(k, *num, 1, 100) == ref_rationals(ref, k, num, (1, 100))
            assert rng.next_u64() == ref.next_u64()  # the states agree too
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert draw_kahler(rng, 2) == ref_rationals(ref, 2, (1, 100), (1, 100))
        assert rng.next_u64() == ref.next_u64()


def test_a_range_of_exactly_2_64_values_still_draws():
    # every output is below the limit 2**64, so each draw is one output
    for seed in (0, 1, 2**64 - 1):
        ref, rng = SplitMix64(seed), SplitMix64(seed)
        num, den = ref.next_u64(), ref.next_u64()
        assert rng._rationals(1, 0, 2**64 - 1, 1, 2**64) == (Fraction(num, den + 1),)
        num, den = ref.next_u64(), ref.next_u64()
        assert rng._rationals(1, -(2**63), 2**63 - 1, 1, 1) == (num - 2**63,)
        assert rng.next_u64() == ref.next_u64()


# ---------------------------------------------------------------------------
# flag enumeration


def test_enumerate_flags_counts():
    for max_rank, count in ((1, 1), (2, 13), (3, 34), (4, 109)):
        assert sum(1 for _ in enumerate_flags(max_rank)) == count


def test_enumerate_flags_is_sorted_and_complete_at_rank_one():
    flags = list(enumerate_flags(1))
    assert len(flags) == 1
    p = flags[0]
    assert str(p.lie_type) == "A1" and p.theta == ()


def test_enumerate_flags_deterministic_order():
    a = [(str(p.lie_type), p.theta) for p in enumerate_flags(3)]
    b = [(str(p.lie_type), p.theta) for p in enumerate_flags(3)]
    assert a == b
    ranks = [p.lie_type.rank for p in enumerate_flags(3)]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
def test_enumerate_flags_takes_an_integer_rank(bad):
    with pytest.raises(ValueError, match=f"max_rank must be an integer, got {bad!r}"):
        list(enumerate_flags(bad))


# ---------------------------------------------------------------------------
# sweep configuration


def test_sweep_config_validation():
    SweepConfig(max_rank=2, samples_per_flag=1, seed=0, checks=("snow",))
    with pytest.raises(ValueError):
        SweepConfig(max_rank=0)
    with pytest.raises(ValueError):
        SweepConfig(samples_per_flag=0)
    with pytest.raises(ValueError):
        SweepConfig(checks=("snow", "nope"))
    with pytest.raises(ValueError):
        SweepConfig(checks=())
    with pytest.raises(ValueError, match="given once"):
        SweepConfig(checks=("snow", "snow", "cross", "cross"))
    with pytest.raises(ValueError):
        SweepConfig(seed=-1)
    for field, bad in (("max_rank", 2.5), ("samples_per_flag", 1.5), ("seed", 1.0),
                       ("max_rank", True), ("seed", False), ("samples_per_flag", "3")):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
            SweepConfig(**{field: bad})
    # a set or a mapping has no order of its own to keep
    for bad in ("snow", 5, {"snow", "cross"}, frozenset({"snow"}), dict.fromkeys(["snow"]),
                b"snow"):
        with pytest.raises(ValueError, match="checks must be a sequence of names"):
            SweepConfig(checks=bad)
    pair = ("snow", "cross")
    listed = SweepConfig(checks=list(pair))
    assert listed == SweepConfig(checks=iter(pair)) == SweepConfig(checks=pair)
    assert listed.checks == pair and hash(listed) == hash(SweepConfig(checks=pair))


def test_sweep_default_runs_all_checks():
    cfg = SweepConfig(max_rank=1, samples_per_flag=2)
    assert cfg.checks == CHECKS
    res = run_sweep(cfg)
    assert res.flags == 1
    assert res.samples == 2
    assert res.ok and res.failures == ()


def test_sweep_small_ranks_all_green():
    res = run_sweep(SweepConfig(max_rank=3, samples_per_flag=3, seed=11))
    assert res.flags == 34
    assert res.ok, res.failures


def test_sweep_snow_only_counts_flags_not_samples():
    cfg = SweepConfig(max_rank=2, samples_per_flag=5, checks=("snow",))
    res = run_sweep(cfg)
    assert res.flags == 13
    assert res.checks_run == res.flags
    assert res.samples == 0
    assert res.ok


def test_sweep_is_deterministic():
    cfg = SweepConfig(max_rank=2, samples_per_flag=4, seed=314)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_benchmark_sized_sweep_is_pinned(monkeypatch):
    # the counts and every drawn class of run_sweep at rank <= 5, as recorded
    # before the draw loop and the cscK verdict were rewritten
    drawn = []
    draw = flagtke.sweep.draw_kahler

    def recorded(rng, k):
        coords = draw(rng, k)
        drawn.append(",".join(map(str, coords)))
        return coords

    monkeypatch.setattr(flagtke.sweep, "draw_kahler", recorded)
    res = run_sweep(SweepConfig(max_rank=5, samples_per_flag=10, seed=7))
    assert (res.flags, res.samples, res.checks_run, res.failures) == (233, 2330, 9553, ())
    assert len(drawn) == 2330
    assert hashlib.sha256("\n".join(drawn).encode()).hexdigest() == (
        "2b5e847b7dcdaf1b12206e0f9561f9e38633ebd9301be089d1deeba8902cc1b2")


@pytest.mark.parametrize("s, t, ok", [
    (Fraction(4, 3), Fraction(1, 3), True),
    (Fraction(-2, 7), Fraction(-9, 7), True),
    (3, 2, True),
    (Fraction(4, 5), Fraction(1, 3), False),
    (Fraction(5, 3), Fraction(1, 3), False),
    (Fraction(3), Fraction(3, 2), False),
    (Fraction(1, 2), Fraction(1, 2), False),
])
def test_csck_verdict_is_s_minus_trace_equals_dim(monkeypatch, s, t, ok):
    monkeypatch.setattr(flagtke.sweep, "scalar_curvature", lambda p, omega: s)
    monkeypatch.setattr(flagtke.sweep, "trace", lambda p, omega, beta: t)
    res = run_sweep(SweepConfig(max_rank=1, samples_per_flag=1, checks=("cscK",)))  # A1: dim 1
    expected = [] if ok else [f"S - trace = {s - t}, dim = 1"]
    assert [f.detail for f in res.failures] == expected


def test_failure_reproducers_are_runnable_commands(monkeypatch, capsys):
    # break every check, then run each printed reproducer through the CLI
    real_bound = flagtke.sweep.volume_bound_report

    def violated_bound(p, xi):  # the real report, its left side marked violated
        r = real_bound(p, xi)
        return VolumeBoundReport(r.grlb, r.volume, r.r_pow_vol, r.degree, r.snow,
                                 left_ok=False, right_ok=r.right_ok,
                                 left_equality=r.left_equality,
                                 right_equality=r.right_equality)

    broken = {
        "snow_check": lambda p: SnowCheck(degree=1, bound=0, ok=False, equality=False),
        "volume_bound_report": violated_bound,
        "volume_cross_check": lambda p, xi: Fraction(-1),
        "scalar_curvature": lambda p, omega: Fraction(0),
        "tke_exists": lambda p, beta: TkeResult(exists=False, metric=None, margins={}),
    }
    for name, fn in broken.items():
        monkeypatch.setattr(flagtke.sweep, name, fn)
    res = run_sweep(SweepConfig(max_rank=2, samples_per_flag=1, seed=5))
    assert len(res.failures) == res.checks_run == 13 * len(CHECKS)
    command = {"snow": "flag", "volbound": "report", "cross": "volume",
               "cscK": "report", "roundtrip": "tke"}
    for f in res.failures:
        argv = shlex.split(f.reproducer)
        assert argv[:2] == ["flagtke", command[f.check]], f.reproducer
        if f.check == "cscK":  # S is broken to 0, so the gap is -T
            p = parabolic(argv[2], tuple(int(i) for i in argv[4].split(",") if i))
            xi = KahlerClass(Fraction(c) for c in argv[6].split(","))
            t = trace(p, xi, tke_solve_from_kahler(p, xi).beta)
            assert f.detail == f"S - trace = {-t}, dim = {p.dim}"
        assert main(argv[1:]) == 0, f.reproducer
        capsys.readouterr()
    full = [f.reproducer for f in res.failures if f.flag.startswith("A1/")]
    assert all(shlex.split(r)[3:5] == ["--theta", ""] for r in full)


def test_roundtrip_reproducer_prints_the_solved_twist(monkeypatch):
    # only tke_exists is broken, so every roundtrip sample fails; its
    # reproducer's --beta= is the twist the library solved for the drawn class
    drawn = []
    draw = flagtke.sweep.draw_kahler

    def recorded(rng, k):
        drawn.append(draw(rng, k))
        return drawn[-1]

    monkeypatch.setattr(flagtke.sweep, "draw_kahler", recorded)
    monkeypatch.setattr(flagtke.sweep, "tke_exists",
                        lambda p, beta: TkeResult(exists=False, metric=None, margins={}))
    res = run_sweep(SweepConfig(max_rank=2, samples_per_flag=2, seed=9, checks=("roundtrip",)))
    flags = [p for p in enumerate_flags(2) for _ in range(2)]
    assert len(res.failures) == len(drawn) == len(flags) == 26
    betas = [tke_solve_from_kahler(p, xi).beta.coords for p, xi in zip(flags, drawn)]
    for f, p, beta in zip(res.failures, flags, betas):
        assert f.flag == p.describe()
        assert shlex.split(f.reproducer)[-1] == "--beta=" + ",".join(map(str, beta))
    assert any(c < 0 for beta in betas for c in beta)  # the "=" case is met


def test_each_sample_pays_for_its_volume_and_solution_once(monkeypatch):
    # volbound and cross ask the same memo entry of the sample's class, so
    # its volume is built once; cscK and roundtrip share one solution
    calls = {"volume": 0, "tke_solve_from_kahler": 0}

    class CountedEntry(flagtke.flag._Entry):
        def __setattr__(self, name, value):
            calls["volume"] += name == "volume" and value is not None
            super().__setattr__(name, value)

    def counted(fn):
        def wrapper(*a, **kw):
            calls["tke_solve_from_kahler"] += 1
            return fn(*a, **kw)

        return wrapper

    monkeypatch.setattr(flagtke.flag, "_Entry", CountedEntry)
    monkeypatch.setattr(flagtke.sweep, "tke_solve_from_kahler",
                        counted(flagtke.sweep.tke_solve_from_kahler))
    res = run_sweep(SweepConfig(max_rank=3, samples_per_flag=2))
    assert res.ok and res.samples > 0
    assert calls == {"volume": res.samples, "tke_solve_from_kahler": res.samples}


@pytest.mark.parametrize("seed", [0, 26, 2**64 - 1])
def test_sweep_verdicts_call_no_fraction_eq(monkeypatch, seed):
    # cross and roundtrip compare lowest terms slot by slot, so a sweep
    # gives the same counts and failures with Fraction.__eq__ unusable
    cfg = SweepConfig(3, 3, seed)
    expected = run_sweep(cfg)

    def refused(self, other):
        raise AssertionError("Fraction.__eq__ called")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__eq__", refused)
        res = run_sweep(cfg)
    assert res == expected and res.ok


@pytest.mark.parametrize("break_volume", [
    lambda v: Fraction(v.numerator, v.denominator * v.numerator + 1),  # numerator kept
    lambda v: Fraction(v.numerator + v.denominator, v.denominator),  # denominator kept
])
def test_cross_fails_when_one_term_of_the_volume_differs(monkeypatch, break_volume):
    seen = []
    real = flagtke.sweep.volume_cross_check

    def broken(p, xi):
        v = real(p, xi)
        b = break_volume(v)
        assert (b.numerator == v.numerator) != (b.denominator == v.denominator)
        seen.append((v, b))
        return b

    monkeypatch.setattr(flagtke.sweep, "volume_cross_check", broken)
    res = run_sweep(SweepConfig(2, 2, 31, checks=("cross",)))
    assert len(res.failures) == len(seen) == res.samples == 26
    for f, (v, b) in zip(res.failures, seen):
        assert f.check == "cross"
        assert f.detail == f"volume_class={v} cross_check={b}"


@pytest.mark.parametrize("break_metric", [
    lambda c: (*c[:-1], c[-1] + 1),  # the last coordinate off by one
    lambda c: (Fraction(c[0].numerator, c[0].denominator * c[0].numerator + 1), *c[1:]),
    lambda c: c[:-1],  # one coordinate short
])
def test_roundtrip_fails_when_the_metric_differs(monkeypatch, break_metric):
    drawn, recovered = [], []
    draw, real = flagtke.sweep.draw_kahler, flagtke.sweep.tke_exists

    def recorded(rng, k):
        drawn.append(draw(rng, k))
        return drawn[-1]

    def broken(p, beta):
        r = real(p, beta)
        metric = KahlerClass._trusted(break_metric(r.metric.coords))
        recovered.append(metric)
        return TkeResult(exists=r.exists, metric=metric, margins=r.margins)

    monkeypatch.setattr(flagtke.sweep, "draw_kahler", recorded)
    monkeypatch.setattr(flagtke.sweep, "tke_exists", broken)
    res = run_sweep(SweepConfig(2, 2, 33, checks=("roundtrip",)))
    assert len(res.failures) == len(recovered) == len(drawn) == 26
    for f, back, xi in zip(res.failures, recovered, drawn):
        assert f.check == "roundtrip"
        assert f.detail == f"recovered {back}, expected {xi}"


def test_a_default_sample_makes_six_memo_lookups(monkeypatch):
    # volume_class (a miss, then a hit for cross), volume_cross_check,
    # scalar_curvature and trace's two classes (the drawn class a hit, its
    # solved twist a miss): both are class objects, which _checked takes
    # as they are
    hits = []

    class CountedMemo(OrderedDict):
        def get(self, key, default=None):
            hits.append(key in self)
            return super().get(key, default)

    monkeypatch.setattr(flagtke.flag, "OrderedDict", CountedMemo)
    sample = [False, True, True, True, True, False]
    res = run_sweep(SweepConfig(1, 1))  # one A1 sample
    assert res.ok and res.samples == 1 and hits == sample
    hits.clear()
    res = run_sweep(SweepConfig(3, 2, 5))
    assert res.ok and hits == sample * res.samples
