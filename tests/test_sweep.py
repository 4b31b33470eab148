"""Randomized verification sweeps and the deterministic generator."""

import shlex
from fractions import Fraction

import pytest

import flagtke.flag
import flagtke.sweep
from flagtke.cli import main
from flagtke.flag import SnowCheck
from flagtke.invariants import TkeResult, VolumeBoundReport
from flagtke.sweep import (
    CHECKS,
    SplitMix64,
    SweepConfig,
    draw_kahler,
    draw_twist,
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
    rng = SplitMix64(42)
    seen = set()
    for _ in range(500):
        v = rng.randint(1, 6)
        assert 1 <= v <= 6
        seen.add(v)
    assert seen == {1, 2, 3, 4, 5, 6}
    assert rng.randint(3, 3) == 3
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_draws_have_expected_shape():
    rng = SplitMix64(1)
    xi = draw_kahler(rng, 3)
    assert len(xi) == 3 and all(x > 0 for x in xi)
    tw = draw_twist(rng, 2)
    assert len(tw) == 2
    for f in (*xi, *tw):
        assert 1 <= f.denominator <= 100


def test_identical_seeds_reproduce_streams():
    a, b = SplitMix64(777), SplitMix64(777)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


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
    for bad in ("snow", 5):
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
        assert main(argv[1:]) == 0, f.reproducer
        capsys.readouterr()
    full = [f.reproducer for f in res.failures if f.flag.startswith("A1/")]
    assert all(shlex.split(r)[3:5] == ["--theta", ""] for r in full)


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
