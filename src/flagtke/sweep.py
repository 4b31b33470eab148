"""Bulk verification sweeps over every flag up to a rank bound.

The identities verified here are theorems, so a sweep finding any
failure means an implementation bug; the harness exists to make that
check cheap, exhaustive at low rank, and byte-for-byte reproducible.

Reproducibility requirements shape two choices:

* flags are enumerated in a fixed sorted order (rank, then series
  letter, then the Levi set as an ascending bitmask), and
* random classes come from an explicit 64-bit PRNG implemented here
  (splitmix64), not from the standard library, so the same seed gives
  the same samples on any platform or Python version.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .flag import KahlerClass, ParabolicData, parabolic, snow_check
from .invariants import (
    scalar_curvature,
    tke_exists,
    tke_solve_from_kahler,
    trace,
    volume_bound_report,
    volume_class,
    volume_cross_check,
)
from .rootsys import _Record, _setattr, types_of_rank

__all__ = [
    "SplitMix64",
    "CHECKS",
    "SweepConfig",
    "SweepFailure",
    "SweepResult",
    "enumerate_flags",
    "run_sweep",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea, Flood; public-domain reference).

    state advances by the 64-bit golden ratio; outputs are the standard
    two-round xor-shift-multiply mix.  Known vector: seed 0 produces
    0xE220A8397B1DCDAF first.
    """

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], via rejection (no modulo bias)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (_MASK + 1) - ((_MASK + 1) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def rational(self, rng_num: tuple[int, int], rng_den: tuple[int, int]) -> Fraction:
        num = self.randint(*rng_num)
        den = self.randint(*rng_den)
        return Fraction(num, den)


def draw_kahler(rng: SplitMix64, k: int) -> tuple[Fraction, ...]:
    """k positive rationals, numerator and denominator uniform in [1, 100]."""
    return tuple(rng.rational((1, 100), (1, 100)) for _ in range(k))


def draw_twist(rng: SplitMix64, k: int) -> tuple[Fraction, ...]:
    """k signed rationals (numerator in [-100, 100], denominator in [1, 100])."""
    return tuple(rng.rational((-100, 100), (1, 100)) for _ in range(k))


CHECKS = ("snow", "volbound", "cross", "cscK", "roundtrip")


class SweepConfig(_Record):
    """What `run_sweep` runs: flags up to ``max_rank``, ``samples_per_flag``
    seeded classes on each, and which of `CHECKS` to apply."""

    __slots__ = ("max_rank", "samples_per_flag", "seed", "checks")

    def __init__(self, max_rank: int = 4, samples_per_flag: int = 10, seed: int = 0,
                 checks: tuple[str, ...] = CHECKS) -> None:
        if max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {max_rank}")
        if samples_per_flag < 1:
            raise ValueError(f"samples_per_flag must be >= 1, got {samples_per_flag}")
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        bad = [c for c in checks if c not in CHECKS]
        if bad:
            raise ValueError(f"unknown checks {bad}: available {list(CHECKS)}")
        if len(set(checks)) < len(checks):
            raise ValueError(f"each check may be given once, got {list(checks)}")
        if not checks:
            raise ValueError("at least one check must be selected")
        _setattr(self, "max_rank", max_rank)
        _setattr(self, "samples_per_flag", samples_per_flag)
        _setattr(self, "seed", seed)
        _setattr(self, "checks", checks)


class SweepFailure(_Record):
    """One failed check: the flag, the check, what was found, and a
    `flagtke` command line that reruns its input."""

    __slots__ = ("flag", "check", "detail", "reproducer")

    def __init__(self, flag: str, check: str, detail: str, reproducer: str) -> None:
        _setattr(self, "flag", flag)
        _setattr(self, "check", check)
        _setattr(self, "detail", detail)
        _setattr(self, "reproducer", reproducer)


class SweepResult(_Record):
    """Counts of one sweep and its failures; ``ok`` when there are none."""

    __slots__ = ("config", "flags", "samples", "checks_run", "failures")

    def __init__(self, config: SweepConfig, flags: int, samples: int, checks_run: int,
                 failures: tuple[SweepFailure, ...]) -> None:
        _setattr(self, "config", config)
        _setattr(self, "flags", flags)
        _setattr(self, "samples", samples)
        _setattr(self, "checks_run", checks_run)
        _setattr(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def enumerate_flags(max_rank: int) -> Iterator[ParabolicData]:
    """Every (simple type, proper Levi set) with rank <= max_rank.

    Deterministic order: rank ascending, series alphabetical, then the
    Levi set as an ascending bitmask (bit k set means node k+1 in theta);
    the full set is skipped since it gives a point, not a flag variety.
    """
    for rank in range(1, max_rank + 1):
        for t in types_of_rank(rank):
            for mask in range((1 << rank) - 1):
                theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
                yield parabolic(t, theta)


# The CLI command that reruns each check's input (none computes S or a trace).
_REPRODUCE = {"snow": "flag", "cross": "volume", "volbound": "report",
              "cscK": "report", "roundtrip": "tke"}


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the selected checks on every flag up to the rank bound.

    Per flag: the degree bound once, then for each seeded sample one
    positive class, whose solved twist (cscK, roundtrip) is computed once,
    and whose volume `cross` takes from the `volbound` report when that
    check has already run on the sample.
    Returns all failures, each with a runnable `flagtke` command line that
    reproduces it; an empty failure list is the expected outcome on a
    correct build.
    """
    rng = SplitMix64(config.seed)
    failures: list[SweepFailure] = []
    flags = 0
    samples = 0
    checks_run = 0

    def fail(p: ParabolicData, check: str, detail: str, xi=None) -> None:
        theta = ",".join(str(i) for i in p.theta)
        cmd = f"flagtke {_REPRODUCE[check]} {p.lie_type} --theta \"{theta}\""
        if check == "roundtrip":  # "=" keeps a negative twist from reading as an option
            cmd += " --beta=" + ",".join(str(k - c) for k, c in zip(p.koszul, xi.coords))
        elif xi is not None:
            cmd += " --xi " + ",".join(str(c) for c in xi.coords)
        failures.append(SweepFailure(p.describe(), check, detail, reproducer=cmd))

    per_sample = [c for c in config.checks if c != "snow"]
    for p in enumerate_flags(config.max_rank):
        flags += 1
        if "snow" in config.checks:
            checks_run += 1
            sc = snow_check(p)
            if not sc.ok:
                fail(p, "snow", f"degree {sc.degree} > bound {sc.bound}")
        if not per_sample:
            continue
        for _ in range(config.samples_per_flag):
            samples += 1
            xi = KahlerClass(draw_kahler(rng, p.picard_rank))
            rep = sol = None  # shared by the checks of this sample
            for check in per_sample:
                checks_run += 1
                if check == "volbound":
                    rep = volume_bound_report(p, xi)
                    if not (rep.left_ok and rep.right_ok):
                        fail(
                            p,
                            check,
                            f"r^n*vol={rep.r_pow_vol} degree={rep.degree} "
                            f"snow={rep.snow}",
                            xi,
                        )
                elif check == "cross":
                    v1 = volume_class(p, xi) if rep is None else rep.volume
                    v2 = volume_cross_check(p, xi)
                    if v1 != v2:
                        fail(p, check, f"volume_class={v1} cross_check={v2}", xi)
                elif check == "cscK":
                    sol = sol or tke_solve_from_kahler(p, xi)
                    gap = scalar_curvature(p, xi) - trace(p, xi, sol.beta)
                    if gap != p.dim:
                        fail(p, check, f"S - trace = {gap}, dim = {p.dim}", xi)
                elif check == "roundtrip":
                    sol = sol or tke_solve_from_kahler(p, xi)
                    back = tke_exists(p, sol.beta).metric  # None iff no solution
                    if back is None or back.coords != xi.coords:
                        fail(p, check, f"recovered {back}, expected {xi.coords}", xi)
    return SweepResult(
        config=config,
        flags=flags,
        samples=samples,
        checks_run=checks_run,
        failures=tuple(failures),
    )
