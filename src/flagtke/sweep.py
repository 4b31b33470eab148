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

from collections.abc import Iterable, Iterator, Mapping, Set
from fractions import Fraction

from .flag import KahlerClass, ParabolicData, _reduced, parabolic, snow_check
from .invariants import (
    scalar_curvature,
    tke_exists,
    tke_solve_from_kahler,
    trace,
    volume_bound_report,
    volume_class,
    volume_cross_check,
)
from .rootsys import _integer, _Record, _setattr, types_of_rank

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


def _seed(value: object) -> int:
    """``value`` as a seed: an integer (`rootsys._integer`) in 0..2**64-1."""
    seed = _integer("seed", value)
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _limit(span: int) -> int:
    """The largest multiple of ``span`` up to 2**64: a draw below it is
    kept, so ``u % span`` has no modulo bias."""
    return (_MASK + 1) - ((_MASK + 1) % span)


def _mix(z: int) -> int:
    """The splitmix64 output function: two xor-shift-multiply rounds."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea, Flood; public-domain reference).

    state advances by the 64-bit golden ratio; outputs are `_mix` of the
    new state.  Known vector: seed 0 produces 0xE220A8397B1DCDAF first.
    """

    def __init__(self, seed: int) -> None:
        self._state = _seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return _mix(self._state)

    def _rationals(self, k: int, num_lo: int, num_hi: int, den_lo: int,
                   den_hi: int) -> tuple[Fraction, ...]:
        """k rationals, each a numerator uniform in [num_lo, num_hi] then a
        denominator uniform in [den_lo, den_hi], with the state in a local:
        an output u below the `_limit` of a range's span gives lo + u % span,
        any other is dropped.  Each range holds 1 to 2**64 values, and
        den_lo is at least 1."""
        num_span = num_hi - num_lo + 1
        den_span = den_hi - den_lo + 1
        num_limit = _limit(num_span)
        den_limit = _limit(den_span)
        state = self._state
        out = []
        for _ in range(k):
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK
                num = _mix(state)
                if num < num_limit:
                    break
            while True:
                state = (state + 0x9E3779B97F4A7C15) & _MASK
                den = _mix(state)
                if den < den_limit:
                    break
            out.append(_reduced(num_lo + num % num_span, den_lo + den % den_span))
        self._state = state
        return tuple(out)


def draw_kahler(rng: SplitMix64, k: int) -> tuple[Fraction, ...]:
    """k positive rationals, numerator and denominator uniform in [1, 100]."""
    return rng._rationals(k, 1, 100, 1, 100)


CHECKS = ("snow", "volbound", "cross", "cscK", "roundtrip")


class SweepConfig(_Record):
    """What `run_sweep` runs: flags up to ``max_rank``, ``samples_per_flag``
    seeded classes on each, and which of `CHECKS` to apply.  The three
    counts must be integers (a `bool` is not one) and ``checks`` an
    ordered sequence of distinct names (not a set, a mapping, a `str` or
    bytes), kept as a tuple; anything else raises `ValueError` naming the
    field."""

    __slots__ = ("max_rank", "samples_per_flag", "seed", "checks")

    def __init__(self, max_rank: int = 4, samples_per_flag: int = 10, seed: int = 0,
                 checks: tuple[str, ...] = CHECKS) -> None:
        max_rank = _integer("max_rank", max_rank)
        samples_per_flag = _integer("samples_per_flag", samples_per_flag)
        if max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {max_rank}")
        if samples_per_flag < 1:
            raise ValueError(f"samples_per_flag must be >= 1, got {samples_per_flag}")
        seed = _seed(seed)
        # a set's order, and so the sweep's, would follow the hash seed
        if (isinstance(checks, (str, bytes, bytearray, memoryview, Set, Mapping))
                or not isinstance(checks, Iterable)):
            raise ValueError(f"checks must be a sequence of names, not a {type(checks).__name__}")
        checks = tuple(checks)
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
    """One failed check, four `str`s: the ``flag``, the ``check``, what
    was found (``detail``), and a `flagtke` command line that reruns its
    input (``reproducer``)."""

    __slots__ = ("flag", "check", "detail", "reproducer")


class SweepResult(_Record):
    """Counts of one sweep and its failures; ``ok`` when there are none.
    ``config`` is the `SweepConfig` run, ``flags``, ``samples`` and
    ``checks_run`` are `int`s, and ``failures`` a tuple of
    `SweepFailure`s."""

    __slots__ = ("config", "flags", "samples", "checks_run", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def enumerate_flags(max_rank: int) -> Iterator[ParabolicData]:
    """Every (simple type, proper Levi set) with rank <= max_rank.

    Deterministic order: rank ascending, series alphabetical, then the
    Levi set as an ascending bitmask (bit k set means node k+1 in theta);
    the full set is skipped since it gives a point, not a flag variety.
    ``max_rank`` must be an integer (`rootsys._integer`).
    """
    for rank in range(1, _integer("max_rank", max_rank) + 1):
        for t in types_of_rank(rank):
            for mask in range((1 << rank) - 1):
                theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
                yield parabolic(t, theta)


def _same_terms(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> bool:
    """Whether two tuples of `Fraction`s in lowest terms are equal, read
    from their slots: as long, with equal terms at every place."""
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x._numerator != y._numerator or x._denominator != y._denominator:
            return False
    return True


# The CLI command that reruns each check's input (none computes S or a trace).
_REPRODUCE = {"snow": "flag", "cross": "volume", "volbound": "report",
              "cscK": "report", "roundtrip": "tke"}


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the selected checks on every flag up to the rank bound.

    Per flag: the degree bound once, then for each seeded sample one
    positive class, whose solved twist (cscK, roundtrip) is computed once;
    its volume is built once too, since `volbound` and `cross` ask the
    same memo entry.  A drawn class is built unchecked
    (`KahlerClass._trusted`): `draw_kahler` returns only `Fraction`s with
    numerators from 1 to 100, positive by construction.  The `cross` and
    `roundtrip` verdicts compare lowest terms, read from the two slots of
    each `Fraction` (for `roundtrip`, `_same_terms`): every value they
    compare was built in lowest terms by `flag._reduced` or
    `flag._lowest`, so two are equal iff their terms are.
    Returns all failures, each with a runnable `flagtke` command line that
    reproduces it (for `roundtrip`, with the solved twist); an empty
    failure list is the expected outcome on a correct build.  The counts
    of samples and checks run follow from the config and the number of
    flags.
    """
    rng = SplitMix64(config.seed)
    failures: list[SweepFailure] = []
    flags = 0

    def fail(p: ParabolicData, check: str, detail: str, cls=None) -> None:
        theta = ",".join(str(i) for i in p.theta)
        cmd = f"flagtke {_REPRODUCE[check]} {p.lie_type} --theta \"{theta}\""
        if cls is not None:  # "=" keeps a negative twist from reading as an option
            option = " --beta=" if check == "roundtrip" else " --xi "
            cmd += option + ",".join(str(c) for c in cls.coords)
        failures.append(SweepFailure(p.describe(), check, detail, reproducer=cmd))

    per_sample = [c for c in config.checks if c != "snow"]
    for p in enumerate_flags(config.max_rank):
        flags += 1
        if "snow" in config.checks:
            sc = snow_check(p)
            if not sc.ok:
                fail(p, "snow", f"degree {sc.degree} > bound {sc.bound}")
        if not per_sample:
            continue
        for _ in range(config.samples_per_flag):
            xi = KahlerClass._trusted(draw_kahler(rng, p.picard_rank))
            sol = None  # shared by the checks of this sample
            for check in per_sample:
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
                    v1 = volume_class(p, xi)
                    v2 = volume_cross_check(p, xi)
                    if v1._numerator != v2._numerator or v1._denominator != v2._denominator:
                        fail(p, check, f"volume_class={v1} cross_check={v2}", xi)
                elif check == "cscK":
                    sol = sol or tke_solve_from_kahler(p, xi)
                    s = scalar_curvature(p, xi)
                    t = trace(p, xi, sol.beta)
                    # S - T == dim on lowest terms, no Fraction built: T + dim
                    # is (t.numerator + dim*t.denominator)/t.denominator, whose
                    # terms are coprime as T's are, so it equals S iff both match
                    if (s.denominator != t.denominator
                            or s.numerator != t.numerator + p.dim * t.denominator):
                        fail(p, check, f"S - trace = {s - t}, dim = {p.dim}", xi)
                elif check == "roundtrip":
                    sol = sol or tke_solve_from_kahler(p, xi)
                    back = tke_exists(p, sol.beta).metric  # None iff no solution
                    if back is None or not _same_terms(back.coords, xi.coords):
                        fail(p, check, f"recovered {back}, expected {xi.coords}", sol.beta)
    samples = flags * config.samples_per_flag if per_sample else 0
    return SweepResult(
        config=config,
        flags=flags,
        samples=samples,
        checks_run=flags * ("snow" in config.checks) + samples * len(per_sample),
        failures=tuple(failures),
    )
