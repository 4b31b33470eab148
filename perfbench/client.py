"""One benchmark client: a fresh interpreter that sets up one workload,
runs one unit of its ops in a closed loop and prints one JSON line.

Started by run.py, which times it from spawn to the ``ready_at`` stamp
(the set-up time) and merges the units of a run:

    python3 perfbench/client.py --workload atlas --seed 1 --unit 0 --budget 20
    python3 perfbench/client.py --workload classes --seed 1 --probe

Each workload draws its inputs from the benchmark's own generator
(``random.Random`` seeded with a string built from the seed), never from
``flagtke.sweep.SplitMix64``, so a change to the program cannot change
its inputs.  Every op is checked; a wrong answer counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ATLAS_REFERENCE = HERE / "atlas_reference.txt"
CLI_GOLDEN = HERE / "cli_golden.json"

# Rank windows of the simple series, kept here so that the atlas inputs
# do not depend on the program under test.
RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}
ATLAS_MAX_RANK = 8
CLASS_FLAGS = (("E8", ()), ("B8", ()), ("A8", ()), ("F4", ()), ("E7", (2,)), ("D8", (1, 3)))
SWEEP = {"max_rank": 5, "samples_per_flag": 10}
SWEEP_EXPECTED = {"flags": 233, "samples": 2330, "checks_run": 9553}
CLI_TIMEOUT_S = 60
# What `python -m flagtke.cli` does (runpy), plus the command's own peak RSS
# on stderr.  VmHWM is the peak of the memory the command mapped after exec;
# a child's ru_maxrss would also count the client's memory at spawn.
CLI_ENTRY = """\
import runpy, sys
try:
    runpy.run_module("flagtke.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM")))
"""

clock = time.perf_counter

# The host's speed drifts by itself: a fixed loop runs 20-30% slower for
# seconds at a time, in wall and in CPU time alike.  So the benchmark times
# a fixed reference slice of pure Python (Fractions, tuples, a dict, big
# ints; nothing from flagtke) between ops, and scales every time it reports
# to the machine speed at which the slice takes REFERENCE_S: the median
# slice time on the machine the baseline was measured on.
REFERENCE_S = 0.0045
TICK_S = 0.25  # seconds of ops between two reference ticks
# A cli op is a fresh interpreter, whose start-up is less sensitive to the
# drift than pure Python: scaled by the slice, cli times moved against it.
# So the cli reference is a fresh interpreter too, running stdlib imports
# like the program's and a little Fraction arithmetic; it takes about
# REFERENCE_PROCESS_S on the baseline machine and ticks once a second.
REFERENCE_PROCESS = """\
import argparse, dataclasses, decimal, enum, functools, json, math
from fractions import Fraction
acc = Fraction(0)
for i in range(1, 600):
    acc += Fraction(i % 7 + 1, i)
print(json.dumps({"digits": len(str(acc))}))
"""
REFERENCE_PROCESS_S = 0.085
PROCESS_TICK_S = 1.0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_s() -> float:
    """Median time of three runs of the reference slice, with the cyclic
    garbage collector off so that the size of the caller's heap does not
    enter the figure."""
    times = []
    gc.disable()
    for _ in range(3):
        t0 = clock()
        acc, table = Fraction(0), {}
        for i in range(1, 800):
            acc += Fraction(i % 7 + 1, i)
            table[i, i % 13] = tuple(range(i % 9))
        x = 3 ** 1500
        for i in range(160):
            x = (x * (i + 7)) % (5 ** 1400)
        times.append(clock() - t0)
    gc.enable()
    return sorted(times)[1]


def reference_process_s() -> float:
    """Time of one fresh interpreter running REFERENCE_PROCESS."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], capture_output=True, check=True)
    return clock() - t0


class Paced:
    """Op latencies and wall time, scaled to the reference speed block by block.

    A reference tick runs before the first op and after every every_s of
    ops; the ops in between, and the wall time they took, are scaled by
    nominal_s over the mean of the two ticks around them.  Ticks are not
    part of any op or of the wall time.
    """

    def __init__(self, reference=reference_s, nominal_s: float = REFERENCE_S,
                 every_s: float = TICK_S) -> None:
        self.reference, self.nominal_s, self.every_s = reference, nominal_s, every_s
        self.refs = [reference()]
        self.lat: list[float] = []
        self.raw_s = self.scaled_s = 0.0
        self._block: list[float] = []
        self._since = clock()

    def add(self, lat_s: float) -> None:
        self._block.append(lat_s)
        if clock() - self._since >= self.every_s:
            self.tick()

    def tick(self) -> None:
        wall = clock() - self._since
        self.refs.append(self.reference())
        scale = self.nominal_s / ((self.refs[-2] + self.refs[-1]) / 2)
        self.lat.extend(x * scale for x in self._block)
        self.raw_s += wall
        self.scaled_s += wall * scale
        self._block = []
        self._since = clock()

    def call(self, fn, *args):
        """Run one long op with ticks inside it, each from a timer signal
        every_s after the last one ended, so that every stretch of the op is
        scaled by the ticks around it.  Its latency is the sum of the
        scaled stretches."""

        def on_timer(signum, frame):
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, self.every_s)

        if self._block:
            self.tick()
        start = self.scaled_s
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()
            self.lat.append(self.scaled_s - start)

    def result(self, **fields) -> dict:
        """The unit's result: fields plus the scaled and raw timings."""
        if self._block:
            self.tick()
        return {**fields, "lat": self.lat, "timed_s": self.raw_s, "scaled_s": self.scaled_s,
                "ref_s": sorted(self.refs)[len(self.refs) // 2]}


def attempt(errors: list[str], fn, *args):
    """Run one op; one that raises is recorded and counts as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed op, not a crashed run
        errors.append(f"{type(exc).__name__}: {exc}")
        return None


def import_flagtke() -> None:
    sys.path.insert(0, str(SRC))
    import flagtke

    if Path(flagtke.__file__).resolve().parent != SRC / "flagtke":
        raise SystemExit(f"imported flagtke from {flagtke.__file__}, expected {SRC}")


# ---------------------------------------------------------------------------
# atlas: every (type, theta) of rank <= 8, built cold, then snow_check


def atlas_specs() -> list[tuple[str, tuple[int, ...]]]:
    """All proper Levi sets, ordered by rank, series, then theta bitmask."""
    out = []
    for rank in range(1, ATLAS_MAX_RANK + 1):
        for series, (lo, hi) in RANKS.items():
            if rank < lo or (hi is not None and rank > hi):
                continue
            for mask in range((1 << rank) - 1):
                out.append((f"{series}{rank}", tuple(i + 1 for i in range(rank) if mask >> i & 1)))
    return out


def atlas_row(type_: str, theta, dim: int, koszul, degree: int) -> str:
    join = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
    return f"{type_}|{join(theta)}|{dim}|{join(koszul)}|{degree}"


def read_atlas_reference() -> tuple[str, list[str]]:
    """The whole-atlas digest and one 16-hex row hash per flag, in order."""
    lines = ATLAS_REFERENCE.read_text(encoding="ascii").splitlines()
    digest = lines[0].split()[1]
    specs = atlas_specs()
    hashes = []
    for (type_, theta), line in zip(specs, lines[1:], strict=True):
        t, th, h = line.split()
        if (t, th) != (type_, ",".join(map(str, theta)) or "-"):
            raise SystemExit(f"atlas reference out of order at {line!r}")
        hashes.append(h)
    return digest, hashes


def atlas(args, tracer) -> Iterator[dict | None]:
    from flagtke.rootsys import LieType

    flag = sys.modules["flagtke.flag"]
    specs = atlas_specs()
    types = {t: LieType.parse(t) for t, _ in specs}
    digest, hashes = read_atlas_reference()
    order = list(range(len(specs)))
    random.Random(f"atlas/{args.seed}/{args.unit}").shuffle(order)

    def build(lie_type, theta):
        p = flag.parabolic(lie_type, theta)
        return p, flag.snow_check(p)

    yield
    rows = [""] * len(specs)
    errors, failed = [], 0
    pace = Paced()
    for i in order:
        type_, theta = specs[i]
        t0 = clock()
        out = attempt(errors, build, types[type_], theta)
        pace.add(clock() - t0)
        if out is not None:
            p, sc = out
            rows[i] = atlas_row(type_, p.theta, p.dim, p.koszul, sc.degree)
        failed += sha(rows[i])[:16] != hashes[i]
    got = sha("\n".join(rows))
    yield pace.result(ops=len(order), failed=failed, digest=got,
                      correct=failed == 0 and got == digest, errors=errors[:3])


# ---------------------------------------------------------------------------
# classes: six large flags, a per-class bundle of invariants per op


def classes(args, tracer) -> Iterator[dict | None]:
    from flagtke.rootsys import LieType

    flag = sys.modules["flagtke.flag"]
    inv = sys.modules["flagtke.invariants"]
    rng = random.Random(f"classes/{args.seed}/{args.unit}")
    flags = [flag.parabolic(LieType.parse(t), th) for t, th in CLASS_FLAGS]
    for p in flags:
        flag.degree(p)

    def draw_round():
        out = []
        for p in flags:
            xi = tuple(Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in p.koszul)
            beta = tuple(k - x for k, x in zip(p.koszul, xi))
            out.append((p, xi, beta, min(k / x for k, x in zip(p.koszul, xi))))
        return out

    def bundle(p, xi, beta):
        return (inv.volume_class(p, xi), inv.volume_cross_check(p, xi), inv.grlb_report(p, xi),
                inv.scalar_curvature(p, xi), inv.trace(p, xi, beta), inv.tke_exists(p, beta),
                inv.volume_bound_report(p, xi))

    batch = draw_round()
    yield
    errors, failed, ops = [], 0, 0
    h = hashlib.sha256()
    deadline = clock() + args.budget
    pace = Paced()
    rounds = 0
    while (rounds < args.rounds) if args.rounds else (rounds == 0 or clock() < deadline):
        for p, xi, beta, grlb_expected in batch:
            t0 = clock()
            out = attempt(errors, bundle, p, xi, beta)
            pace.add(clock() - t0)
            ops += 1
            if out is None:
                failed += 1
            else:
                v1, v2, g, s, lam, tke, rep = out
                failed += not (v1 == v2 and rep.left_ok and rep.right_ok and s - lam == p.dim
                               and g.value == grlb_expected and tke.exists
                               and tke.metric.coords == xi)
                h.update(f"{v1}|{g.value}|{g.argmin}|{s}|{lam}|{rep.r_pow_vol}\n".encode())
        rounds += 1
        batch = draw_round()
    yield pace.result(ops=ops, failed=failed, digest=h.hexdigest(), correct=failed == 0,
                      errors=errors[:3])


# ---------------------------------------------------------------------------
# sweep: one run_sweep(max_rank=5, samples_per_flag=10) call per unit


def sweep(args, tracer) -> Iterator[dict | None]:
    sw = sys.modules["flagtke.sweep"]
    rng = random.Random(f"sweep/{args.seed}")
    seeds = [rng.getrandbits(64) for _ in range(args.unit + 1)]
    config = sw.SweepConfig(seed=seeds[-1], **SWEEP)
    yield
    errors: list[str] = []
    pace = Paced()
    if tracer:  # ticks inside run_sweep would land in its spans' self times
        t0 = clock()
        res = attempt(errors, sw.run_sweep, config)
        pace.add(clock() - t0)
    else:
        res = attempt(errors, pace.call, sw.run_sweep, config)
    attempted = SWEEP_EXPECTED["checks_run"]
    if res is None:
        failed, text = attempted, ""
    else:
        got = {k: getattr(res, k) for k in SWEEP_EXPECTED}
        failed = len(res.failures) if got == SWEEP_EXPECTED else attempted
        text = json.dumps([got, [(f.flag, f.check, f.detail) for f in res.failures]])
    yield pace.result(ops=attempted, failed=failed, digest=sha(text), correct=failed == 0,
                      errors=errors[:3])


# ---------------------------------------------------------------------------
# cli: a seeded corpus of commands, each a fresh `python -m flagtke.cli`


def cli_corpus(seed: int) -> list[dict]:
    """Draw `pick` commands from each golden group, then shuffle them."""
    pool = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    rng = random.Random(f"cli/{seed}")
    corpus = []
    for group in pool["groups"]:
        corpus.extend(rng.sample(group["entries"], group["pick"]))
    rng.shuffle(corpus)
    return corpus


def cli(args, tracer) -> Iterator[dict | None]:
    # Imported in set-up so that setup_s includes the program's import, as
    # on the other workloads; each command still imports it afresh.
    import flagtke.cli  # noqa: F401

    corpus = cli_corpus(args.seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    yield
    failed, out_bytes, rss_kib = 0, 0, 0
    h = hashlib.sha256()
    pace = Paced(reference_process_s, REFERENCE_PROCESS_S, PROCESS_TICK_S)
    for entry in corpus:
        if args.trace_file:
            cmd = [sys.executable, str(HERE / "cli_driver.py"), args.trace_file]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        t0 = clock()
        try:
            proc = subprocess.run(cmd + entry["argv"], cwd=ROOT, env=env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            stdout, exited_ok = proc.stdout, proc.returncode == 0
        except subprocess.TimeoutExpired:
            stdout, exited_ok, proc = b"", False, None
        pace.add(clock() - t0)
        if proc is not None and (hwm := re.search(rb"VmHWM:\s*(\d+)", proc.stderr)):
            rss_kib = max(rss_kib, int(hwm[1]))
        digest = hashlib.sha256(stdout).hexdigest()
        failed += not exited_ok or digest != entry["sha256"]
        out_bytes += len(stdout)
        h.update(digest.encode())
    if args.trace_file:
        with open(args.trace_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": {"calls": {}, "self_ns": {},
                                             "counters": {"stdout_bytes": out_bytes}}}) + "\n")
    yield pace.result(ops=len(corpus), failed=failed, digest=h.hexdigest(), correct=failed == 0,
                      rss_kib=rss_kib)


# Each workload is a generator: it sets up, yields None once ready, then
# runs one unit of ops and yields that unit's result.
WORKLOADS = {"atlas": atlas, "classes": classes, "sweep": sweep, "cli": cli}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--unit", type=int, default=0, help="index of this unit within the run")
    ap.add_argument("--budget", type=float, default=0.0, help="seconds for time-bounded ops")
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count (classes)")
    ap.add_argument("--probe", action="store_true", help="set up, report, and exit")
    ap.add_argument("--trace-file", help="record spans and append them to this file")
    args = ap.parse_args()

    import_flagtke()
    tracer = None
    if args.trace_file and args.workload != "cli":  # cli traces in each command process
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    steps = WORKLOADS[args.workload](args, tracer)
    next(steps)
    ready_at = time.time()
    if args.probe:
        result = {}
    else:
        result = next(steps)
        result.setdefault("rss_kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer:
            tracer.write(args.trace_file)
        if args.trace_file:
            from spans import span_cost_ns

            result["span_ns"] = span_cost_ns()
    result["ready_at"] = ready_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
