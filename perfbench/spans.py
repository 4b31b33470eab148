"""Spans around the public functions of each flagtke layer.

The wrappers are installed from outside the package: every loaded
``flagtke`` module that holds a traced function under a global name gets
the wrapper under that name, so a call is seen wherever its caller looks
the function up (``flagtke.flag.parabolic`` inside ``degree``, the names
imported into ``flagtke.sweep`` and ``flagtke.cli``, and the benchmark's
own module-attribute lookups).  Spans stay in memory and are appended to
a JSON-lines file when the process ends, followed by one summary line
that the harness merges across processes.

Every ``.s`` figure is self time: a span's duration minus the part of it
covered by its child spans, so the layers add up without double counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (defining module, function name)
FUNCTIONS = {
    "rootsys.build": ("flagtke.rootsys", "build_root_system"),
    "flag.parabolic": ("flagtke.flag", "parabolic"),
    "flag.degree": ("flagtke.flag", "degree"),
    "flag.snow_check": ("flagtke.flag", "snow_check"),
    "invariants.volume_class": ("flagtke.invariants", "volume_class"),
    "invariants.volume_cross_check": ("flagtke.invariants", "volume_cross_check"),
    "invariants.grlb_report": ("flagtke.invariants", "grlb_report"),
    "invariants.scalar_curvature": ("flagtke.invariants", "scalar_curvature"),
    "invariants.trace": ("flagtke.invariants", "trace"),
    "invariants.tke_exists": ("flagtke.invariants", "tke_exists"),
    "invariants.volume_bound_report": ("flagtke.invariants", "volume_bound_report"),
    "catalog.catalog_rows": ("flagtke.catalog", "catalog_rows"),
    "catalog.classify_picard2": ("flagtke.catalog", "classify_picard2"),
    "families.rows_within": ("flagtke.families", "rows_within"),
    "sweep.run_sweep": ("flagtke.sweep", "run_sweep"),
    "cli.main": ("flagtke.cli", "main"),
}
RADICAL_PAIRINGS = "flag.radical_pairings"

# Counters summed over processes.  Most are filled at a span boundary;
# import_ns by cli_driver.py and stdout_bytes by the cli client.
COUNTERS = (
    "flags_built",  # distinct (type, theta) returned by parabolic, per process
    "pairing_terms",  # sum of dim * picard_rank over radical_pairings calls
    "catalog_rows",
    "checks_run",
    "sweep_failures",
    "cache_hits",  # build_root_system.cache_info() at the end of the process
    "cache_misses",
    "import_ns",
    "stdout_bytes",
)


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._flags: set[tuple[str, tuple[int, ...]]] = set()
        self._build = None

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions in every loaded flagtke module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "flagtke"]
        hooks = {
            "flag.parabolic": self._on_parabolic,
            "catalog.catalog_rows": self._on_catalog_rows,
            "sweep.run_sweep": self._on_sweep,
        }
        for name, (module_name, attr) in FUNCTIONS.items():
            home = sys.modules.get(module_name)
            if home is None:
                continue
            original = getattr(home, attr)
            if name == "rootsys.build":
                self._build = original
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        flag = sys.modules["flagtke.flag"]
        cls = flag.ParabolicData
        cls.radical_pairings = self.wrap(
            RADICAL_PAIRINGS, cls.radical_pairings, self._on_pairings
        )

    def _on_parabolic(self, args, p) -> None:
        self._flags.add((str(p.lie_type), p.theta))

    def _on_pairings(self, args, result) -> None:
        p = args[0]
        self.counters["pairing_terms"] += p.dim * p.picard_rank

    def _on_catalog_rows(self, args, rows) -> None:
        self.counters["catalog_rows"] += len(rows)

    def _on_sweep(self, args, result) -> None:
        self.counters["checks_run"] += result.checks_run
        self.counters["sweep_failures"] += len(result.failures)

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
        counters = dict(self.counters, flags_built=len(self._flags))
        info = getattr(self._build, "cache_info", None)
        if info is not None:
            ci = info()
            counters["cache_hits"] = ci.hits
            counters["cache_misses"] = ci.misses
        return {"calls": calls, "self_ns": self_ns, "counters": counters}

    def write(self, path: str) -> None:
        """Append this process's spans and its summary line to path."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")


def span_cost_ns() -> float:
    """What one span adds to a call: a wrapped no-op against a plain one.

    Each side is timed seven times over 20000 calls and the fastest pass
    is kept, so the figure is the wrapper's own cost, not the host's
    noise.  It leaves out the result hooks and the cache misses a traced
    program may add, so it is a lower bound.
    """
    calls, repeats = 20000, 7

    def noop():
        return None

    def timed(fn) -> int:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - start

    plain, wrapped = [], []
    for _ in range(repeats):
        plain.append(timed(noop))
        wrapped.append(timed(Tracer().wrap("noop", noop)))
    return (min(wrapped) - min(plain)) / calls


def read_summaries(path: str) -> dict:
    """Merge the summary lines of every process that wrote to path."""
    total = {"calls": {}, "self_ns": {}, "counters": dict.fromkeys(COUNTERS, 0)}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"summary"'):
                continue
            part = json.loads(line)["summary"]
            for key in ("calls", "self_ns", "counters"):
                for name, value in part[key].items():
                    total[key][name] = total[key].get(name, 0) + value
    return total


def per_layer_metrics(total: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    calls, self_ns, c = total["calls"], total["self_ns"], total["counters"]

    def seconds(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    out: dict[str, tuple[float, str]] = {}
    lookups = c["cache_hits"] + c["cache_misses"]
    out["rootsys.build.calls"] = (calls.get("rootsys.build", 0), "count")
    out["rootsys.build.s"] = (seconds("rootsys.build"), "s")
    out["rootsys.cache_hit_ratio"] = (c["cache_hits"] / lookups if lookups else 0.0, "ratio")
    parabolic_calls = calls.get("flag.parabolic", 0)
    out["flag.parabolic.calls"] = (parabolic_calls, "count")
    out["flag.parabolic.s"] = (seconds("flag.parabolic"), "s")
    out["flag.parabolic_per_flag"] = (
        parabolic_calls / c["flags_built"] if c["flags_built"] else 0.0,
        "ratio",
    )
    for name in ("flag.degree", "flag.snow_check", RADICAL_PAIRINGS):
        out[name + ".calls"] = (calls.get(name, 0), "count")
        out[name + ".s"] = (seconds(name), "s")
    out["invariants.pairing_terms"] = (c["pairing_terms"], "count")
    for name in FUNCTIONS:
        if name.startswith("invariants."):
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".s"] = (seconds(name), "s")
    for name in ("catalog.catalog_rows", "catalog.classify_picard2", "families.rows_within"):
        out[name + ".s"] = (seconds(name), "s")
    out["catalog.rows"] = (c["catalog_rows"], "count")
    out["sweep.run_sweep.self_s"] = (seconds("sweep.run_sweep"), "s")
    out["sweep.checks_run"] = (c["checks_run"], "count")
    out["sweep.failures"] = (c["sweep_failures"], "count")
    out["cli.import_s"] = (c["import_ns"] / 1e9, "s")
    out["cli.main.self_s"] = (seconds("cli.main"), "s")
    out["cli.stdout_bytes"] = (c["stdout_bytes"], "bytes")
    return out
