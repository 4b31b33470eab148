"""Regenerate the reference answers the benchmark checks against.

    python3 perfbench/refgen.py            # from the repository root

Writes ``atlas_reference.txt`` (one hash of (type, theta, dim, koszul,
degree) per flag of rank <= 8, plus the whole-atlas digest) and
``cli_golden.json`` (the pool of CLI commands the cli workload draws
from, each with the sha256 and size of its stdout).  Run it only on a
commit whose answers are known good: the files are the oracle, and a
regenerated file hides any change in the answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import client

TYPES = ("A2", "A6", "B4", "C5", "D5", "G2", "F4", "E6", "E8")
FLAG_KINDS = ("flag", "tke", "grlb", "volume", "report")
PICK = 4  # commands drawn per (kind, type) group, of the six in it


def write_atlas() -> None:
    client.import_flagtke()
    from flagtke.flag import degree, parabolic
    from flagtke.rootsys import LieType

    rows, lines = [], []
    for type_, theta in client.atlas_specs():
        p = parabolic(LieType.parse(type_), theta)
        row = client.atlas_row(type_, theta, p.dim, p.koszul, degree(p))
        rows.append(row)
        lines.append(f"{type_} {','.join(map(str, theta)) or '-'} {client.sha(row)[:16]}")
    header = f"digest {client.sha(chr(10).join(rows))} flags {len(rows)}"
    client.ATLAS_REFERENCE.write_text("\n".join([header, *lines]) + "\n", encoding="ascii")


def _rationals(rng: random.Random, k: int, lo: int) -> str:
    return ",".join(str(Fraction(rng.randint(lo, 20), rng.randint(1, 10))) for _ in range(k))


def _groups() -> list[dict]:
    rng = random.Random("flagtke-cli-pool")
    groups = []
    for type_ in TYPES:
        rank = int(type_[1:])
        groups.append({"name": f"roots/{type_}", "pick": 2,
                       "argv": [["roots", type_], ["roots", type_, "--json"]]})
        for kind in FLAG_KINDS:
            argvs = []
            for variant in range(3):
                theta = () if variant == 0 else tuple(
                    sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))))
                k = rank - len(theta)
                argv = [kind, type_, "--theta", ",".join(map(str, theta))]
                if kind == "tke":
                    argv.append("--beta=" + _rationals(rng, k, -20))
                elif kind != "flag":
                    argv.append("--xi=" + _rationals(rng, k, 1))
                argvs += [argv, argv + ["--json"]]
            groups.append({"name": f"{kind}/{type_}", "pick": PICK, "argv": argvs})
    groups.append({"name": "table", "pick": 2,
                   "argv": [["table", "--max-rank", "9"], ["table", "--max-rank", "9", "--json"]]})
    groups.append({"name": "sweep", "pick": 1, "argv": [
        ["sweep", "--max-rank", "3", "--samples", "3", "--seed", str(s)] + fmt
        for s in (1, 2) for fmt in ([], ["--json"])]})
    return groups


def write_cli_golden() -> None:
    env = dict(os.environ, PYTHONPATH=str(client.SRC))
    groups = []
    for group in _groups():
        entries = []
        for argv in group.pop("argv"):
            proc = subprocess.run([sys.executable, "-m", "flagtke.cli", *argv], cwd=client.ROOT,
                                  env=env, capture_output=True, check=True)
            entries.append({"argv": argv, "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                            "bytes": len(proc.stdout)})
        groups.append({**group, "entries": entries})
    client.CLI_GOLDEN.write_text(json.dumps({"groups": groups}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_atlas()
    write_cli_golden()
