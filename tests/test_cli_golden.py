"""Golden CLI outputs: every command of the benchmark's pool, byte for byte.

``perfbench/cli_golden.json`` records, for each command line, the sha256
of the stdout of ``python -m flagtke.cli`` on a commit whose answers were
known good.  Running the same commands in-process through ``main`` must
reproduce every one of them exactly, so a refactor that changes any
printed answer, rendering or JSON layout fails here.
"""

import hashlib
import json
from pathlib import Path

from flagtke.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "cli_golden.json"


def test_golden_cli_outputs_are_byte_identical(capsys):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    entries = [e for group in doc["groups"] for e in group["entries"]]
    assert len(entries) == 294
    mismatches = []
    for entry in entries:
        code = main(list(entry["argv"]))
        out = capsys.readouterr().out.encode("utf-8")
        if code != EXIT_OK or hashlib.sha256(out).hexdigest() != entry["sha256"]:
            mismatches.append((entry["argv"], code, len(out), entry["bytes"]))
    assert mismatches == []
