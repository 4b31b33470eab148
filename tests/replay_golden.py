"""Replay both golden CLI corpora through ``flagtke.cli.main``, stdlib only.

    python tests/replay_golden.py

runs every command of ``perfbench/cli_golden.json`` (stdout sha256 and
exit 0) and of ``tests/cli_golden_extra.json`` (exit code, stdout sha256,
stderr text and the sha256 of the ``--out`` file, with the entry's patch
applied) in-process, at ``COLUMNS=80``, without pytest or jsonschema, so
that it runs on any CPython the package supports.  It prints one line per
mismatch and a summary, and exits 1 if any entry differs.
``tests/test_cli_golden.py`` runs the same two replays under pytest, with
a callback that validates each JSON output against the schema.  The file
name keeps it out of pytest's collection.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flagtke.cli import EXIT_OK, main  # noqa: E402

GOLDEN = HERE.parent / "perfbench" / "cli_golden.json"
EXTRA = HERE / "cli_golden_extra.json"

# Called with the argv and the stdout bytes of each replayed command.
OnOutput = Callable[[list, bytes], None]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _columns():
    """``COLUMNS=80``, the width the extra corpus's help texts were
    recorded at, restored afterwards."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


@contextlib.contextmanager
def _patched(target: str | None):
    """Replace the function named ``module.attr`` by one returning -1."""
    if target is None:
        yield
        return
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, lambda p, xi: Fraction(-1))
    try:
        yield
    finally:
        setattr(module, attr, original)


def replay_golden(on_output: OnOutput | None = None) -> tuple[int, list]:
    """Replay ``cli_golden.json``: the number of entries and the mismatches."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    entries = [e for group in doc["groups"] for e in group["entries"]]
    mismatches = []
    with _columns():
        for entry in entries:
            argv = list(entry["argv"])
            code, out, _ = _run(argv)
            data = out.encode("utf-8")
            if on_output:
                on_output(argv, data)
            if code != EXIT_OK or _sha(data) != entry["sha256"]:
                mismatches.append((argv, {"exit": code, "stdout_bytes": len(data)}))
    return len(entries), mismatches


def replay_extra(on_output: OnOutput | None = None) -> tuple[int, list]:
    """Replay ``cli_golden_extra.json``: the number of entries and the
    mismatches."""
    doc = json.loads(EXTRA.read_text(encoding="utf-8"))
    mismatches = []
    with _columns(), tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "out.json"
        for entry in doc["entries"]:
            out_file.unlink(missing_ok=True)
            argv = [a.replace("{tmp}", tmp) for a in entry["argv"]]
            patch = entry["patch"] and doc["patches"][entry["patch"]]
            with _patched(patch):
                code, out, err = _run(argv)
            data = out.encode("utf-8")
            if on_output:
                on_output(argv, data)
            seen = {
                "exit": code,
                "stdout_sha256": _sha(data),
                "stderr": err.replace(tmp, "{tmp}"),
                "out_sha256": _sha(out_file.read_bytes()) if out_file.exists() else None,
            }
            if any(seen[k] != entry[k] for k in seen):
                mismatches.append((entry["argv"], seen))
    return len(doc["entries"]), mismatches


def main_replay() -> int:
    failed = 0
    for name, replay in (("cli_golden.json", replay_golden),
                         ("cli_golden_extra.json", replay_extra)):
        total, mismatches = replay()
        for argv, seen in mismatches:
            print(f"MISMATCH {name} {argv}: {seen}")
        print(f"{name}: {total - len(mismatches)}/{total} identical")
        failed += len(mismatches)
    print(f"python {sys.version.split()[0]}: {'FAIL' if failed else 'OK'}, {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_replay())
