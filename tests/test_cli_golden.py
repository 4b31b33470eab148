"""Golden CLI outputs, byte for byte.

``perfbench/cli_golden.json`` records, for each command line of the
benchmark's pool, the sha256 of the stdout of ``python -m flagtke.cli``
on a commit whose answers were known good.  ``cli_golden_extra.json``
(next to this file) widens that to every subcommand under
``--units 2pi|raw`` x ``--digits 3|12`` in text and JSON, ``--complement``,
``--out``, every ``table`` family, the usage and validation errors, each
``--help``, a failing sweep, answers past CPython's 4300-digit string
limit, rational tokens and ``--digits`` values past the input bounds,
and rational spellings that some CPython's `Fraction` reads but the CLI
refuses (``1_0``, non-ASCII digits); each entry holds the exit code, the
stdout sha256, the stderr text and the sha256 of the ``--out`` file.
Running the same commands in-process through ``main``, by the replays of
``replay_golden.py``, must reproduce every one of them exactly, so a
refactor that changes any printed answer, rendering, message or JSON
layout fails here.  Every
JSON envelope printed on the way must also validate against the schema.
The same replays must also pass under every other CPython >= 3.10 on
PATH or under ``$PYENV_ROOT/versions``, so that no printed byte depends
on the interpreter.
"""

import glob
import importlib.resources
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from replay_golden import replay_extra, replay_golden


@pytest.fixture(scope="module")
def validator():
    ref = importlib.resources.files("flagtke").joinpath("schema/result.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _replay(replay, validator) -> tuple[int, list, list]:
    """Run one replay, validating each JSON output against the schema."""
    invalid = []

    def validate(argv, out: bytes) -> None:
        if "--json" in argv and out:  # a failed command prints nothing
            invalid.extend((argv, e.message) for e in validator.iter_errors(json.loads(out)))

    total, mismatches = replay(validate)
    return total, mismatches, invalid


def test_golden_cli_outputs_are_byte_identical(validator):
    assert _replay(replay_golden, validator) == (294, [], [])


def test_extra_golden_cli_outputs_are_byte_identical(validator):
    assert _replay(replay_extra, validator) == (260, [], [])


# Prints "yes" on a CPython >= 3.10, then its full version string.
_PROBE = ("import platform, sys; print('yes' if platform.python_implementation() == 'CPython'"
          " and sys.version_info >= (3, 10) else 'no'); print(sys.version)")


def _other_interpreters() -> list[str]:
    """Each ``python3.10`` to ``python3.14`` on PATH or under
    ``$PYENV_ROOT/versions/*/bin`` that starts and is a CPython >= 3.10
    other than the one running the tests, one per version string.  A name
    that fails to start (a version manager's shim for a version it does
    not select, say) counts as absent."""
    root = os.environ.get("PYENV_ROOT")
    found, versions = [], {sys.version}
    for minor in range(10, 15):
        name = f"python3.{minor}"
        candidates = [shutil.which(name)]
        if root:
            candidates += sorted(glob.glob(os.path.join(glob.escape(root), "versions", "*",
                                                        "bin", name)))
        for exe in filter(None, candidates):
            try:
                probe = subprocess.run([exe, "-c", _PROBE], capture_output=True, text=True,
                                       timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            lines = probe.stdout.splitlines()
            version = "\n".join(lines[1:])
            if probe.returncode == 0 and lines[:1] == ["yes"] and version not in versions:
                versions.add(version)
                found.append(exe)
    return found


def test_golden_replays_match_under_every_other_interpreter():
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH or under $PYENV_ROOT")
    script = str(Path(__file__).resolve().parent / "replay_golden.py")
    failed = []
    for exe in interpreters:
        run = subprocess.run([exe, script], capture_output=True, text=True, timeout=600)
        if run.returncode != 0:
            failed.append((exe, run.stdout[-2000:], run.stderr[-2000:]))
    assert failed == []
