"""Golden CLI outputs, byte for byte.

``perfbench/cli_golden.json`` records, for each command line of the
benchmark's pool, the sha256 of the stdout of ``python -m flagtke.cli``
on a commit whose answers were known good.  ``cli_golden_extra.json``
(next to this file) widens that to every subcommand under
``--units 2pi|raw`` x ``--digits 3|12`` in text and JSON, ``--complement``,
``--out``, every ``table`` family, the usage and validation errors, each
``--help``, a failing sweep, answers past CPython's 4300-digit string
limit, and rational tokens and ``--digits`` values past the input
bounds; each entry holds the exit code, the stdout sha256, the stderr
text and the sha256 of the ``--out`` file.  Running the same commands
in-process through ``main`` must reproduce every one of them exactly, so
a refactor that changes any printed answer, rendering, message or JSON
layout fails here.  Every JSON envelope printed on the way must also
validate against the schema.
"""

import hashlib
import importlib.resources
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from flagtke.cli import EXIT_OK, main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "perfbench" / "cli_golden.json"
EXTRA = HERE / "cli_golden_extra.json"


@pytest.fixture(scope="module")
def validator():
    ref = importlib.resources.files("flagtke").joinpath("schema/result.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _schema_errors(validator, argv, out: bytes) -> list:
    if "--json" not in argv or not out:  # a failed command prints nothing
        return []
    return [(argv, e.message) for e in validator.iter_errors(json.loads(out))]


def test_golden_cli_outputs_are_byte_identical(capsys, validator):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    entries = [e for group in doc["groups"] for e in group["entries"]]
    assert len(entries) == 294
    mismatches, invalid = [], []
    for entry in entries:
        code = main(list(entry["argv"]))
        out = capsys.readouterr().out.encode("utf-8")
        if code != EXIT_OK or _sha(out) != entry["sha256"]:
            mismatches.append((entry["argv"], code, len(out), entry["bytes"]))
        invalid += _schema_errors(validator, entry["argv"], out)
    assert mismatches == []
    assert invalid == []


def test_extra_golden_cli_outputs_are_byte_identical(capsys, monkeypatch, tmp_path, validator):
    doc = json.loads(EXTRA.read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", "80")
    tmp = str(tmp_path)
    out_file = tmp_path / "out.json"
    mismatches, invalid = [], []
    for entry in doc["entries"]:
        out_file.unlink(missing_ok=True)
        argv = [a.replace("{tmp}", tmp) for a in entry["argv"]]
        with monkeypatch.context() as m:
            if entry["patch"]:
                m.setattr(doc["patches"][entry["patch"]], lambda p, xi: Fraction(-1))
            code = main(argv)
        captured = capsys.readouterr()
        out = captured.out.encode("utf-8")
        seen = {
            "exit": code,
            "stdout_sha256": _sha(out),
            "stderr": captured.err.replace(tmp, "{tmp}"),
            "out_sha256": _sha(out_file.read_bytes()) if out_file.exists() else None,
        }
        if any(seen[k] != entry[k] for k in seen):
            mismatches.append((entry["argv"], seen))
        invalid += _schema_errors(validator, argv, out)
    assert len(doc["entries"]) == 254
    assert mismatches == []
    assert invalid == []
