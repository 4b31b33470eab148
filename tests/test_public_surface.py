"""The public surface: every exported name exists, once."""

import importlib
import importlib.util
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagtke
from flagtke.flag import CohomologyClass, ParabolicData, parabolic
from flagtke.invariants import volume_class
from flagtke.rootsys import LieType, RootSystem, build_root_system, types_of_rank


def test_every_exported_name_resolves_and_appears_once():
    names = [m.name for m in pkgutil.iter_modules(flagtke.__path__)]
    assert {"rootsys", "flag", "invariants", "catalog", "sweep", "cli"} <= set(names)
    for module in [flagtke, *(importlib.import_module(f"flagtke.{n}") for n in names)]:
        exported = module.__all__
        assert len(exported) == len(set(exported)), module.__name__
        assert [n for n in exported if not hasattr(module, n)] == [], module.__name__
    # the rational weight API is gone from the package
    assert not hasattr(flagtke.rootsys, "Weight") and not hasattr(flagtke, "Weight")
    # coroot forms come out of the root closure; no rational route builds them
    assert not hasattr(flagtke.rootsys, "coroot_form") and not hasattr(flagtke, "coroot_form")
    # supports are read off the raising-step pass; no bitmask is stored
    rs_type = flagtke.rootsys.RootSystem
    assert not hasattr(rs_type, "support_masks") and "support_masks" not in rs_type._fields
    # a record's fields are its constructor's arguments; nothing hides fields from the repr
    assert not hasattr(flagtke.rootsys._Record, "_hidden")
    # the catalog rows live in `catalog` alone, and the flag report type is gone
    assert "families" not in names and importlib.util.find_spec("flagtke.families") is None
    for name in ("flag_report", "FlagReport"):
        assert not hasattr(flagtke, name) and not hasattr(flagtke.flag, name)
    for name in ("CatalogRow", "rows_within"):
        assert not hasattr(flagtke.catalog, name)
    # one class check, and no wrapper without a caller in the package
    assert not hasattr(flagtke.flag.ParabolicData, "checked_class")
    assert not hasattr(flagtke.flag.CohomologyClass, "of")
    assert not hasattr(flagtke.invariants, "grlb") and not hasattr(flagtke, "grlb")
    for name in ("randint", "rational"):
        assert not hasattr(flagtke.sweep.SplitMix64, name)
    for name in ("draw_twist", "_range"):
        assert not hasattr(flagtke.sweep, name)
    # a root is its coefficient tuple; no record type wraps it or orders records
    for name in ("Root", "_OrderedRecord"):
        assert not hasattr(flagtke.rootsys, name) and not hasattr(flagtke, name)
    # a memo entry keeps its denominator, not an integer form, and owns its
    # product, so invariants reads no tree rule of flag's
    assert "form" not in flagtke.flag._Entry.__slots__
    assert not hasattr(flagtke.invariants, "flag")
    # the memo is read in place, and a Kahler class has one sign rule
    assert not hasattr(flagtke.flag.ParabolicData, "_remembered")
    for name in ("_kahler", "_positive"):
        assert not hasattr(flagtke.flag, name)
    # a root system reads its symmetrizer off the highest root and parses a
    # type itself, so the cache wraps the constructor
    for name in ("_symmetrizer", "_construct"):
        assert not hasattr(flagtke.rootsys, name)
    assert build_root_system.__wrapped__ is RootSystem


def test_the_coroot_heights_and_the_radical_selector_have_one_home():
    # the coroot heights are the sums of the coroot forms, with no pass
    # wrapper beside them, and a flag keeps no radical selector: its step
    # table finds the radical roots in its own walk
    assert not hasattr(RootSystem, "_coroot_pairings")
    assert "_is_radical" not in ParabolicData.__slots__
    types = [t for rank in range(1, 33) for t in types_of_rank(rank)]
    assert len(types) == 128
    for t in types:
        rs = build_root_system(t)
        assert rs._heights == tuple(map(sum, rs.coroot_forms)), t


@pytest.mark.parametrize("call, message", [
    (lambda: volume_class(parabolic("A2"), None), "class coordinates come in order, not a NoneType"),
    (lambda: CohomologyClass(5), "class coordinates come in order, not a int"),
    (lambda: parabolic("A2", theta=5), "theta is a collection of node indices, not a int"),
    (lambda: parabolic(None), "a type is a LieType or a token such as 'D5', not a NoneType"),
    (lambda: build_root_system(None), "a type is a LieType or a token such as 'D5', not a NoneType"),
    (lambda: RootSystem(None), "a type is a LieType or a token such as 'D5', not a NoneType"),
    (lambda: ParabolicData(None, ()), "a flag is built on a RootSystem, not a NoneType"),
    (lambda: ParabolicData("A2", ()), "a flag is built on a RootSystem, not a str"),
    (lambda: LieType(["A"], 3), "unknown series ['A']: expected one of A, B, C, D, E, F, G"),
], ids=("volume_class-None", "CohomologyClass-int", "parabolic-theta-int", "parabolic-None",
        "build_root_system-None", "RootSystem-None", "ParabolicData-None", "ParabolicData-str",
        "LieType-list"))
def test_a_wrong_library_argument_raises_one_line_value_error(call, message):
    # the README's Library section: a wrong argument raises ValueError
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert str(info.value) == message and "\n" not in message


def test_readme_library_example_shows_the_values_it_computes():
    # each expression line of the README's Library block is followed by
    # a comment that is the repr of its value; run the block line by line
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    shown = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        assert repr(eval(expression, namespace)) == comment, code
        shown += 1
    assert shown == 7
    assert len(namespace["rows"]) == 221  # "221 verified survey rows"


def test_cli_import_loads_every_layer_and_no_dataclasses_inspect_or_typing():
    # -S: no site start-up, whose .pth files may import typing themselves
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import flagtke; "
        "layers = sorted(m for m in sys.modules if m.startswith('flagtke.')); "
        "import flagtke.cli; "
        "print(json.dumps([layers, [m for m in ('dataclasses', 'inspect', 'typing') "
        "if m in sys.modules]]))"
    )
    src = str(Path(flagtke.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", probe, src],
                         capture_output=True, text=True, timeout=60, check=True)
    layers, heavy = json.loads(run.stdout)
    assert {"flagtke.flag", "flagtke.invariants", "flagtke.sweep"} <= set(layers)
    assert heavy == []
