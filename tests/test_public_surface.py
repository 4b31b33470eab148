"""The public surface: every exported name exists, once."""

import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import flagtke


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
