"""The public surface: every exported name exists, once."""

import importlib
import importlib.util
import pkgutil

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
    # the catalog rows live in `catalog` alone, and the flag report type is gone
    assert "families" not in names and importlib.util.find_spec("flagtke.families") is None
    for name in ("flag_report", "FlagReport"):
        assert not hasattr(flagtke, name) and not hasattr(flagtke.flag, name)
    for name in ("CatalogRow", "rows_within"):
        assert not hasattr(flagtke.catalog, name)
