"""Every exported name of the package and its submodules resolves."""

import importlib
import pkgutil

import leaklab


def test_all_exports_resolve():
    names = [info.name for info in pkgutil.walk_packages(leaklab.__path__, "leaklab.")
             if not info.name.endswith("__main__")]
    modules = [leaklab] + [importlib.import_module(name) for name in names]
    assert "leaklab.workloads" in names
    for mod in modules:
        exported = getattr(mod, "__all__", [])
        assert len(set(exported)) == len(exported), mod.__name__
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing objects: {missing}"
