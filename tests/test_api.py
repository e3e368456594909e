"""Every exported name of the package and its submodules resolves, and
the package root imports none of them."""

import importlib
import pkgutil
import subprocess
import sys

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


def test_package_import_loads_no_submodule():
    # the root holds only __version__; the API is imported from submodules
    code = ("import sys, leaklab; "
            "print(sorted(m for m in sys.modules if m.startswith('leaklab.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
