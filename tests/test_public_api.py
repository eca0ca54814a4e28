"""Public-API hygiene: every package imports, every __all__ name exists."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.boot",
    "repro.cli",
    "repro.compare",
    "repro.core",
    "repro.experiments",
    "repro.hardware",
    "repro.metrics",
    "repro.netsvc",
    "repro.oscar",
    "repro.oslayer",
    "repro.pbs",
    "repro.sched",
    "repro.simkernel",
    "repro.slurm",
    "repro.storage",
    "repro.winhpc",
    "repro.windeploy",
    "repro.workloads",
]


def all_modules():
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", all_modules())
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dunder_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.__all__ lists {name}"


def test_top_level_lazy_exports():
    assert repro.build_hybrid_cluster is not None
    assert repro.DualBootOscar is not None
    assert repro.__version__
    with pytest.raises(AttributeError):
        repro.nonexistent_attribute
