import importlib
import pkgutil

import absnorm

# The command-line front end is an entry point, not part of the library API.
LIBRARY_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(absnorm.__path__) if name != "cli"
)


def test_every_module_export_resolves_on_the_package():
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"absnorm.{name}")
        for export in module.__all__:
            assert getattr(absnorm, export) is getattr(module, export), (name, export)


def test_package_all_is_the_union_of_module_exports():
    union = [
        export
        for name in LIBRARY_MODULES
        for export in importlib.import_module(f"absnorm.{name}").__all__
    ]
    assert len(union) == len(set(union))
    assert sorted(absnorm.__all__) == sorted(union)
    assert len(absnorm.__all__) == len(set(absnorm.__all__))
    assert not [export for export in absnorm.__all__ if export.startswith("_")]
