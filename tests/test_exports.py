"""Every ``repro`` module imports, and every name in an ``__all__`` exists.

The CI lint job's ruff F822 check catches an ``__all__`` entry naming
nothing; this test holds the same line in tier 1, where ruff is not
installed, so deleting a function cannot leave a dangling export.
"""

import importlib
import pathlib
import pkgutil

import repro

SRC = pathlib.Path(repro.__file__).parent


def _module_names() -> list[str]:
    """Every module of the package except ``__main__`` (which runs the
    CLI on import)."""
    return ["repro"] + [info.name for info in
                        pkgutil.walk_packages(repro.__path__, "repro.")
                        if info.name.rsplit(".", 1)[-1] != "__main__"]


def test_walk_finds_every_module_file():
    files = [p for p in SRC.rglob("*.py") if p.name != "__main__.py"]
    assert len(_module_names()) == len(files)


def test_every_exported_name_resolves():
    missing, resolved = [], 0
    for name in _module_names():
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            if hasattr(module, attr):
                resolved += 1
            else:
                missing.append(f"{name}.{attr}")
    assert missing == []
    assert resolved > 0
