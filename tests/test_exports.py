"""Dead-export guard: every advertised public name of the package exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cubegen


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(cubegen.__path__):
        mod = importlib.import_module(f"cubegen.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"cubegen.{info.name}.__all__ names missing {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(cubegen.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"cubegen.{module}")
        assert hasattr(mod, name) and hasattr(cubegen, name), f"{module}.{name}"


def test_direction_stack_exported():
    from cubegen import geometry

    assert {"face_directions", "face_pixel_directions"} <= set(geometry.__all__)
    assert geometry.face_directions.cache_info().maxsize is not None
