"""Dead-export guard: every advertised public name of the package exists."""

import importlib
import pkgutil

import cubegen


def test_every_module_all_resolves():
    for info in pkgutil.iter_modules(cubegen.__path__):
        mod = importlib.import_module(f"cubegen.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"cubegen.{info.name}.__all__ names missing {missing}"


def test_direction_stack_exported():
    from cubegen import geometry

    assert "face_directions" in geometry.__all__
    assert geometry.face_directions.cache_info().maxsize is not None
