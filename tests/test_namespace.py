"""The package namespace: every public name resolves, lazily, to its module's object."""

import importlib
import subprocess
import sys
import types

import pytest

import hahnvar


def test_every_public_name_is_its_defining_modules_object():
    for name in hahnvar.__all__:
        module = importlib.import_module(f"hahnvar.{hahnvar._MODULE_OF[name]}")
        value = getattr(hahnvar, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hahnvar import *", namespace)
    for name in hahnvar.__all__:
        assert namespace[name] is getattr(hahnvar, name), name


def test_dir_lists_every_public_name():
    assert set(hahnvar.__all__) <= set(dir(hahnvar))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hahnvar.no_such_name
    assert not hasattr(hahnvar, "minimize_directly")


def test_import_loads_no_module_until_a_name_or_module_is_used():
    code = (
        "import sys, hahnvar\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hahnvar.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert hahnvar.variational.el_report is hahnvar.el_report\n"
        "assert 'hahnvar.minimize' not in sys.modules, loaded()\n"
        "from hahnvar import integral\n"
        "assert integral.__module__ == 'hahnvar.integrals'\n"
        "import hahnvar.minimize\n"
        "assert vars(hahnvar)['minimize_direct'] is hahnvar.minimize.minimize_direct\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
