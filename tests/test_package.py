import importlib
import json
import subprocess
import sys

import pytest

import rateratio

# the modules whose public names the package re-exports
MODULES = ("distributions", "inference", "mcmc", "montecarlo", "ratio")


def test_package_all_is_the_union_of_the_module_lists():
    names = [
        name for module in MODULES for name in importlib.import_module(f"rateratio.{module}").__all__
    ]
    assert len(set(names)) == len(names)
    assert sorted(rateratio.__all__) == sorted(names + ["__version__"])
    for name in rateratio.__all__:
        assert hasattr(rateratio, name), name
    # once listed by the package only, and by mcmc only
    assert {"gamma_ratio_logpdf", "VariableSummary"} <= set(rateratio.__all__)


def test_name_table_lists_each_module_in_its_own_order():
    # the package resolves each name through this table, without importing the module first
    assert set(rateratio._PUBLIC) == set(MODULES)
    for module, names in rateratio._PUBLIC.items():
        assert list(names) == importlib.import_module(f"rateratio.{module}").__all__, module


def test_lazy_names_resolve_to_their_module_objects():
    from rateratio import mcmc

    namespace = {}
    exec("from rateratio import *", namespace)
    assert set(rateratio.__all__) <= set(namespace)
    assert namespace["run_chain"] is mcmc.run_chain
    assert rateratio.run_chain is mcmc.run_chain
    assert set(rateratio.__all__) <= set(dir(rateratio))
    assert "__version__" in dir(rateratio)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'rateratio' has no attribute 'no_such_name'"):
        rateratio.no_such_name
    assert not hasattr(rateratio, "np")


def test_modules_resolve_after_a_bare_package_import():
    code = "import rateratio, sys; print(rateratio.mcmc.__name__, 'rateratio.montecarlo' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["rateratio.mcmc", "False"]


def test_each_module_reads_its_public_names_from_the_table():
    # a fresh interpreter imports the modules before anything reads the package's table
    code = (
        "import importlib, json\n"
        f"modules = {{m: importlib.import_module('rateratio.' + m) for m in {MODULES!r}}}\n"
        "import rateratio\n"
        "report = {}\n"
        "for m, module in modules.items():\n"
        "    namespace = {}\n"
        "    exec(f'from rateratio.{m} import *', namespace)\n"
        "    del namespace['__builtins__']\n"
        "    report[m] = [module.__all__ == list(rateratio._PUBLIC[m]), list(namespace)]\n"
        "print(json.dumps(report))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert list(report) == list(MODULES)
    for module, (all_is_row, bound) in report.items():
        assert all_is_row, module
        assert bound == list(rateratio._PUBLIC[module]), module
