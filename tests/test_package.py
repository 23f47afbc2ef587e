import importlib

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
