"""Bayesian inference for Poisson process rates and their ratio.

Conjugate Gamma posteriors for a single rate, closed-form densities for the
ratio of two rates under two causal models, forward predictive simulation of
counts, count differences and count ratios, and a small exact Gibbs sampler
for the variants with detection efficiencies and backgrounds.

Each public name is imported from its module on first use (PEP 562): a bare
`import rateratio` loads no NumPy, and `rateratio.run_chain` loads `mcmc`
but not `montecarlo`.
"""

import importlib

__version__ = "0.1.0"

# the one list of each module's public names, in order: each module reads its __all__ from its row
_PUBLIC = {
    "distributions": (
        "GammaParams", "SummaryStats", "DiscreteDist", "poisson_pmf", "poisson_cdf", "skellam_pmf",
        "skellam_dist", "gamma_pdf", "gamma_logpdf", "gamma_cdf", "gamma_ppf", "gamma_summaries",
        "gamma_sample", "binomial_pmf", "gamma_ratio_pdf", "gamma_ratio_logpdf", "gamma_ratio_cdf",
        "gamma_ratio_ppf", "gamma_ratio_summaries", "beta_prime_pdf", "uniform_ratio_pdf",
        "uniform_ratio_cdf", "poisson_process_waiting_times",
    ),
    "inference": (
        "FLAT_PRIOR", "CountObservation", "RateEstimate", "update_lambda", "update_rate",
        "combine_observations", "elicit_gamma", "relative_belief_ratio", "rate_posterior",
    ),
    "mcmc": (
        "MCMC_FLAT_PRIOR", "ModelSpec", "Model", "Chain", "VariableSummary", "ChainSummary",
        "build_model", "run_chain", "summarize_chain", "format_chain_summary", "chain_to_csv",
    ),
    "montecarlo": (
        "RatioSampleReport", "simulate_count_ratio", "simulate_count_difference",
        "simulate_gamma_ratio", "simulate_uniform_ratio", "write_histogram_csv",
    ),
    "ratio": (
        "RatioPosteriorSpec", "RatioPosterior", "lambda_ratio_pdf", "lambda_ratio_summaries",
        "model_a_pdf", "model_a_summaries", "model_b_pdf", "model_b_summaries",
        "model_b_rate_posteriors", "model_b_reweighted_pdf", "implied_r1_pdf", "ratio_posterior",
        "combine_ratio_instances",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # looked up afresh on each use, never cached here, so a name patched in
    # its own module (by a test or a tracer) is what the package returns
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _PUBLIC:  # the module itself, as `rateratio.mcmc`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
