"""
Sampling the models that have no closed form
============================================

Uncertain detection efficiencies and backgrounds leave no closed-form
posterior density for rho: the observed count is a binomial thinning of a
produced Poisson count, possibly mixed with background events.  A fixed
efficiency only scales the exposure, but behind a Beta efficiency the
produced count is latent.  Under a flat rho prior, with every efficiency
but eps1 fixed, integrating rho, the background rates and the latent counts
out still leaves laws that can be drawn exactly, so `run_chain` draws these
models iid; elsewhere each node has an exact conditional law, and a small
Gibbs sampler redraws them in turn.  We first check the draws against a
closed-form case, then run the full model with uncertain efficiencies and
backgrounds.
"""

from rateratio import (
    MCMC_FLAT_PRIOR,
    CountObservation,
    GammaParams,
    ModelSpec,
    build_model,
    chain_to_csv,
    format_chain_summary,
    model_b_summaries,
    run_chain,
    summarize_chain,
)

d1 = CountObservation(3, 3.0)
d2 = CountObservation(6, 6.0)
FLAT = {"rho": MCMC_FLAT_PRIOR, "r2": MCMC_FLAT_PRIOR}

# --- sanity: the sampler must reproduce the closed form -----------------------
closed = model_b_summaries(d1, d2)
spec = ModelSpec("B", d1, d2, priors=FLAT)
chain = run_chain(build_model(spec), n_iter=50_000, seed=1)
rho = summarize_chain(chain).variables["rho"]
print("direct-ratio model, closed form: mean = %.3f, sd = %.3f" % (closed.mean, closed.sd))
print("                     sampled:    mean = %.3f, sd = %.3f" % (rho.mean, rho.sd))
print("      batch-means SE of the mean: %.4f" % rho.batch_se)

# --- detection efficiencies -----------------------------------------------------
# Each channel only records a fraction of its true counts.  A fixed value
# (channel 1: 80%) and a Beta prior (channel 2: roughly 60% +- 15%) both work.
# The fixed one scales channel 1's exposure to 0.8 * T1; the Beta one makes
# channel 2's produced count a latent variable, which Gibbs sweeps redraw.
spec = ModelSpec(
    "B_EFF",
    d1,
    d2,
    priors=FLAT,
    efficiencies=(0.8, (6.0, 4.0)),
    monitor=("rho", "r2", "eps2"),
)
chain = run_chain(build_model(spec), n_iter=50_000, seed=2)
print("\nwith efficiencies (fixed 0.8, Beta(6, 4)):")
print(format_chain_summary(summarize_chain(chain)))

# --- efficiencies and backgrounds ------------------------------------------------
# Observed counts are signal + background, each thinned by its own
# efficiency; the split is latent.  With every efficiency fixed and the r2
# prior's shape above 1, the splits have closed-form laws and the whole
# posterior is drawn iid.  Weakly informative Gamma priors keep the
# background rates identified.
spec = ModelSpec(
    "B_EFF_BKG",
    CountObservation(9, 3.0),
    CountObservation(12, 6.0),
    priors={
        "rho": MCMC_FLAT_PRIOR,
        "r2": GammaParams(2.0, 1.0),
        "rb1": GammaParams(2.0, 2.0),
        "rb2": GammaParams(2.0, 2.0),
    },
    efficiencies=(0.9, 0.9),
    background_efficiencies=(0.5, 0.5),
    monitor=("rho", "r2", "rb1", "rb2", "s1"),
)
chain = run_chain(build_model(spec), n_iter=50_000, seed=3)
print("\nwith backgrounds (s1 = latent signal count in channel 1):")
print(format_chain_summary(summarize_chain(chain)))
# The background can absorb every channel-2 count: the split s2 = 0 has
# posterior probability 0.019, and given it r2 ~ Gamma(1, ...) has a density
# that does not vanish at 0, so under a flat prior rho = r1 / r2 has an
# infinite posterior mean.  The sample mean above is no estimate of anything;
# the median and the 95% interval are.
rho = summarize_chain(chain).variables["rho"]
print("rho: median %.2f, 95%% interval %.2f - %.2f (its posterior mean is infinite)"
      % (rho.quantiles[50.0], rho.quantiles[2.5], rho.quantiles[97.5]))

# Chains export as plain CSV, one monitored variable per column.
with open("/tmp/demo_chain.csv", "w") as f:
    chain_to_csv(chain, f)
print("chain written to /tmp/demo_chain.csv")
