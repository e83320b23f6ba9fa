"""Synthetic stand-ins for the paper's four real datasets.

The paper evaluates on Ipums (US census microdata), Bfive (Big Five
personality test response times), Loan (Lending Club loans) and Acs (2015
American Community Survey).  None of these can be redistributed or fetched
offline, so this module generates datasets that mimic the published
characteristics the evaluation depends on:

* **Ipums / Acs** — census-style records: strongly skewed marginals
  (age/income-like log-normal shapes mixed with few-modal categorical-like
  attributes) and moderate-to-strong pairwise correlation.  These are the
  datasets on which correlation-aware methods (CALM, TDG, HDG) clearly
  beat the independence-assuming MSW.
* **Bfive** — per-question answer times in milliseconds: heavy-tailed
  (log-normal) marginals with *weak* correlation between questions.  The
  paper observes MSW is competitive here; the stand-in keeps correlations
  low so that behaviour reproduces.
* **Loan** — financial attributes: a mix of highly skewed amounts and
  smoother score-like attributes with moderate correlation.

Each generator uses a Gaussian copula: a correlated standard-normal latent
vector per record is pushed through per-attribute marginal transforms and
then bucketed into the common ordinal domain ``[c]``.  This preserves the
two levers the experiments exercise — marginal skewness and pairwise
correlation strength — while keeping the build fully self-contained (the
substitution is recorded in ``docs/reproduce.md``, Substitutions).
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset


def _gaussian_copula(n_users: int, correlation: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw correlated uniforms in (0, 1) via a Gaussian copula."""
    d = correlation.shape[0]
    latent = rng.multivariate_normal(np.zeros(d), correlation, size=n_users,
                                     method="cholesky")
    # Convert to uniforms with the normal CDF (vectorised erf-based).
    from math import sqrt
    uniforms = 0.5 * (1.0 + _erf(latent / sqrt(2.0)))
    return np.clip(uniforms, 1e-12, 1.0 - 1e-12)


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorised error function (Abramowitz & Stegun 7.1.26 approximation).

    Accurate to ~1.5e-7 which is far below the binning resolution used
    here; avoids a hard dependency on scipy for the core library.
    """
    sign = np.sign(x)
    x = np.abs(x)
    a1, a2, a3, a4, a5 = (0.254829592, -0.284496736, 1.421413741,
                          -1.453152027, 1.061405429)
    p = 0.3275911
    t = 1.0 / (1.0 + p * x)
    poly = ((((a5 * t + a4) * t + a3) * t + a2) * t + a1) * t
    y = 1.0 - poly * np.exp(-x * x)
    return sign * y


def _correlation_matrix(d: int, base: float, jitter: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Equicorrelation matrix with per-pair jitter, projected to valid PSD."""
    matrix = np.full((d, d), base)
    if jitter > 0:
        noise = rng.uniform(-jitter, jitter, size=(d, d))
        noise = (noise + noise.T) / 2.0
        matrix = np.clip(matrix + noise, 0.0, 0.95)
    np.fill_diagonal(matrix, 1.0)
    # Project to the nearest positive semi-definite matrix via eigenvalue
    # clipping, then re-normalise the diagonal.
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvals = np.clip(eigvals, 1e-6, None)
    matrix = eigvecs @ np.diag(eigvals) @ eigvecs.T
    scale = np.sqrt(np.diag(matrix))
    matrix = matrix / np.outer(scale, scale)
    return matrix


def _bucket_quantiles(uniforms: np.ndarray, skew: float,
                      domain_size: int) -> np.ndarray:
    """Map uniforms to ordinal buckets through a skewed quantile transform.

    ``skew`` controls the marginal shape: 1.0 yields a uniform marginal,
    values above 1 concentrate mass on low buckets (log-normal/income-like
    long right tails once bucketed), values below 1 concentrate on high
    buckets.
    """
    shaped = uniforms ** skew
    buckets = np.floor(shaped * domain_size).astype(np.int64)
    return np.clip(buckets, 0, domain_size - 1)


def _build(name: str, n_users: int, n_attributes: int, domain_size: int,
           base_correlation: float, correlation_jitter: float,
           skews: np.ndarray, rng: np.random.Generator) -> Dataset:
    correlation = _correlation_matrix(n_attributes, base_correlation,
                                      correlation_jitter, rng)
    uniforms = _gaussian_copula(n_users, correlation, rng)
    columns = [
        _bucket_quantiles(uniforms[:, j], float(skews[j % len(skews)]), domain_size)
        for j in range(n_attributes)
    ]
    return Dataset(np.column_stack(columns), domain_size, name=name)


def generate_ipums_like(n_users: int, n_attributes: int = 6,
                        domain_size: int = 64,
                        rng: np.random.Generator | None = None) -> Dataset:
    """Census-like dataset: skewed marginals, moderately strong correlation."""
    rng = rng if rng is not None else np.random.default_rng()
    skews = np.array([2.5, 1.8, 3.0, 1.2, 2.0, 4.0, 1.5, 2.8, 3.5, 1.0])
    return _build("ipums_like", n_users, n_attributes, domain_size,
                  base_correlation=0.55, correlation_jitter=0.15,
                  skews=skews, rng=rng)


def generate_bfive_like(n_users: int, n_attributes: int = 6,
                        domain_size: int = 64,
                        rng: np.random.Generator | None = None) -> Dataset:
    """Response-time-like dataset: heavy-tailed marginals, weak correlation."""
    rng = rng if rng is not None else np.random.default_rng()
    skews = np.array([3.5, 3.0, 4.0, 3.2, 3.8, 2.8, 3.6, 4.2, 3.1, 2.9])
    return _build("bfive_like", n_users, n_attributes, domain_size,
                  base_correlation=0.1, correlation_jitter=0.05,
                  skews=skews, rng=rng)


def generate_loan_like(n_users: int, n_attributes: int = 6,
                       domain_size: int = 64,
                       rng: np.random.Generator | None = None) -> Dataset:
    """Lending-club-like dataset: mixed skew, moderate correlation."""
    rng = rng if rng is not None else np.random.default_rng()
    skews = np.array([2.2, 0.8, 3.0, 1.5, 2.6, 1.0, 2.0, 3.4, 1.2, 2.4])
    return _build("loan_like", n_users, n_attributes, domain_size,
                  base_correlation=0.4, correlation_jitter=0.2,
                  skews=skews, rng=rng)


def generate_acs_like(n_users: int, n_attributes: int = 6,
                      domain_size: int = 64,
                      rng: np.random.Generator | None = None) -> Dataset:
    """ACS-survey-like dataset: strongly skewed, strongly correlated."""
    rng = rng if rng is not None else np.random.default_rng()
    skews = np.array([3.0, 2.4, 4.5, 1.8, 2.8, 3.6, 2.2, 4.0, 1.4, 3.2])
    return _build("acs_like", n_users, n_attributes, domain_size,
                  base_correlation=0.65, correlation_jitter=0.1,
                  skews=skews, rng=rng)
