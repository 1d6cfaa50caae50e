"""Forecast metrics and numerical verification machinery.

Covers the three error metrics, the average-node-deviation dispersion
measure, the exact decomposition of the dispersion shift caused by adding
per-node prompt vectors, cumulative singular-value analysis with the
best-rank-k floor, and a Monte-Carlo probe of the random-projection
factorization bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import rng_stream

MAPE_MASK_THRESHOLD = 1e-4


class AnalysisError(ValueError):
    pass


def metrics(pred, truth) -> dict:
    """MAE, RMSE, and masked MAPE (%) in original units.

    MAPE averages only over entries with |truth| >= 1e-4; near-zero truth
    explodes the percentage otherwise.  When everything is masked, MAPE is
    None (an undefined marker, never 0).
    """
    p = np.asarray(pred, dtype=float)
    y = np.asarray(truth, dtype=float)
    if p.shape != y.shape:
        raise AnalysisError("shape mismatch: pred %s vs truth %s" % (p.shape, y.shape))
    if p.size == 0:
        raise AnalysisError("empty input")
    if not (np.isfinite(p).all() and np.isfinite(y).all()):
        raise AnalysisError("non-finite values in metric input")
    err = p - y
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err ** 2).mean()))
    mask = np.abs(y) >= MAPE_MASK_THRESHOLD
    masked_out = int(p.size - mask.sum())
    if mask.any():
        mape = float(100.0 * (np.abs(err[mask]) / np.abs(y[mask])).mean())
    else:
        mape = None
    return {"MAE": mae, "RMSE": rmse, "MAPE": mape, "mape_masked_count": masked_out}


def heterogeneity_D(X) -> float:
    """Mean squared pairwise distance between rows, via the closed form
    2*(mean ||x_i||^2 - ||mean x||^2)."""
    x = np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 1:
        raise AnalysisError("need at least one row")
    sq = float((x ** 2).sum(axis=1).mean())
    mu = x.mean(axis=0)
    return 2.0 * (sq - float(mu @ mu))


@dataclass(frozen=True)
class DispersionReport:
    """Exact decomposition of the dispersion shift D(X+P) - D(X).

    The shift splits into the pure prompt-spread term (the claimed lower
    bound, always >= 0) plus a cross-covariance term between rows of X and
    P; the claimed inequality D_after >= D_before holds exactly when the
    cross term is nonnegative.  `residual` is the identity check.
    """

    D_before: float
    D_after: float
    paper_rhs: float
    cross_term: float
    residual: float
    inequality_held: bool


def dispersion_decomposition(X, P) -> DispersionReport:
    x = np.asarray(X, dtype=float)
    p = np.asarray(P, dtype=float)
    if x.ndim == 1:
        x, p = x[:, None], p[:, None]
    if x.shape != p.shape:
        raise AnalysisError("X and P shapes differ: %s vs %s" % (x.shape, p.shape))
    d_before = heterogeneity_D(x)
    d_after = heterogeneity_D(x + p)
    mu_x = x.mean(axis=0)
    mu_p = p.mean(axis=0)
    rhs = heterogeneity_D(p)
    cross = 4.0 * (float((x * p).sum(axis=1).mean()) - float(mu_x @ mu_p))
    residual = (d_after - d_before) - rhs - cross
    return DispersionReport(D_before=d_before, D_after=d_after, paper_rhs=rhs,
                            cross_term=cross, residual=residual,
                            inequality_held=d_after >= d_before)


@dataclass(frozen=True)
class SpectralReport:
    singular_values: tuple
    cumulative_ratio: tuple  # None when the matrix is zero
    rank_k_error: float
    k: int


def svd_cumulative(P, k: int | None = None) -> SpectralReport:
    """Singular spectrum, normalized cumulative mass, best-rank-k error.

    rank_k_error is the Frobenius distance to the best rank-k truncation,
    sqrt(sum of squared discarded singular values).
    """
    p = np.asarray(P, dtype=float)
    if p.ndim != 2:
        raise AnalysisError("need a 2-D matrix")
    sigma = np.linalg.svd(p, compute_uv=False)
    total = float(sigma.sum())
    if total > 0:
        ratios = tuple(float(v) for v in np.cumsum(sigma) / total)
    else:
        ratios = None
    if k is None:
        k = min(p.shape) // 2 or 1
    if k < 1:
        raise AnalysisError("k must be >= 1, got %d" % k)
    err = float(np.sqrt((sigma[k:] ** 2).sum()))
    return SpectralReport(singular_values=tuple(float(v) for v in sigma),
                          cumulative_ratio=ratios, rank_k_error=err, k=k)


def best_rank_k(P, k: int) -> np.ndarray:
    """Truncated-SVD reconstruction (the attainability floor)."""
    u, s, vt = np.linalg.svd(np.asarray(P, dtype=float), full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def random_projection_probe(P, k: int, epsilon: float, trials: int,
                            seed: int = 0) -> dict:
    """Monte-Carlo check of the random-projection factorization construction.

    Each trial draws a k x n projection with N(0, 1/k) entries, forms the
    factors A = Phi^T and B = Phi @ P, and records the relative Frobenius
    error ||P - AB||_F / ||P||_F.  The report carries the empirical success
    rate at epsilon, error quantiles, the best-rank-k SVD floor, and a note:
    for k < n the projector Phi^T Phi has rank k, so ||I - Phi^T Phi||_2 >= 1
    and the spectral-norm route cannot certify epsilon < 1.
    """
    p = np.asarray(P, dtype=float)
    if trials < 1 or k < 1:
        raise AnalysisError("trials and k must be >= 1")
    n = p.shape[0]
    norm = float(np.linalg.norm(p))
    if norm == 0:
        raise AnalysisError("zero matrix has no relative error")
    floor = float(np.linalg.norm(p - best_rank_k(p, k))) / norm
    errors = []
    for trial in range(trials):
        rng = rng_stream(seed, "probe", trial)
        phi = rng.standard_normal((k, n)) / np.sqrt(k)
        ab = phi.T @ (phi @ p)
        errors.append(float(np.linalg.norm(p - ab)) / norm)
    errors_arr = np.array(errors)
    qs = np.quantile(errors_arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "k": k,
        "epsilon": epsilon,
        "trials": trials,
        "empirical_success_rate": float((errors_arr <= epsilon).mean()),
        "error_quantiles": {"min": qs[0], "q25": qs[1], "median": qs[2],
                            "q75": qs[3], "max": qs[4]},
        "svd_floor": floor,
        "errors": errors,
        "spectral_obstruction": (
            None if k >= n else
            "rank(Phi^T Phi) = k < n, so ||I - Phi^T Phi||_2 >= 1; the"
            " spectral-norm bound cannot certify epsilon < 1 at this size"),
    }
