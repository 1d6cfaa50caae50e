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


def power_of_two_above(top) -> float:
    """The power of two just above top >= 0, at most 2**1023 (the largest a
    float holds); 1 for a zero or non-finite top.  Dividing by it is exact,
    so moments of x / scale scale back to those of x bit for bit, and
    squares of x / scale cannot overflow."""
    return float(np.ldexp(1.0, min(int(np.frexp(top)[1]), 1023))) if np.isfinite(top) else 1.0


def mae(pred, truth) -> float:
    """Mean absolute error of finite float arrays of one shape, taken of the
    errors divided by `power_of_two_above` the largest one and scaled back:
    errors near the float range do not overflow the sum, and ordinary ones
    give the bits of the plain mean, since the division is exact."""
    abs_err = np.abs(pred - truth)
    scale = power_of_two_above(abs_err.max())
    return float((abs_err / scale).mean() * scale)


def metrics(pred, truth) -> dict:
    """MAE, RMSE, and masked MAPE (%) in original units.

    MAPE averages only over entries with |truth| >= 1e-4; near-zero truth
    explodes the percentage otherwise.  When everything is masked, MAPE is
    None (an undefined marker, never 0).  MAE is `mae`; RMSE averages the
    squared errors divided by `power_of_two_above` their largest |value|,
    so squares of errors past about 1.3e154 do not overflow either.
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
    scale = power_of_two_above(np.abs(err).max())
    rmse = float(np.sqrt(((err / scale) ** 2).mean()) * scale)
    mask = np.abs(y) >= MAPE_MASK_THRESHOLD
    mape = float(100.0 * (np.abs(err[mask]) / np.abs(y[mask])).mean()) if mask.any() else None
    return {"MAE": mae(p, y), "RMSE": rmse, "MAPE": mape}


def _centered(x):
    """x minus its mean row, the mean's rounding error removed by a second pass.

    A common offset c makes the first mean err by about c * 1e-16; the
    centered rows' own mean is that error, to their precision.
    """
    xc = x - x.mean(axis=0)
    xc -= xc.mean(axis=0)
    return xc


def heterogeneity_D(X) -> float:
    """Mean squared pairwise distance between rows, via the closed form
    2 * mean ||x_i - mean x||^2.

    The rows are centered first, so an offset common to all rows costs
    no digits and D is never negative.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 1:
        raise AnalysisError("need at least one row")
    return 2.0 * float((_centered(x) ** 2).sum(axis=1).mean())


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
    rhs = heterogeneity_D(p)
    cross = 4.0 * float((_centered(x) * _centered(p)).sum(axis=1).mean())
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
