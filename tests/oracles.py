"""Reference implementations that tests compare the program against."""
import numpy as np


def heterogeneity_D_double_sum(X) -> float:
    """O(n^2 d) definition of the dispersion; oracle for the closed form."""
    x = np.asarray(X, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        total += float(((x[i] - x) ** 2).sum())
    return total / (n * n)


def neutralize_cross_covariance(X, P) -> np.ndarray:
    """Center P and remove its sample cross-covariance with centered X.

    After this projection the dispersion shift equals the prompt-spread
    term exactly, which is where the >= 0 claim is literally true.
    """
    x = np.asarray(X, dtype=float)
    p = np.asarray(P, dtype=float)
    xc = x - x.mean(axis=0)
    pc = p - p.mean(axis=0)
    # Least-squares removal of the component of P lying in the row space of Xc.
    coef, *_ = np.linalg.lstsq(xc, pc, rcond=None)
    return pc - xc @ coef
