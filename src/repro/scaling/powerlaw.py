"""Saturating power-law fits: ``L(x) = a * x**(-alpha) + c``.

The workhorse of scaling-law analysis (Kaplan et al. 2020).  The additive
floor ``c`` is what produces the "diminishing returns" the paper observes
for GNN model scaling: once ``a x^-alpha`` falls below ``c`` the curve
flattens on a log axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.tensor.rng import rng as make_rng

# Exponents searched by ``fit_power_law``; a bounded refinement around the
# best grid point supplies the precision.
_ALPHA_GRID = np.linspace(-2.0, 4.0, 121)


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted parameters of ``L(x) = a x^-alpha + c``."""

    a: float
    alpha: float
    c: float
    r_squared: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.a * x**-self.alpha + self.c

    def __str__(self) -> str:
        return (
            f"L(x) = {self.a:.4g} * x^(-{self.alpha:.4f}) + {self.c:.4g}"
            f"  (R^2 = {self.r_squared:.4f})"
        )


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(((y - predicted) ** 2).sum())
    total = float(((y - y.mean()) ** 2).sum())
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


def fit_power_law(x, y, floor: bool = True) -> PowerLawFit:
    """Least-squares fit of a (floored) power law.

    For a fixed exponent the model is linear in ``a`` and ``c``, so those
    come from a non-negative least-squares solve (which also enforces their
    positivity) and only ``alpha`` is searched: a coarse grid picks the
    basin, a bounded scalar minimization refines it.  This finds the global
    optimum even when the floor sits right under the data, where a joint
    search over all three parameters stalls.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a power law")
    if (x <= 0).any():
        raise ValueError("x must be positive")

    # Scaling x by its minimum pins the power-law column to 1 at the
    # smallest x, comparable to the constant column, whatever the span of x.
    x_rel = x / x.min()

    def solve(alpha: float) -> tuple[np.ndarray, float]:
        basis = x_rel**-alpha
        design = np.column_stack([basis, np.ones_like(x)]) if floor else basis[:, None]
        coef, residual_norm = optimize.nnls(design, y)
        return coef, residual_norm**2

    grid = _ALPHA_GRID
    losses = [solve(alpha)[1] for alpha in grid]
    i = int(np.argmin(losses))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    refined = optimize.minimize_scalar(
        lambda alpha: solve(alpha)[1], bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    alpha = float(refined.x) if refined.fun <= losses[i] else float(grid[i])
    coef, _ = solve(alpha)
    a = float(coef[0]) * x.min() ** alpha
    c = float(coef[1]) if floor else 0.0
    fit = PowerLawFit(a, alpha, c, 0.0)
    return PowerLawFit(a, alpha, c, _r_squared(y, fit.predict(x)))


def bootstrap_exponent(
    x, y, num_resamples: int = 200, seed: int = 0, floor: bool = True
) -> tuple[float, float]:
    """Bootstrap (2.5 %, 97.5 %) confidence interval on the exponent."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    generator = make_rng(seed)
    exponents = []
    for _ in range(num_resamples):
        idx = generator.integers(0, x.size, size=x.size)
        if np.unique(x[idx]).size < 3:
            continue
        try:
            exponents.append(fit_power_law(x[idx], y[idx], floor=floor).alpha)
        except ValueError:
            continue
    if not exponents:
        return float("nan"), float("nan")
    low, high = np.percentile(exponents, [2.5, 97.5])
    return float(low), float(high)
