"""Quasirandom point sets on the unit sphere (fixed-seed, reproducible).

scipy.stats, which holds the Sobol sampler, would be the package's slowest
import, so it is imported on the first call of `sphere_points`, not with the
package.  No solve path calls `sphere_points`: the denominator check of
`rational_upper_bound` draws its own numpy sample.
"""

from __future__ import annotations

import math

import numpy as np

from .polynomials import as_index


def sphere_points(m, n, seed=0):
    """m scrambled-Sobol points on S^{n-1}, deterministic for a given seed.

    Uniformity comes from pushing Sobol samples through the Gaussian inverse
    CDF and normalizing; the spherical Gaussian is rotation invariant.  The
    first call imports scipy.stats and scipy.special.
    """
    m, n = as_index(m, "point count", 1), as_index(n, "dimension", 1)
    from scipy.special import ndtri
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    # draw a power-of-two block to keep the Sobol set balanced
    u = sampler.random_base2(max(1, math.ceil(math.log2(m))))[:m]
    g = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]
