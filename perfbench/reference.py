"""Reference values computed apart from overlapfem: closed forms and vertex counts.

Nothing here imports overlapfem; the checks in ``workloads.py`` compare the
program's CSV output against these.
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import jvp, yvp


def annulus_poisson_vertices(m):
    """Total vertices of the annulus2d_poisson pair at refinement m.

    Inner annulus: 5m rings of cells on 72m sectors; outer annulus:
    2(3m + 1) rings on the same sectors; each has (rings + 1) circles.
    """
    return 72 * m * ((5 * m + 1) + (6 * m + 3))


def annulus_laplace_vertices(m):
    """Total vertices of the annulus2d_laplace pair: 5m and 4m rings on 74m sectors."""
    return 74 * m * ((5 * m + 1) + (4 * m + 1))


def box_profile(x, f, a, b, length=1.5):
    """Exact solution of -u'' = f on [0, length] with u(0) = a, u(length) = b.

    Extended constantly in y and z it solves the 3D problem with natural
    conditions on the other four faces of the union of the two boxes.
    """
    x = np.asarray(x, dtype=float)
    return f * x * (length - x) / 2.0 + a + (b - a) * x / length


def _neumann_radial_roots(n, r_in, r_out, k_max, step=1e-3):
    """Roots k in (0, k_max) of J'_n(k r_in) Y'_n(k r_out) - J'_n(k r_out) Y'_n(k r_in)."""

    def cross(k):
        return jvp(n, k * r_in) * yvp(n, k * r_out) - jvp(n, k * r_out) * yvp(n, k * r_in)

    ks = np.arange(step, k_max, step)
    g = cross(ks)
    flips = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    return [brentq(cross, ks[i], ks[i + 1], xtol=1e-14) for i in flips]


def annulus_neumann_eigenvalues(count, r_in=1.0, r_out=2.0):
    """Smallest ``count`` eigenvalues of -laplace on r_in <= r <= r_out with
    zero normal derivative on both circles, repeated by multiplicity.

    Separation of variables gives u = R(r) cos(n theta) and R(r) sin(n theta)
    (multiplicity 2 for n >= 1), with R a combination of J_n(k r) and
    Y_n(k r) whose derivative vanishes at both radii; lambda = k^2. The
    constant mode gives lambda = 0.
    """
    k_max = 1.0
    while True:
        values = [0.0]
        # Angular order n has no root below n / r_out, so larger n cannot
        # contribute below k_max.
        for n in range(int(k_max * r_out) + 2):
            for k in _neumann_radial_roots(n, r_in, r_out, k_max):
                values.extend([k * k] * (1 if n == 0 else 2))
        if len(values) >= count:
            return sorted(values)[:count]
        k_max *= 2.0
