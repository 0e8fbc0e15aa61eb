"""Diagnostics on 2x2 deformation matrices: closed-form SVD, distance to the
rotation group, triangle orientation checks, and the structural
verifications (six-bond coercivity inequality, zero-energy laminate,
rigidity ratio).
"""

import functools

import numpy as np

from .energy import cell_dets
from .lattice import rot

SQRT3 = np.sqrt(3.0)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def triangle_dets(graph, config):
    """det of the affine deformation gradient on every triangle, signed.

    Positive on orientation-preserving cells; the reference configuration
    gives +1 on every triangle.
    """
    u = np.asarray(config, dtype=float)
    a, b, c = graph.tris[:, 0], graph.tris[:, 1], graph.tris[:, 2]
    return cell_dets(u[b] - u[a], u[c] - u[a], graph.eps)


def det_summary(graph, config):
    """(per-triangle dets, min det, count of nonpositive dets)."""
    dets = triangle_dets(graph, config)
    return dets, float(dets.min()), int(np.sum(dets <= 0.0))


class Svd2:
    """Singular value decomposition of a 2x2 matrix, a = p1 @ diag(sigma) @ p2.

    sigma is ascending (sigma[0] <= sigma[1], both >= 0); p1 and p2 are
    orthogonal (possibly reflections).
    """

    def __init__(self, sigma, p1, p2):
        self.sigma = sigma
        self.p1 = p1
        self.p2 = p2

    def reconstruct(self):
        return self.p1 @ np.diag(self.sigma) @ self.p2


def _singular_values(a):
    """Closed-form numbers of a (..., 2, 2) stack: the block coordinates
    e, f, g, h of svd2 and the signed singular values q - r <= q + r
    (q - r carries the sign of det a)."""
    e = (a[..., 0, 0] + a[..., 1, 1]) / 2.0
    f = (a[..., 0, 0] - a[..., 1, 1]) / 2.0
    g = (a[..., 1, 0] + a[..., 0, 1]) / 2.0
    h = (a[..., 1, 0] - a[..., 0, 1]) / 2.0
    q = np.hypot(e, h)
    r = np.hypot(f, g)
    return e, f, g, h, q - r, q + r


def svd2(a):
    """Closed-form SVD of a 2x2 matrix (no iteration).

    Writing a in the basis {I, J} blocks: with e = (a11+a22)/2,
    f = (a11-a22)/2, g = (a21+a12)/2, h = (a21-a12)/2 the singular values
    are q+r and |q-r| for q = hypot(e, h), r = hypot(f, g), and the
    rotation angles come from atan2 of the same four numbers.
    """
    a = np.asarray(a, dtype=float)
    e, f, g, h, s_small, s_big = _singular_values(a)
    theta_u = (np.arctan2(h, e) + np.arctan2(g, f)) / 2.0
    theta_v = (np.arctan2(h, e) - np.arctan2(g, f)) / 2.0
    # a = rot(theta_u) @ diag(s_big, s_small) @ rot(theta_v); reorder to
    # ascending nonnegative sigma with orthogonal (reflecting) factors
    p1 = rot(theta_u) @ _SWAP
    p2 = _SWAP @ rot(theta_v)
    if s_small < 0.0:
        p1 = p1 @ np.diag([-1.0, 1.0])
    return Svd2(np.array([abs(s_small), s_big]), p1, p2)


def singular_values(a):
    """Singular values of a 2x2 matrix, ascending."""
    return svd2(a).sigma


def dist_so2_squared(a):
    """Squared Frobenius distance from a 2x2 matrix to the rotation group.

    (sigma1 - 1)^2 + (sigma2 - 1)^2 when det a >= 0; when det a < 0 the
    small singular value enters as (sigma1 + 1)^2 (one direction must be
    flipped, cheapest along the weakest axis).  A (..., 2, 2) stack gives
    an array of shape (...); a single matrix gives a float.
    """
    a = np.asarray(a, dtype=float)
    *_, s_small, s_big = _singular_values(a)
    s1 = np.abs(s_small)
    off1 = np.where(np.linalg.det(a) >= 0.0, s1 - 1.0, s1 + 1.0)
    d2 = np.square(off1) + np.square(s_big - 1.0)
    return float(d2) if d2.ndim == 0 else d2


def dist_so2(a, p=2.0):
    """dist(a, SO(2))^p for a 2x2 matrix."""
    return dist_so2_squared(a) ** (p / 2.0)


# angles per block of the dist_so2_grid scan: two buffers of this many
# doubles stay in cache while the tables stream past
GRID_BLOCK = 1 << 15


@functools.cache
def _angle_table():
    """cos and sin of the 10^6-point angle grid of dist_so2_grid (read-only)."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    table = np.cos(theta), np.sin(theta)
    for column in table:
        column.flags.writeable = False
    return table


def dist_so2_grid(a):
    """Brute-force min over a uniform 10^6-point angle grid of
    |a - R(theta)|_F^2.

    Independent cross-check for dist_so2_squared.  |a - R|^2 = |a|^2 + 2
    - 2*(t cos theta + d sin theta) with t = tr a, d = a21 - a12, so the
    scan needs only t*cos + d*sin over the cached cos/sin tables, taken
    GRID_BLOCK angles at a time into two reused buffers.
    """
    a = np.asarray(a, dtype=float)
    t = a[0, 0] + a[1, 1]
    d = a[1, 0] - a[0, 1]
    cos, sin = _angle_table()
    proj = np.empty(GRID_BLOCK)
    term = np.empty(GRID_BLOCK)
    peaks = []
    for start in range(0, len(cos), GRID_BLOCK):
        n = min(GRID_BLOCK, len(cos) - start)
        p = np.multiply(t, cos[start:start + n], out=proj[:n])
        p += np.multiply(d, sin[start:start + n], out=term[:n])
        peaks.append(p.max())
    return float((a * a).sum() + 2.0 - 2.0 * np.max(peaks))


def six_bond_sum(sigma1, sigma2, theta):
    """sum_k (|diag(s1,s2) R(theta + k pi/3) e1| - 1)^2 over the six bond
    directions, elementwise on arrays."""
    total = 0.0
    for k in range(6):
        angle = theta + k * (np.pi / 3.0)
        length = np.sqrt(
            (sigma1 * np.cos(angle)) ** 2 + (sigma2 * np.sin(angle)) ** 2
        )
        total += (length - 1.0) ** 2
    return total


def _check_sample_count(n_samples):
    # a minimum over no samples is no check: it would read as a pass
    if n_samples < 1:
        raise ValueError("need at least one sample, got %r" % n_samples)


def check_lemma_a1(n_samples=100_000, seed=0):
    """Sampled verification of 14 * six_bond_sum >= (s1-1)^2 + (s2-1)^2.

    Draws (sigma1, sigma2) with 0 <= sigma1 <= sigma2 <= 10 and theta in
    [0, pi/3).  Returns (violations, min_slack), slack = LHS - RHS.
    """
    _check_sample_count(n_samples)
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 10.0, size=n_samples)
    hi = rng.uniform(0.0, 10.0, size=n_samples)
    sigma1 = np.minimum(lo, hi)
    sigma2 = np.maximum(lo, hi)
    theta = rng.uniform(0.0, np.pi / 3.0, size=n_samples)
    lhs = 14.0 * six_bond_sum(sigma1, sigma2, theta)
    rhs = (sigma1 - 1.0) ** 2 + (sigma2 - 1.0) ** 2
    slack = lhs - rhs
    return int(np.sum(slack < 0.0)), float(slack.min())


def laminate_matrices():
    """The zero-energy four-matrix laminate with equal weights 1/4."""
    a1 = np.diag([1.0, -1.0])
    a2 = np.eye(2)
    return [a1, a2, -a1, -a2], np.full(4, 0.25)


def check_laminate():
    """Verify the laminate: weighted average zero, rank-one connections at
    both lamination levels (second singular value of each difference ~ 0,
    first one nonzero), unit bond images, and zero bond energy per matrix
    (p = 2, psi zero).
    """
    from .energy import BOND_DIRECTIONS, MaterialLaw, w_density

    law = MaterialLaw(p=2.0, psi="zero")
    mats, weights = laminate_matrices()
    average = sum(w * m for w, m in zip(weights, mats))
    diffs = [
        mats[0] - mats[1],
        mats[2] - mats[3],
        0.5 * (mats[0] + mats[1]) - 0.5 * (mats[2] + mats[3]),
    ]
    rank_one_defects = [float(singular_values(d)[0]) for d in diffs]
    rank_one_strengths = [float(singular_values(d)[1]) for d in diffs]
    bond_errs = [
        float(np.abs(np.linalg.norm(BOND_DIRECTIONS @ m.T, axis=1) - 1.0).max())
        for m in mats
    ]
    energies = [w_density(m, law) for m in mats]
    return {
        "average_norm": float(np.abs(average).max()),
        "rank_one_defects": rank_one_defects,
        "rank_one_strengths": rank_one_strengths,
        "max_bond_length_error": max(bond_errs),
        "max_energy": max(energies),
    }


def check_rigidity(law, n_samples=10_000, seed=0):
    """Sampled minimum of w_density(A) / dist(A, SO(2))^p.

    Needs a volumetric term: with psi == zero the density vanishes on all
    of O(2) while the distance to SO(2) does not, and the ratio degenerates
    on the reflection component.  Samples A = R(u) diag(s1, s2) R(v) with
    singular values in [0, 5] and a random sign flip; skips samples with
    dist < 1e-8.  Returns (min_ratio, n_used).

    All samples are drawn at once, in the order of a per-sample loop that
    takes s1, s2, u, v and the flip from one rng.random((n_samples, 5)).
    """
    from .energy import w_density

    if law.psi_name == "zero":
        raise ValueError("rigidity ratio needs a psi term (psi != zero)")
    _check_sample_count(n_samples)
    draws = np.random.default_rng(seed).random((n_samples, 5))
    diag_s = 5.0 * draws[:, :2, None] * np.eye(2)
    rot_u, rot_v = (np.moveaxis(rot(2.0 * np.pi * draws[:, k]), -1, 0) for k in (2, 3))
    mats = rot_u @ diag_s @ rot_v
    flip = draws[:, 4] < 0.5
    mats[flip] = mats[flip] @ np.diag([1.0, -1.0])
    d2 = dist_so2_squared(mats)
    keep = d2 >= 1e-8**2                  # dist below 1e-8 is skipped
    ratio = w_density(mats[keep], law) / d2[keep] ** (law.p / 2.0)
    return float(ratio.min(initial=np.inf)), int(keep.sum())
