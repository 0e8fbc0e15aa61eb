"""Diagnostics on 2x2 deformation matrices: closed-form SVD, distance to the
rotation group, triangle orientation checks, and the structural
verifications (six-bond coercivity inequality, zero-energy laminate,
rigidity ratio).
"""

import functools

import numpy as np

from .energy import cell_dets, cell_edges
from .lattice import rot


def triangle_dets(graph, config, cells=None):
    """det of the affine deformation gradient on every triangle, signed, or
    on the cells (3, K) given, each a vertex triple of LatticeGraph.tris.

    Positive on orientation-preserving cells; the reference configuration
    gives +1 on every triangle.
    """
    d1, d2 = cell_edges(graph, np.asarray(config, dtype=float), cells)
    return cell_dets(d1, d2, graph.eps)


def det_summary(graph, config, half=None):
    """(min det, count of nonpositive dets) of the triangles.

    With half, a lattice.MirrorLayout, the triangles are read as half's
    cells and then the mirror images of those that count twice
    (MirrorLayout.image_cells): every cell of the lattice once, each in the
    vertex order of LatticeGraph.tris, so the summary is the full lattice's
    to the bit, for any config, and the graph builds no tris table.
    """
    if half is None:
        parts = [triangle_dets(graph, config)]
    else:
        parts = [triangle_dets(graph, config, half.cells)]
        parts.append(triangle_dets(graph, config, half.image_cells(graph)))
    # N = 1 has no cell off the diagonal, so no image to take a minimum of
    return (float(np.min([dets.min() for dets in parts if len(dets)])),
            sum(int(np.count_nonzero(dets <= 0.0)) for dets in parts))


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
        return (self.p1 * self.sigma) @ self.p2


def _singular_values(a00, a01, a10, a11):
    """Closed-form numbers of 2x2 matrices from their entries (a stack's arrays
    or one matrix's Python floats): e, f, g, h of svd2 and the signed singular
    values q - r <= q + r; q - r carries the sign of det a = q^2 - r^2."""
    e = (a00 + a11) / 2.0
    f = (a00 - a11) / 2.0
    g = (a10 + a01) / 2.0
    h = (a10 - a01) / 2.0
    q = np.hypot(e, h)
    r = np.hypot(f, g)
    return e, f, g, h, q - r, q + r


def svd2(a):
    """Closed-form SVD of one 2x2 matrix (no iteration); other shapes raise.

    Writing a in the basis {I, J} blocks: with e = (a11+a22)/2,
    f = (a11-a22)/2, g = (a21+a12)/2, h = (a21-a12)/2 the singular values
    are q+r and |q-r| for q = hypot(e, h), r = hypot(f, g), and the
    rotation angles come from atan2 of the same four numbers.  The numpy
    ufuncs run on Python floats: math's libm need not give their bits.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("svd2 takes one 2x2 matrix, got shape %s" % (a.shape,))
    (a00, a01), (a10, a11) = a.tolist()
    e, f, g, h, s_small, s_big = _singular_values(a00, a01, a10, a11)
    alpha, beta = np.arctan2(h, e), np.arctan2(g, f)
    theta_u, theta_v = (alpha + beta) / 2.0, (alpha - beta) / 2.0
    c_u, s_u = np.cos(theta_u), np.sin(theta_u)
    c_v, s_v = np.cos(theta_v), np.sin(theta_v)
    # a = rot(theta_u) @ diag(q + r, q - r) @ rot(theta_v) reordered: p1 is
    # rot(theta_u) with its columns swapped and column 0 negated if q - r < 0
    flip = -1.0 if s_small < 0.0 else 1.0
    p1 = np.array([[-flip * s_u, c_u], [flip * c_u, s_u]])
    p2 = np.array([[s_v, c_v], [c_v, -s_v]])
    return Svd2(np.array([abs(s_small), s_big]), p1, p2)


def dist_so2_squared(a):
    """Squared Frobenius distance from a 2x2 matrix to the rotation group.

    (sigma1 - 1)^2 + (sigma2 - 1)^2 when det a >= 0; when det a < 0 the
    small singular value enters as (sigma1 + 1)^2 (one direction must be
    flipped, cheapest along the weakest axis); the sign of det a is that of
    q - r, and at q = r both branches agree.  A (..., 2, 2) stack gives an
    array of shape (...); a single matrix gives a float.
    """
    a = np.asarray(a, dtype=float)
    *_, s_small, s_big = _singular_values(*(a[..., r, c] for r in (0, 1) for c in (0, 1)))
    s1 = np.abs(s_small)
    off1 = np.where(s_small >= 0.0, s1 - 1.0, s1 + 1.0)
    d2 = np.square(off1) + np.square(s_big - 1.0)
    return float(d2) if d2.ndim == 0 else d2


# the sampled checks and dist_so2_grid's full scan take this many samples or
# grid angles at a time, so their working memory does not grow with the count
BLOCK = 2048


def _blocks(n):
    # (start, stop) of each block of BLOCK items, the last one shorter
    return ((i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


# the angle grid of dist_so2_grid: theta_k = k * GRID_STEP for k = 0 ..
# GRID_SIZE - 1, the values of np.linspace(0, 2 pi, GRID_SIZE, endpoint=False)
GRID_SIZE = 1_000_000
GRID_STEP = 2.0 * np.pi / GRID_SIZE
# the coarse pass of dist_so2_grid reads every COARSE_STRIDE-th grid angle
COARSE_STRIDE = 64
# a coarse peak below this leaves the window's margin near the subnormal
# rounding of t cos + d sin, so dist_so2_grid scans the full grid instead
_MIN_COARSE_PEAK = 1e-290


def grid_cos_sin(k):
    """cos and sin of the grid angles k * GRID_STEP for an index array k.

    Bit for bit the cos and sin of the linspace grid at those indices
    (tests/test_analysis.py checks every index and a sweep of windows).
    """
    theta = k * GRID_STEP
    return np.cos(theta), np.sin(theta)


@functools.cache
def coarse_table():
    """cos and sin of every COARSE_STRIDE-th grid angle (read-only)."""
    table = grid_cos_sin(np.arange(0, GRID_SIZE, COARSE_STRIDE))
    for column in table:
        column.flags.writeable = False
    return table


def _projections(t, d, cos, sin):
    # t cos + d sin, rounded as the full scan rounds it
    proj = t * cos
    proj += d * sin
    return proj


def dist_so2_grid(a):
    """Brute-force min over a uniform 10^6-point angle grid of
    |a - R(theta)|_F^2.

    Independent cross-check for dist_so2_squared.  |a - R|^2 = |a|^2 + 2
    - 2*p(theta) with p = t cos theta + d sin theta, t = tr a and d = a21 -
    a12, so the minimum needs the maximum of p over the grid theta_k = k *
    GRID_STEP, the points of np.linspace(0, 2 pi, 10^6, endpoint=False).

    Two passes find that maximum.  The coarse pass evaluates p on every
    s-th grid angle (s = COARSE_STRIDE) from a cached table; the exact pass
    evaluates p on every grid angle within s + 2 steps of the coarse peak,
    indices taken mod 10^6 so that the window wraps at 2 pi, and returns
    its maximum.  The window holds the grid maximum: p = R cos(theta -
    theta*) is a single sinusoid, the coarse peak lies within s/2 steps of
    theta*, and every grid angle outside the window lies at least about
    R (s dtheta)^2 / 8 (2e-8 R for s = 64) below the peak, far above the
    rounding of p.  So the result is bit for bit that of the full scan.
    The peak is located from grid values alone, not from atan2 or hypot of
    t and d, which would borrow the closed form this oracle checks.

    The full scan runs instead when t or d is not finite, or when the coarse
    peak (about R) is below _MIN_COARSE_PEAK, where the margin nears the
    subnormal rounding of p (diag(1, -1), with t = d = 0, is one such
    input).  It takes BLOCK grid angles at a time and the max of the block
    maxima, which is the whole scan's max to the bit, in a fixed working
    set rather than 32 MB of grid-long arrays.
    """
    a = np.asarray(a, dtype=float)
    t = a[0, 0] + a[1, 1]
    d = a[1, 0] - a[0, 1]
    peak = None
    if np.isfinite(t) and np.isfinite(d):
        coarse = _projections(t, d, *coarse_table())
        top = coarse.argmax()
        if coarse[top] > _MIN_COARSE_PEAK:
            reach = COARSE_STRIDE + 2
            k = (top * COARSE_STRIDE + np.arange(-reach, reach + 1)) % GRID_SIZE
            peak = _projections(t, d, *grid_cos_sin(k)).max()
    if peak is None:
        peak = np.max([_projections(t, d, *grid_cos_sin(np.arange(i, j))).max()
                       for i, j in _blocks(GRID_SIZE)])
    return float((a * a).sum() + 2.0 - 2.0 * peak)


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


def _lemma_a1_draws(n_samples, seed):
    """The (lo, hi, theta) draws of check_lemma_a1, a block at a time.

    Drawn whole, lo, hi and theta are n_samples uniforms each, one stream
    after another from default_rng(seed).  Three copies of its bit
    generator, advanced by 0, n_samples and 2 n_samples outputs, draw them
    block by block: a float64 uniform takes one 64-bit output, so every
    block holds the values that the whole streams held there.
    """
    state = np.random.default_rng(seed).bit_generator.state
    streams = []
    for k in range(3):
        bits = np.random.PCG64()
        bits.state = state
        streams.append(np.random.Generator(bits.advance(k * n_samples)))
    lo, hi, theta = streams
    for i, j in _blocks(n_samples):
        yield lo.uniform(0.0, 10.0, j - i), hi.uniform(0.0, 10.0, j - i), \
            theta.uniform(0.0, np.pi / 3.0, j - i)


def check_lemma_a1(n_samples=100_000, seed=0):
    """Sampled verification of 14 * six_bond_sum >= (s1-1)^2 + (s2-1)^2.

    Draws (sigma1, sigma2) with 0 <= sigma1 <= sigma2 <= 10 and theta in
    [0, pi/3).  Returns (violations, min_slack), slack = LHS - RHS.

    The samples are evaluated BLOCK at a time from positioned draws
    (_lemma_a1_draws), so the working memory is a fixed size and every
    sample, and so the result, is that of drawing and evaluating them all
    at once.
    """
    _check_sample_count(n_samples)
    violations, minima = 0, []
    for lo, hi, theta in _lemma_a1_draws(n_samples, seed):
        sigma1 = np.minimum(lo, hi)
        sigma2 = np.maximum(lo, hi)
        lhs = 14.0 * six_bond_sum(sigma1, sigma2, theta)
        rhs = (sigma1 - 1.0) ** 2 + (sigma2 - 1.0) ** 2
        slack = lhs - rhs
        violations += int(np.sum(slack < 0.0))
        minima.append(slack.min())
    return violations, float(np.min(minima))


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
    diffs = [mats[0] - mats[1], mats[2] - mats[3],
             0.5 * (mats[0] + mats[1]) - 0.5 * (mats[2] + mats[3])]
    sigmas = np.array([svd2(d).sigma for d in diffs])
    bond_errs = [
        float(np.abs(np.linalg.norm(BOND_DIRECTIONS @ m.T, axis=1) - 1.0).max())
        for m in mats
    ]
    energies = [w_density(m, law) for m in mats]
    return {
        "average_norm": float(np.abs(average).max()),
        "rank_one_defects": sigmas[:, 0].tolist(),
        "rank_one_strengths": sigmas[:, 1].tolist(),
        "max_bond_length_error": max(bond_errs),
        "max_energy": max(energies),
    }


def _rigidity_samples(draws):
    # the matrices of check_rigidity from rows (s1/5, s2/5, u/2pi, v/2pi,
    # flip), freeing the rotations before the density takes its temporaries
    rot_u, rot_v = (np.moveaxis(rot(2.0 * np.pi * draws[:, k]), -1, 0) for k in (2, 3))
    mats = (rot_u * (5.0 * draws[:, None, :2])) @ rot_v   # R(u)'s columns scaled
    mats[draws[:, 4] < 0.5, :, 1] *= -1.0                 # A diag(1, -1)
    return mats


def check_rigidity(law, n_samples=10_000, seed=0):
    """Sampled minimum of w_density(A) / dist(A, SO(2))^p.

    Needs a volumetric term: with psi == zero the density vanishes on all
    of O(2) while the distance to SO(2) does not, and the ratio degenerates
    on the reflection component.  Samples A = R(u) diag(s1, s2) R(v) with
    singular values in [0, 5] and a random sign flip; skips samples with
    dist < 1e-8.  Returns (min_ratio, n_used); when no sample is kept the
    minimum is no check, and it raises ValueError rather than read as a pass.

    The samples are drawn BLOCK at a time by rng.random((m, 5)), whose rows
    are those of one rng.random((n_samples, 5)), in the order of a
    per-sample loop that takes s1, s2, u, v and the flip from each row; the
    working memory is a fixed size, and the result that of one stack.
    """
    from .energy import w_density

    if law.psi_name == "zero":
        raise ValueError("rigidity ratio needs a psi term (psi != zero)")
    _check_sample_count(n_samples)
    rng = np.random.default_rng(seed)
    used, minima = 0, []
    for i, j in _blocks(n_samples):
        mats = _rigidity_samples(rng.random((j - i, 5)))
        d2 = dist_so2_squared(mats)
        keep = d2 >= 1e-8**2                  # dist below 1e-8 is skipped
        if keep.any():
            ratio = w_density(mats[keep], law) / d2[keep] ** (law.p / 2.0)
            used += int(keep.sum())
            minima.append(ratio.min())
    # no kept sample: numpy's zero-size ValueError
    return float(np.min(minima)), used
