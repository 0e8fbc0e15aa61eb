"""Closed-form SVD, distance to SO(2), and the structural inequality checks."""

import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from disclat import analysis, energy
from disclat.analysis import (
    COARSE_STRIDE,
    GRID_SIZE,
    GRID_STEP,
    check_laminate,
    check_lemma_a1,
    check_rigidity,
    det_summary,
    dist_so2_grid,
    dist_so2_squared,
    grid_cos_sin,
    laminate_matrices,
    six_bond_sum,
    svd2,
    triangle_dets,
)
from disclat.cli import main
from disclat.energy import MaterialLaw, w_density
from disclat.experiments import folded_init
from disclat.lattice import LatticeGraph, rot
from test_energy import cell_gradient


def test_svd2_identity():
    dec = svd2(np.eye(2))
    np.testing.assert_allclose(dec.sigma, [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(dec.reconstruct(), np.eye(2), atol=1e-14)


def test_svd2_rotation_invariance():
    a = np.diag([3.0, 1.0]) @ rot(0.7)
    np.testing.assert_allclose(svd2(a).sigma, [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(svd2(rot(1.2) @ a).sigma, [1.0, 3.0], atol=1e-12)


def test_svd2_random_against_eigensolve():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
        dec = svd2(a)
        s1, s2 = dec.sigma
        assert 0.0 <= s1 <= s2
        scale = max(1.0, np.abs(a).max())
        assert np.abs(dec.reconstruct() - a).max() <= 1e-12 * scale
        # independent oracle: sqrt of the eigenvalues of A^T A
        ev = np.linalg.eigvalsh(a.T @ a)
        np.testing.assert_allclose(dec.sigma, np.sqrt(np.maximum(ev, 0.0)),
                                   atol=1e-10 * scale)
        # orthogonal factors and a consistent determinant factorization
        for p in (dec.p1, dec.p2):
            np.testing.assert_allclose(p @ p.T, np.eye(2), atol=1e-12)
        det_prod = np.linalg.det(dec.p1) * np.linalg.det(dec.p2) * s1 * s2
        assert abs(det_prod - np.linalg.det(a)) <= 1e-10 * scale**2


def stack_singular_values(a):
    """e, f, g, h, q - r and q + r of a (..., 2, 2) stack, read from its
    entries as the oracles below read them."""
    e = (a[..., 0, 0] + a[..., 1, 1]) / 2.0
    f = (a[..., 0, 0] - a[..., 1, 1]) / 2.0
    g = (a[..., 1, 0] + a[..., 0, 1]) / 2.0
    h = (a[..., 1, 0] - a[..., 0, 1]) / 2.0
    q = np.hypot(e, h)
    r = np.hypot(f, g)
    return e, f, g, h, q - r, q + r


def loop_svd2(a):
    """svd2 as it was before its closed form on Python floats, kept as its
    oracle: each atan2 evaluated twice, the factors built by products with
    a permutation, and its reconstruct p1 @ diag(sigma) @ p2."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.asarray(a, dtype=float)
    e, f, g, h, s_small, s_big = stack_singular_values(a)
    theta_u = (np.arctan2(h, e) + np.arctan2(g, f)) / 2.0
    theta_v = (np.arctan2(h, e) - np.arctan2(g, f)) / 2.0
    p1 = rot(theta_u) @ swap
    p2 = swap @ rot(theta_v)
    if s_small < 0.0:
        p1 = p1 @ np.diag([-1.0, 1.0])
    sigma = np.array([abs(s_small), s_big])
    return sigma, p1, p2, p1 @ np.diag(sigma) @ p2


def det_sign_dist_so2_squared(a):
    """dist_so2_squared with the sign of det a read from np.linalg.det, as
    it was before the sign was read from q - r, kept as its oracle."""
    a = np.asarray(a, dtype=float)
    *_, s_small, s_big = stack_singular_values(a)
    s1 = np.abs(s_small)
    with np.errstate(all="ignore"):      # LAPACK's det on subnormal entries
        nonnegative = np.linalg.det(a) >= 0.0
    off1 = np.where(nonnegative, s1 - 1.0, s1 + 1.0)
    return np.square(off1) + np.square(s_big - 1.0)


def _matrix(kind, entries, angle, exponent):
    """A 2x2 matrix of the given kind at the scale 10^exponent."""
    x = np.reshape(entries, (2, 2))
    if kind == "zero":
        x = np.zeros((2, 2))
    elif kind == "rank one":
        x = np.outer(x[0], x[1])
    elif kind == "reflection":
        x = rot(angle) @ np.diag([1.0, -1.0])
    elif kind == "reflected":
        x = rot(angle) @ np.diag(np.abs(x[0])) @ rot(x[1, 0]) @ np.diag([1.0, -1.0])
    elif kind == "rotation":
        x = rot(angle)
    return x * 10.0**exponent


MATRICES = st.builds(
    _matrix,
    st.sampled_from(["general", "zero", "rank one", "reflection", "reflected", "rotation"]),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(-3.0, 3.0),
)


@given(a=MATRICES)
@example(a=np.zeros((2, 2)))
@example(a=-np.zeros((2, 2)))
@example(a=np.eye(2))
@example(a=np.diag([1.0, -1.0]))
@example(a=np.array([[1.0, 2.0], [3.0, 6.0]]))     # rank one
@example(a=np.array([[0.0, 1.0], [0.0, 0.0]]))     # nilpotent
def test_svd2_matches_loop_oracle_bit_for_bit(a):
    dec = svd2(a)
    sigma, p1, p2, product = loop_svd2(a)
    assert dec.sigma.tobytes() == sigma.tobytes()
    assert dec.reconstruct().tobytes() == product.tobytes()
    # the permutation products could turn the sign of a zero, nothing else
    assert np.array_equal(dec.p1, p1) and np.array_equal(dec.p2, p2)


@pytest.mark.parametrize("shape", [(3, 3), (4, 2, 2), (2,), (2, 3)])
def test_svd2_takes_one_matrix(shape):
    a = np.arange(np.prod(shape), dtype=float).reshape(shape) + 1.0
    with pytest.raises(ValueError, match=re.escape("got shape %s" % (shape,))):
        svd2(a)


@given(stack=st.lists(MATRICES, min_size=1, max_size=8))
def test_dist_so2_squared_matches_det_oracle_where_the_signs_agree(stack):
    a = np.array(stack)
    got, want = dist_so2_squared(a), det_sign_dist_so2_squared(a)
    assert [dist_so2_squared(m) for m in a] == got.tolist()
    *_, s_small, s_big = stack_singular_values(a)
    with np.errstate(all="ignore"):
        agree = (np.linalg.det(a) >= 0.0) == (s_small >= 0.0)
    assert got[agree].tobytes() == want[agree].tobytes()
    # the rules part only where det a is zero to rounding, or underflows
    s_small, s_big = s_small[~agree], s_big[~agree]
    assert np.all((np.abs(s_small) <= 1e-13 * s_big) | (s_big < 1e-150))


@given(x=st.floats(-1e3, 1e3), y=st.floats(-1e3, 1e3), line=st.integers(0, 3))
@example(x=0.0, y=0.0, line=0)
def test_exactly_singular_matrices_take_the_nonnegative_branch(x, y, line):
    # a zero row or column: q = r exactly, so q - r = +0 and d2 is
    # (s1 - 1)^2 + (s2 - 1)^2 with s1 = 0, the oracle's bits
    a = np.zeros((2, 2))
    if line < 2:
        a[line] = x, y
    else:
        a[:, line - 2] = x, y
    *_, s_small, s_big = stack_singular_values(a)
    assert s_small == 0.0 and not np.signbit(s_small)
    d2 = dist_so2_squared(a)
    assert d2 == np.square(0.0 - 1.0) + np.square(s_big - 1.0)
    assert np.float64(d2).tobytes() == det_sign_dist_so2_squared(a).tobytes()


def test_dist_so2_reference_points():
    assert dist_so2_squared(np.eye(2)) == 0.0
    # dist(0, SO(2)) = sqrt(2)
    assert abs(dist_so2_squared(np.zeros((2, 2))) - 2.0) <= 1e-14


def test_dist_so2_reflection_branch():
    # diag(1, -1) has det < 0: distance^2 = (1+1)^2 + (1-1)^2 = 4
    a = np.diag([1.0, -1.0])
    assert abs(dist_so2_squared(a) - 4.0) <= 1e-14
    assert abs(dist_so2_grid(a) - 4.0) <= 1e-9


def test_dist_so2_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for want_neg in (False, True):
        done = 0
        while done < 200:
            a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-1, 1)
            if (np.linalg.det(a) < 0.0) != want_neg:
                a = a[::-1].copy()      # swap rows to flip the sign
            d2 = dist_so2_squared(a)
            if d2 < 1e-3:
                continue                # below grid resolution
            assert abs(d2 - dist_so2_grid(a)) <= 1e-6 * d2
            done += 1


@functools.cache
def linspace_grid():
    """cos and sin of the 10^6-point grid, built as the full scan built it."""
    theta = np.linspace(0.0, 2.0 * np.pi, GRID_SIZE, endpoint=False)
    return np.cos(theta), np.sin(theta)


def one_pass_dist_so2_grid(a):
    """The single-pass scan of the whole grid that dist_so2_grid replaced,
    kept as its oracle."""
    a = np.asarray(a, dtype=float)
    cos, sin = linspace_grid()
    proj = (a[0, 0] + a[1, 1]) * cos
    proj += (a[1, 0] - a[0, 1]) * sin
    return float((a * a).sum() + 2.0 - 2.0 * proj.max())


def _scaled(entries, exponent, negative):
    a = np.reshape(entries, (2, 2)) * 10.0**exponent
    # the cofactor sign of det: LAPACK's det warns on subnormal entries
    if (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] < 0.0) != negative:
        a = a[::-1].copy()      # swap rows to flip the sign
    return a


# the grid maximum of this rotation, at index 999995, lies within one coarse
# step below 2 pi, so the exact window wraps past index 0
WRAP_ROTATION = rot(2.0 * np.pi * (1.0 - 5e-6))
# its peak lies midway between coarse samples 5 and 6, which nearly tie
MIDWAY_ROTATION = rot(GRID_STEP * COARSE_STRIDE * 5.5)


@given(a=st.builds(_scaled, st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                   st.floats(-3.0, 3.0), st.booleans()))
@example(a=WRAP_ROTATION)
@example(a=WRAP_ROTATION @ np.diag([1.0, -1.0]))
@example(a=MIDWAY_ROTATION)
@example(a=np.diag([1.0, -1.0]))          # t = d = 0: a flat p, the full scan
@example(a=1e-150 * np.array([[0.3, -1.2], [0.7, 0.4]]))
@example(a=1e150 * np.array([[0.3, -1.2], [0.7, 0.4]]))
@example(a=1e-300 * np.eye(2))            # coarse peak too small: the full scan
@example(a=np.array([[0.0, 0.0], [2.225073858507e-309, 0.1]]))   # a subnormal entry
def test_dist_so2_grid_blocks_match_one_pass(a):
    assert dist_so2_grid(a) == one_pass_dist_so2_grid(a)


def test_wrap_and_midway_rotations_peak_where_named():
    cos, sin = linspace_grid()
    for a, want in ((WRAP_ROTATION, 999_995), (MIDWAY_ROTATION, 11 * COARSE_STRIDE // 2)):
        assert np.argmax(np.trace(a) * cos + (a[1, 0] - a[0, 1]) * sin) == want


def test_exact_window_wraps_at_2pi(monkeypatch):
    analysis.coarse_table()             # built before the spy goes in
    windows = []

    def spy(k):
        windows.append(k)
        return grid_cos_sin(k)

    monkeypatch.setattr(analysis, "grid_cos_sin", spy)
    dist_so2_grid(WRAP_ROTATION)
    (k,) = windows
    assert len(k) == 2 * COARSE_STRIDE + 5
    assert 0 <= k.min() and k.max() < GRID_SIZE and {999_995, 0} <= set(k.tolist())


NONFINITE = [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, -np.inf], [0.0, 1.0]],
    [[1.0, 0.0], [np.inf, 1.0]],
    [[np.inf, 0.0], [0.0, -np.inf]],        # t = nan
    [[1.0, np.inf], [np.inf, 1.0]],         # d = nan
    [[1.0, 2.0], [3.0, np.nan]],
]


@pytest.mark.parametrize("a", NONFINITE)
def test_dist_so2_grid_nonfinite_matches_one_pass(a):
    with np.errstate(invalid="ignore"):
        got, want = dist_so2_grid(a), one_pass_dist_so2_grid(a)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_grid_cos_sin_is_the_linspace_grid():
    cos, sin = linspace_grid()
    # every grid index, then the coarse table the first pass reads
    full_cos, full_sin = grid_cos_sin(np.arange(GRID_SIZE))
    assert full_cos.tobytes() == cos.tobytes() and full_sin.tobytes() == sin.tobytes()
    coarse_cos, coarse_sin = analysis.coarse_table()
    assert coarse_cos.tobytes() == cos[::COARSE_STRIDE].tobytes()
    assert coarse_sin.tobytes() == sin[::COARSE_STRIDE].tobytes()
    # windows of the exact pass's length, computed alone, at starts 997
    # apart (odd, so every residue mod the SIMD widths) and across 2 pi
    reach = COARSE_STRIDE + 2
    offsets = np.arange(-reach, reach + 1)
    for start in [*range(0, GRID_SIZE, 997), GRID_SIZE - 1]:
        k = (start + offsets) % GRID_SIZE
        win_cos, win_sin = grid_cos_sin(k)
        assert win_cos.tobytes() == cos[k].tobytes()
        assert win_sin.tobytes() == sin[k].tobytes()


def test_six_bond_sum_degenerate_point():
    # all six bond images vanish: LHS = 14*6, RHS = (0-1)^2 + (0-1)^2
    assert abs(six_bond_sum(0.0, 0.0, 0.1) - 6.0) <= 1e-14
    assert 14.0 * six_bond_sum(0.0, 0.0, 0.1) == pytest.approx(84.0)
    # elementwise on arrays: each entry equals its scalar call
    theta = np.array([0.0, 0.1, 0.5, np.pi / 3.0])
    got = six_bond_sum(np.zeros(4), np.zeros(4), theta)
    assert got.shape == (4,)
    assert got.tolist() == [six_bond_sum(0.0, 0.0, t) for t in theta]


def test_six_bond_sum_identity_point():
    thetas = (0.0, 0.2, np.pi / 6.0)
    for theta in thetas:
        assert six_bond_sum(1.0, 1.0, theta) <= 1e-14
    # elementwise on arrays, with mixed singular values
    s1 = np.array([1.0, 0.5, 1.0])
    s2 = np.array([1.0, 2.0, 3.0])
    got = six_bond_sum(s1, s2, np.array(thetas))
    assert got[0] <= 1e-14
    assert got.tolist() == [six_bond_sum(a, b, t) for a, b, t in zip(s1, s2, thetas)]


def test_lemma_a1_holds_on_samples():
    violations, min_slack = check_lemma_a1(20_000, seed=0)
    assert violations == 0
    assert min_slack >= 0.0


def test_laminate_witness():
    mats, weights = laminate_matrices()
    assert len(mats) == 4 and np.all(weights == 0.25)
    rep = check_laminate()
    assert rep["average_norm"] <= 1e-12
    assert max(rep["rank_one_defects"]) <= 1e-12
    # each difference is rank one with norm 2
    np.testing.assert_allclose(rep["rank_one_strengths"], [2.0, 2.0, 2.0], atol=1e-12)
    assert rep["max_bond_length_error"] <= 1e-12
    assert rep["max_energy"] <= 1e-12


def test_rigidity_requires_psi():
    with pytest.raises(ValueError):
        check_rigidity(MaterialLaw(p=2.0, psi="zero"), 10)


def test_rigidity_reflection_point():
    # A = diag(1, -1): all bonds unit, so W = Psi(-1) > 0 while dist^2 = 4
    law = MaterialLaw(p=2.0, psi="smoothed_abs")
    a = np.diag([1.0, -1.0])
    ratio = w_density(a, law) / dist_so2_squared(a) ** (law.p / 2.0)
    expected = law.Psi(-1.0) / 4.0
    assert abs(ratio - expected) <= 1e-12
    assert ratio > 0.0


def test_rigidity_sampled_minimum_positive():
    law = MaterialLaw(p=2.0, psi="smoothed_abs")
    min_ratio, used = check_rigidity(law, 2000, seed=0)
    assert used > 1500
    assert min_ratio > 0.0


def test_sampled_checks_need_a_sample():
    # a minimum over no samples would read as a pass
    law = MaterialLaw(p=2.0, psi="smoothed_abs")
    for n_samples in (0, -1):
        with pytest.raises(ValueError, match="at least one sample"):
            check_rigidity(law, n_samples)
        with pytest.raises(ValueError, match="at least one sample"):
            check_lemma_a1(n_samples)


def stacked_check_rigidity(law, n_samples=10_000, seed=0):
    """check_rigidity as it was before it scaled columns and read the sign
    of det from q - r, kept as its oracle: R(u) @ diag stack @ R(v), and
    the distance by det_sign_dist_so2_squared."""
    draws = np.random.default_rng(seed).random((n_samples, 5))
    diag_s = 5.0 * draws[:, :2, None] * np.eye(2)
    rot_u, rot_v = (np.moveaxis(rot(2.0 * np.pi * draws[:, k]), -1, 0) for k in (2, 3))
    mats = rot_u @ diag_s @ rot_v
    flip = draws[:, 4] < 0.5
    mats[flip] = mats[flip] @ np.diag([1.0, -1.0])
    d2 = det_sign_dist_so2_squared(mats)
    keep = d2 >= 1e-8**2
    ratio = w_density(mats[keep], law) / d2[keep] ** (law.p / 2.0)
    return float(ratio.min(initial=np.inf)), int(keep.sum())


@pytest.mark.parametrize("seed", range(6))
def test_rigidity_matches_stacked_oracle(seed):
    law = MaterialLaw(p=2.0, psi="smoothed_abs")
    assert check_rigidity(law, seed=seed) == stacked_check_rigidity(law, seed=seed)


def test_rigidity_without_a_kept_sample_raises(monkeypatch, tmp_path, capsys):
    # every sample below the 1e-8 cut: an empty minimum is no pass
    monkeypatch.setattr(analysis, "dist_so2_squared", lambda a: np.zeros(len(a)))
    with pytest.raises(ValueError, match="zero-size"):
        check_rigidity(MaterialLaw(p=2.0, psi="smoothed_abs"), 100)
    # nor does verify report one
    assert main(["verify", "--check", "rigidity", "--out", str(tmp_path)]) != 0
    assert capsys.readouterr().err.startswith("error: zero-size")
    assert not any(tmp_path.iterdir())


def loop_check_rigidity(law, n_samples=10_000, seed=0):
    """The per-sample loop check_rigidity replaced, kept as its oracle; it
    also returns every sample matrix and the density of each used one."""
    rng = np.random.default_rng(seed)
    min_ratio = np.inf
    used = 0
    mats, densities = [], []
    for _ in range(n_samples):
        s = rng.uniform(0.0, 5.0, size=2)
        u, v = rng.uniform(0.0, 2.0 * np.pi, size=2)
        mat = rot(u) @ np.diag(s) @ rot(v)
        if rng.random() < 0.5:
            mat = mat @ np.diag([1.0, -1.0])
        mats.append(mat)
        d2 = dist_so2_squared(mat)
        if d2 < 1e-8**2:                  # dist below 1e-8
            continue
        densities.append(w_density(mat, law))
        ratio = densities[-1] / d2 ** (law.p / 2.0)
        min_ratio = min(min_ratio, ratio)
        used += 1
    return float(min_ratio), used, np.array(mats), np.array(densities)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 400),
    p=st.floats(2.0, 6.0),
    kappa=st.floats(1e-3, 1e3),
    delta=st.floats(1e-4, 1.0),
)
def test_rigidity_batch_matches_loop(seed, n_samples, p, kappa, delta):
    law = MaterialLaw(p=p, psi="smoothed_abs", kappa=kappa, delta=delta)
    seen = {}

    def spy(name, fn):
        def wrapped(*args):
            seen[name] = (args[0], fn(*args))
            return seen[name][1]
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "dist_so2_squared", spy("d2", dist_so2_squared))
        mp.setattr(energy, "w_density", spy("w", w_density))
        min_ratio, used = check_rigidity(law, n_samples, seed=seed)
    want_ratio, want_used, want_mats, want_w = loop_check_rigidity(law, n_samples, seed)
    assert seen["d2"][0].tobytes() == want_mats.tobytes()
    assert seen["w"][1].tobytes() == want_w.tobytes()
    assert used == want_used
    # the loop takes d2 ** (p/2) by libm pow, the batch by numpy's power: an ulp apart
    assert abs(min_ratio - want_ratio) <= 1e-15 * want_ratio


def test_triangle_dets_orientation():
    g = LatticeGraph(3)
    np.testing.assert_allclose(triangle_dets(g, g.pos), 1.0, atol=1e-12)
    flipped = g.pos * np.array([1.0, -1.0])
    min_det, nonpos = det_summary(g, flipped)
    np.testing.assert_allclose(triangle_dets(g, flipped), -1.0, atol=1e-12)
    assert min_det == pytest.approx(-1.0)
    assert nonpos == len(g.tris)
    # a folded start, with cells of both orientations
    g = LatticeGraph(8)
    u = folded_init(g, 2.0 * np.pi / 7.0, 3)
    dets = triangle_dets(g, u)
    _, nonpos = det_summary(g, u)
    assert 0 < nonpos < len(g.tris)
    expected = [np.linalg.det(cell_gradient(*g.pos[t], *u[t])) for t in g.tris]
    np.testing.assert_allclose(dets, expected, rtol=0.0, atol=1e-13)

