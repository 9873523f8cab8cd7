import numpy as np
import pytest

from kyfanorth.errors import KOutOfRange, ShapeMismatch
from kyfanorth.linalg import (
    _column_phases,
    as_matrix,
    cluster_spectrum,
    haar_unitary,
    herm,
    require_square,
    singular_values,
    svd_frame,
)
from kyfanorth.norms import ky_fan_norm


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_svd_reconstructs(rng):
    a = complex_gauss(rng, 5, 5)
    frame = svd_frame(as_matrix(a))
    s1 = frame.s[0]
    rebuilt = (frame.u * frame.s) @ frame.v.conj().T
    assert np.abs(rebuilt - a).max() <= 1e-10 * s1
    assert np.all(np.diff(frame.s) <= 0.0)


def test_svd_polar_factors(rng):
    a = complex_gauss(rng, 5, 5)
    frame = svd_frame(as_matrix(a))
    polar_u = frame.u @ frame.v.conj().T
    abs_a = (frame.v * frame.s) @ frame.v.conj().T
    recomposed = polar_u @ abs_a
    assert np.abs(recomposed - a).max() <= 1e-10 * frame.s[0]
    w = np.linalg.eigvalsh(herm(abs_a))
    assert w.min() >= -1e-10 * frame.s[0]


def _column_phases_loop(m):
    # per-column reference for the vectorised phase normalisation
    phases = np.ones(m.shape[1], dtype=complex)
    for j in range(m.shape[1]):
        mags = np.abs(m[:, j])
        top = mags.max()
        if top == 0.0:
            continue
        i = int(np.argmax(mags > 1e-12 * top))
        phases[j] = np.conj(m[i, j] / mags[i])
    return phases


def test_column_phases_match_loop(rng):
    m = complex_gauss(rng, 6, 5)
    m[0, 1] = 1e-14  # below the significance cut, so row 1 sets the phase
    m[:, 3] = 0.0  # a zero column keeps phase 1
    phases = _column_phases(m)
    np.testing.assert_array_equal(phases, _column_phases_loop(m))
    lead = (m * phases)[[0, 1, 0, 0, 0], [0, 1, 2, 3, 4]]
    assert np.all(lead.real >= 0.0)
    np.testing.assert_allclose(lead.imag, 0.0, atol=1e-15)
    assert _column_phases(np.zeros((0, 0))).shape == (0,)


def test_singular_values_match_numpy(rng):
    a = complex_gauss(rng, 4, 6)
    np.testing.assert_allclose(singular_values(a),
                               np.linalg.svd(a, compute_uv=False),
                               atol=1e-12)


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(6, rng)
    assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-12


def test_cluster_boundary_on_rank_one():
    part = cluster_spectrum(np.array([1.0, 0.0, 0.0]), 2, 1e-8)
    assert part.q == 1
    assert part.r == 1
    assert part.boundary == (1, 3)


def test_cluster_distinct_values():
    part = cluster_spectrum(np.array([3.0, 2.0, 1.0]), 2, 1e-8)
    assert part.q == 1
    assert part.r == 0
    assert part.boundary == (1, 2)


def test_cluster_tie_across_k():
    part = cluster_spectrum(np.array([3.0, 2.0, 2.0 + 1e-12, 1.0]), 2, 1e-8)
    assert part.boundary == (1, 3)
    assert part.q == 1
    assert part.r == 1


def test_ky_fan_norm_of_a_rectangular_matrix_matches_sum(rng):
    m = complex_gauss(rng, 4, 3)
    s = np.linalg.svd(m, compute_uv=False)
    for q in range(1, 4):
        assert ky_fan_norm(m, q) == pytest.approx(s[:q].sum(), abs=1e-10)
    for q in (0, 4):
        with pytest.raises(KOutOfRange):
            ky_fan_norm(m, q)


def test_ky_fan_norm_of_a_rectangular_matrix_dominates_contractions(rng):
    # value = max Re tr(T* M) over contractions T with singular values in
    # [0,1] summing to at most q
    m = complex_gauss(rng, 4, 3)
    q = 2
    value = ky_fan_norm(m, q)
    u, s, vh = np.linalg.svd(m)
    best = u[:, :q] @ vh[:q, :]
    assert np.real(np.trace(best.conj().T @ m)) == pytest.approx(value,
                                                                 abs=1e-10)
    for _ in range(1000):
        lu = haar_unitary(4, rng)[:, :3]
        rv = haar_unitary(3, rng)
        w = rng.uniform(0.0, 1.0, size=3)
        excess = w.sum() - q
        if excess > 0:
            w *= q / w.sum()
        t = (lu * w) @ rv.conj().T
        assert np.real(np.trace(t.conj().T @ m)) <= value + 1e-10


def test_require_square(rng):
    with pytest.raises(ShapeMismatch):
        require_square(complex_gauss(rng, 3, 4))
