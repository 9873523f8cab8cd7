import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfanorth.errors import KOutOfRange, NonFinite
from kyfanorth.linalg import haar_unitary
from kyfanorth.norms import ky_fan_norm, ky_fan_norm_batch


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_known_value():
    assert ky_fan_norm(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)


def test_k_extremes(rng):
    a = complex_gauss(rng, 5, 5)
    s = np.linalg.svd(a, compute_uv=False)
    assert ky_fan_norm(a, 1) == pytest.approx(s[0], abs=1e-12)
    assert ky_fan_norm(a, 5) == pytest.approx(s.sum(), abs=1e-12)


def test_k_range_checks(rng):
    a = complex_gauss(rng, 3, 3)
    with pytest.raises(KOutOfRange):
        ky_fan_norm(a, 0)
    with pytest.raises(KOutOfRange):
        ky_fan_norm(a, 4)


def test_rejects_nonfinite():
    a = np.eye(3, dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(NonFinite):
        ky_fan_norm(a, 1)


def test_unitary_invariance(rng):
    a = complex_gauss(rng, 5, 5)
    for k in range(1, 6):
        base = ky_fan_norm(a, k)
        for _ in range(5):
            u = haar_unitary(5, rng)
            v = haar_unitary(5, rng)
            assert ky_fan_norm(u @ a @ v, k) == pytest.approx(base, rel=1e-10)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=4))
def test_triangle_inequality(seed, k):
    rng = np.random.default_rng(seed)
    a = complex_gauss(rng, 4, 4)
    b = complex_gauss(rng, 4, 4)
    lhs = ky_fan_norm(a + b, k)
    assert lhs <= ky_fan_norm(a, k) + ky_fan_norm(b, k) + 1e-10


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=4),
       c_re=st.floats(-3, 3), c_im=st.floats(-3, 3))
def test_absolute_homogeneity(seed, k, c_re, c_im):
    rng = np.random.default_rng(seed)
    a = complex_gauss(rng, 4, 4)
    c = complex(c_re, c_im)
    assert ky_fan_norm(c * a, k) == pytest.approx(abs(c) * ky_fan_norm(a, k),
                                                  abs=1e-9)


def test_batch_matches_loop(rng):
    ms = np.stack([complex_gauss(rng, 4, 4) for _ in range(16)])
    got = ky_fan_norm_batch(ms, 3)
    want = [ky_fan_norm(m, 3) for m in ms]
    np.testing.assert_allclose(got, want, atol=1e-12)


def _dual_norm(x, k):
    # the dual of the Ky Fan k-norm: max(s_1, sum(s) / k)
    s = np.linalg.svd(x, compute_uv=False)
    return max(s[0], s.sum() / k)


def _isometry(rng, n, k):
    return np.linalg.qr(complex_gauss(rng, n, k))[0]


def _pairing(u, a, v):
    return float(np.real(np.trace(u.conj().T @ a @ v)))


def test_duality_pairing(rng):
    # |tr(X* Y)| <= dual(X) * norm(Y) over 1000 random pairs
    for _ in range(1000):
        x = complex_gauss(rng, 4, 4)
        y = complex_gauss(rng, 4, 4)
        k = int(rng.integers(1, 5))
        pairing = abs(np.trace(x.conj().T @ y))
        assert pairing <= _dual_norm(x, k) * ky_fan_norm(y, k) + 1e-9


def test_variational_lower_bound(rng):
    # Re tr(U* A V) over rank-k isometry pairs never exceeds the norm
    a = complex_gauss(rng, 5, 5)
    for k in (1, 3, 5):
        best = max(_pairing(_isometry(rng, 5, k), a, _isometry(rng, 5, k))
                   for _ in range(200))
        assert best <= ky_fan_norm(a, k) + 1e-9


def test_variational_attained_by_singular_frames(rng):
    a = complex_gauss(rng, 5, 5)
    u, _, vh = np.linalg.svd(a)
    for k in (1, 2, 4):
        value = _pairing(u[:, :k], a, vh[:k, :].conj().T)
        assert value == pytest.approx(ky_fan_norm(a, k), abs=1e-10)
