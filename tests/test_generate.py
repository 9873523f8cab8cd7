import numpy as np
import pytest

from kyfanorth.generate import (
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
    random_matrix,
    tied_spectrum,
)
from kyfanorth.linalg import cluster_spectrum, default_cluster_tol, singular_values
from kyfanorth.norms import ky_fan_norm


def test_random_matrix_shape_and_scale(rng):
    m = random_matrix(6, rng)
    assert m.shape == (6, 6)
    assert m.dtype == np.complex128
    # normalized Ginibre keeps the spectral norm around 2
    assert np.linalg.norm(m, 2) < 4.0


def test_tied_spectrum_cluster_layout(rng):
    s = tied_spectrum(6, 3, rng, q=2, r=1)
    assert np.all(np.diff(s) <= 0)
    assert s.min() > 0
    part = cluster_spectrum(s, 3, default_cluster_tol(s[0]))
    assert part.q == 2
    assert part.r == 1


def test_tied_spectrum_zero_boundary(rng):
    s = tied_spectrum(5, 3, rng, q=2, zero_boundary=True)
    assert s[0] > 0
    assert np.all(s[1:3] == 0.0)


def test_tied_spectrum_validation(rng):
    with pytest.raises(ValueError):
        tied_spectrum(4, 2, rng, q=0)
    with pytest.raises(ValueError):
        tied_spectrum(4, 2, rng, q=3)
    with pytest.raises(ValueError):
        tied_spectrum(4, 2, rng, q=1, r=3)


def test_orthogonal_pair_labels(rng):
    a, b, label = make_orthogonal_pair(5, 2, rng, q=2, r=1)
    assert label["expected"] == "ORTHOGONAL"
    assert label["q"] == 2
    assert label["r"] == 1
    assert a.shape == b.shape == (5, 5)
    part = cluster_spectrum(singular_values(a), 2,
                            default_cluster_tol(singular_values(a)[0]))
    assert (part.q, part.r) == (2, 1)


def test_parallel_pair_achieves_triangle_equality(rng):
    a, b, label = make_parallel_pair(4, 2, rng)
    lam = complex(label["lambda_re"], label["lambda_im"])
    assert abs(abs(lam) - 1.0) <= 1e-12
    lhs = ky_fan_norm(a + lam * b, 2)
    assert lhs == pytest.approx(ky_fan_norm(a, 2) + ky_fan_norm(b, 2),
                                rel=1e-12)


def test_singular_pair_rank(rng):
    a, b, label = make_singular_pair(5, 5, rng, rank=3)
    s = singular_values(a)
    assert s[2] > 1e-8
    assert s[3] <= 1e-12 * s[0]
    assert label["rank"] == 3


def test_subspace_instance_shapes(rng):
    a, basis, label = make_subspace_instance(5, 2, 4, rng, orthogonal=True)
    assert len(basis) == 4
    assert label["expected"] == "ORTHOGONAL"
    a, basis, label = make_subspace_instance(5, 2, 4, rng, orthogonal=False)
    assert label["expected"] == "NOT_ORTHOGONAL"


@pytest.mark.parametrize("m", [0, -2])
def test_subspace_instance_refuses_an_empty_basis_before_any_draw(m):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for orthogonal in (True, False):
        with pytest.raises(ValueError, match="m >= 1"):
            make_subspace_instance(5, 2, m, rng, orthogonal=orthogonal)
    assert rng.bit_generator.state == state
