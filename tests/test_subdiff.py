import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kyfanorth
from kyfanorth.generate import make_singular_pair
from kyfanorth.norms import ky_fan_norm
from kyfanorth.subdiff import (
    build_frame,
    directional_derivative,
    sample_subgradient,
    subgradient_membership,
)


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_frame_blocks_are_orthonormal(rng):
    a = complex_gauss(rng, 5, 5)
    frame = build_frame(a, 2)
    for block in (frame.u1, frame.v1, frame.u2, frame.v2):
        if block.shape[1]:
            gram = block.conj().T @ block
            assert np.abs(gram - np.eye(block.shape[1])).max() <= 1e-10
    assert frame.norm_value == pytest.approx(ky_fan_norm(a, 2), abs=1e-12)


def test_frame_detects_zero_boundary():
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    frame = build_frame(a, 2)
    assert frame.degenerate_zero
    assert frame.part.q == 1
    assert frame.part.r == 1
    assert frame.u2_wide.shape == (3, 2)


def test_directional_derivative_matches_fd(rng):
    # halving check: both steps within 1e-4, smaller step at least as close
    for _ in range(40):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        a = complex_gauss(rng, n, n)
        x = complex_gauss(rng, n, n)
        dd = directional_derivative(a, k, x)
        for t in (1e-6, 5e-7):
            fd = (ky_fan_norm(a + t * x, k) - ky_fan_norm(a, k)) / t
            assert fd == pytest.approx(dd, abs=1e-4)


def test_directional_derivative_smooth_case(rng):
    # distinct singular values: derivative equals Re tr(G* X) for the
    # unique subgradient assembled from the top-k singular triplets
    a = np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex)
    u = np.linalg.qr(complex_gauss(rng, 4, 4))[0]
    v = np.linalg.qr(complex_gauss(rng, 4, 4))[0]
    a = u @ a @ v.conj().T
    x = complex_gauss(rng, 4, 4)
    k = 2
    uu, _, vvh = np.linalg.svd(a)
    g = uu[:, :k] @ vvh[:k, :]
    dd = directional_derivative(a, k, x)
    assert dd == pytest.approx(float(np.real(np.trace(g.conj().T @ x))),
                               abs=1e-8)


def test_directional_derivative_positively_homogeneous(rng):
    a = complex_gauss(rng, 4, 4)
    x = complex_gauss(rng, 4, 4)
    frame = build_frame(a, 3)
    base = directional_derivative(a, 3, x, frame=frame)
    assert directional_derivative(a, 3, 2.5 * x, frame=frame) == pytest.approx(
        2.5 * base, rel=1e-10)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=4))
def test_sampled_subgradients_are_members(seed, k):
    rng = np.random.default_rng(seed)
    a = complex_gauss(rng, 4, 4)
    g = sample_subgradient(a, k, rng=rng)
    assert subgradient_membership(a, k, g, tol=1e-8)


def test_sampled_subgradients_at_a_zero_s_k_are_members():
    # rank 1 below k = 2: the boundary cluster is the zero tail, and each
    # draw mixes left vectors from anywhere in it
    rng = np.random.default_rng(9)
    a, _, _ = make_singular_pair(5, 2, rng, rank=1)
    frame = build_frame(a, 2)
    assert frame.degenerate_zero
    for _ in range(20):
        g = sample_subgradient(a, 2, rng=rng, frame=frame)
        assert subgradient_membership(a, 2, g, tol=1e-8)


def test_membership_rejects_scaled(rng):
    a = complex_gauss(rng, 4, 4)
    g = sample_subgradient(a, 2, rng=rng)
    assert not subgradient_membership(a, 2, 1.5 * g, tol=1e-8)
    assert not subgradient_membership(a, 2, 0.2 * g, tol=1e-8)


def test_membership_requires_norming(rng):
    a = complex_gauss(rng, 4, 4)
    u, _, vh = np.linalg.svd(complex_gauss(rng, 4, 4))
    g = u[:, :2] @ vh[:2, :]
    # valid dual budget but generically not norming for A
    assert not subgradient_membership(a, 2, g, tol=1e-6)


def test_membership_norming_is_relative(rng):
    # the zero matrix norms only A = 0, however small A is
    a = complex_gauss(rng, 4, 4)
    assert not subgradient_membership(1e-9 * a, 2, np.zeros((4, 4)))
    assert subgradient_membership(np.zeros((4, 4)), 2, np.zeros((4, 4)))
    for t in (1e-9, 1.0, 1e9):
        g = sample_subgradient(t * a, 2, rng=rng)
        assert subgradient_membership(t * a, 2, g)
        assert not subgradient_membership(t * a, 2, 0.999 * g)


def test_convex_combinations_stay_members(rng):
    a = complex_gauss(rng, 5, 5)
    k = 3
    for _ in range(50):
        g1 = sample_subgradient(a, k, rng=rng)
        g2 = sample_subgradient(a, k, rng=rng)
        lam = rng.uniform()
        assert subgradient_membership(a, k, lam * g1 + (1 - lam) * g2,
                                      tol=1e-8)


def test_subgradient_norming_identity(rng):
    for _ in range(20):
        a = complex_gauss(rng, 4, 4)
        k = int(rng.integers(1, 5))
        g = sample_subgradient(a, k, rng=rng)
        pair = float(np.real(np.trace(g.conj().T @ a)))
        assert pair == pytest.approx(ky_fan_norm(a, k), abs=1e-8)
        s = np.linalg.svd(g, compute_uv=False)
        assert s[0] <= 1.0 + 1e-8
        assert s.sum() <= k + 1e-8


def test_dual_pairing_bound_for_members(rng):
    # every subgradient pairs below the norm in every direction
    a = complex_gauss(rng, 4, 4)
    k = 2
    frame = build_frame(a, k)
    for _ in range(50):
        g = sample_subgradient(a, k, rng=rng, frame=frame)
        x = complex_gauss(rng, 4, 4)
        lhs = float(np.real(np.trace(g.conj().T @ x)))
        assert lhs <= directional_derivative(a, k, x, frame=frame) + 1e-8


def test_only_subdiff_reads_the_frame_blocks():
    # the shape of the subdifferential has one owner: every other module
    # reaches the blocks through range_model, subgradient, term and
    # top_term
    blocks = {"u1", "v1", "u2", "v2", "u2_wide"}
    readers = []
    for path in sorted(Path(kyfanorth.__file__).resolve().parent.glob("*.py")):
        if path.name == "subdiff.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.name}:{node.lineno} .{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in blocks]
    assert readers == []
