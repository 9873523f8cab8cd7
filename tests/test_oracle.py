import ast
from pathlib import Path

import numpy as np
import pytest

from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_parallel_pair,
)
from kyfanorth.model import Verdict
from kyfanorth.norms import ky_fan_norm
from kyfanorth.oracle import (
    GridSpec,
    chord_margin,
    fd_directional,
    grid_min_norm,
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
    sample_range_points,
)
from kyfanorth.subdiff import directional_derivative


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_grid_min_norm_finds_cancellation(rng):
    # b cancels a along lambda = -1 exactly
    a = complex_gauss(rng, 4, 4)
    value, point = grid_min_norm(a, a, 2)
    assert value <= 0.35 * ky_fan_norm(a, 2)
    assert abs(point - (-1.0)) <= 0.35


def test_grid_min_norm_convex_in_radius(rng):
    a = complex_gauss(rng, 4, 4)
    b = complex_gauss(rng, 4, 4)
    # midpoint values never exceed endpoint averages
    for _ in range(50):
        c1 = rng.normal() + 1j * rng.normal()
        c2 = rng.normal() + 1j * rng.normal()
        f1 = ky_fan_norm(a + c1 * b, 2)
        f2 = ky_fan_norm(a + c2 * b, 2)
        fm = ky_fan_norm(a + 0.5 * (c1 + c2) * b, 2)
        assert fm <= 0.5 * (f1 + f2) + 1e-9


def test_grid_respects_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(coarse_points=16)


def test_fd_directional_monotone_and_tight(rng):
    for _ in range(30):
        a = complex_gauss(rng, 4, 4)
        x = complex_gauss(rng, 4, 4)
        k = int(rng.integers(1, 5))
        dd = directional_derivative(a, k, x)
        v1 = fd_directional(a, x, k, 1e-6)
        v2 = fd_directional(a, x, k, 5e-7)
        assert v1 >= v2 - 1e-9
        assert v2 >= dd - 1e-9
        assert v1 == pytest.approx(dd, abs=1e-4)


def test_fd_directional_requires_positive_step(rng):
    a = complex_gauss(rng, 3, 3)
    with pytest.raises(ValueError):
        fd_directional(a, a, 1, 0.0)


def test_chord_margin_sign(rng):
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    margin, _ = chord_margin(a, b, 2)
    scale = ky_fan_norm(a, 2) + ky_fan_norm(b, 2)
    assert margin >= -1e-7 * scale

    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    margin, theta = chord_margin(a, b, 2)
    assert margin < -1e-6 * scale
    # the phase must actually witness a norm decrease along some radius
    unit = np.exp(1j * theta)
    dips = [ky_fan_norm(a + t * unit * b, 2) for t in np.geomspace(1e-4, 2, 40)]
    assert min(dips) < ky_fan_norm(a, 2)


def test_chord_margin_zero_direction(rng):
    a = complex_gauss(rng, 4, 4)
    margin, theta = chord_margin(a, np.zeros((4, 4)), 2)
    assert margin == 0.0
    assert theta == 0.0


def test_oracle_check_pair_trivial_cases(rng):
    a = complex_gauss(rng, 4, 4)
    assert oracle_check_pair(a, np.zeros((4, 4)), 2).verdict is \
        Verdict.ORTHOGONAL
    assert oracle_check_pair(np.zeros((4, 4)), a, 2).verdict is \
        Verdict.ORTHOGONAL


def test_oracle_check_pair_constructed(rng):
    a, b, _ = make_orthogonal_pair(4, 3, rng, q=2)
    assert oracle_check_pair(a, b, 3).verdict is Verdict.ORTHOGONAL
    a, b, _ = make_nonorthogonal_pair(4, 3, rng)
    assert oracle_check_pair(a, b, 3).verdict is Verdict.NOT_ORTHOGONAL


def test_oracle_subspace_is_asymmetric(rng):
    from kyfanorth.generate import make_subspace_instance

    a, basis, _ = make_subspace_instance(4, 2, 2, rng, orthogonal=True)
    d = oracle_check_subspace(a, basis, 2, rng=rng)
    assert d.verdict is Verdict.NO_COUNTEREXAMPLE
    a, basis, _ = make_subspace_instance(4, 2, 2, rng, orthogonal=False)
    d = oracle_check_subspace(a, basis, 2, rng=rng)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    d = oracle_check_subspace(a, [], 2, rng=rng)
    assert d.verdict is Verdict.NO_COUNTEREXAMPLE


def test_oracle_parallel(rng):
    a, b, _ = make_parallel_pair(4, 2, rng)
    d = oracle_check_parallel(a, b, 2)
    assert d.verdict is Verdict.PARALLEL
    lam = complex(d.details["lambda_re"], d.details["lambda_im"])
    assert abs(abs(lam) - 1.0) <= 1e-9

    a = np.diag([1.0, 0.5]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    d = oracle_check_parallel(a, b, 1)
    assert d.verdict is Verdict.NOT_PARALLEL


def test_sample_range_points_hermitian_case(rng):
    # classical numerical range of diag(1,-1) is the segment [-1, 1]
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    pts = np.asarray(sample_range_points(a, b, 1, count=500, rng=rng))
    assert np.abs(pts.imag).max() <= 1e-10
    assert pts.real.min() <= -0.9
    assert pts.real.max() >= 0.9
    assert pts.real.min() >= -1.0 - 1e-10
    assert pts.real.max() <= 1.0 + 1e-10


def test_sample_range_points_degenerate_disk(rng):
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = complex_gauss(rng, 3, 3)
    pts = np.asarray(sample_range_points(a, b, 2, count=300, rng=rng))
    assert pts.shape == (300,)
    assert np.all(np.isfinite(pts))


def test_oracle_imports_nothing_from_the_engine():
    # the referee's agreement is evidence only while it shares no code with
    # the frame engine
    import kyfanorth.oracle

    tree = ast.parse(Path(kyfanorth.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            imported.update(base)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert imported.isdisjoint({"decide", "subdiff"}), imported
