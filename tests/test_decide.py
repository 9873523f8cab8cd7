import numpy as np
import pytest

from kyfanorth.decide import (
    _range_model,
    check_pair,
    check_pair_blocks,
    check_parallel,
    check_subspace,
    extract_density,
    find_witness_block,
    find_witness_system,
    swept_minimum,
    verify_certificate,
)
from kyfanorth.errors import BadBlockStructure, DegenerateRank, NotOrthogonal
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_nonparallel_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
    random_matrix,
)
from kyfanorth.model import (
    REAL_FIELD,
    CertKind,
    Tolerances,
    Verdict,
)
from kyfanorth.norms import ky_fan_norm, ky_fan_norm_batch
from kyfanorth.subdiff import build_frame, subgradient_membership


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_swept_minimum_cosine():
    # 2 + cos(theta) is the support function of the disk of radius 2
    # centred at 1; its exposed point at theta is 1 + 2 e^{i theta}
    def disk(th):
        return 2.0 + np.cos(th), 1.0 + 2.0 * np.exp(1j * th)

    out = swept_minimum(disk, tol_abs=1e-9)
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.bound <= 1.0 <= out.value
    assert out.value - out.bound <= 1e-9
    assert abs((out.theta % (2 * np.pi)) - np.pi) <= 1e-3
    assert not out.capped


def test_swept_minimum_asymmetric():
    # a quadrilateral with 0 outside, nearest to the inside of its left
    # edge: min h sits at the kink where two vertices tie
    verts = np.array([1 + 1j, 3 + 0.5j, 2.5 - 1.5j, 0.8 - 1j])

    def polygon(th):
        dots = np.real(np.exp(-1j * np.asarray(th))[:, None] * verts)
        return dots.max(axis=1), verts[dots.argmax(axis=1)]

    edge = verts[0] - verts[3]
    along = -np.real(np.conj(edge) * verts[3]) / abs(edge) ** 2
    exact = -abs(verts[3] + along * edge)
    out = swept_minimum(polygon, tol_abs=1e-10)
    assert 0.0 < along < 1.0
    assert out.value == pytest.approx(exact, abs=1e-10)
    assert out.bound <= exact + 1e-15
    assert out.evals <= 16


def test_range_model_support_dominates_samples(rng):
    from kyfanorth.oracle import sample_range_points

    a = complex_gauss(rng, 5, 5)
    b = complex_gauss(rng, 5, 5)
    k = 2
    frame = build_frame(a, k)
    model = _range_model(frame, b)
    pts = np.asarray(sample_range_points(a, b, k, count=200, rng=rng))
    thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    h = model.support(thetas)
    for th, bound in zip(thetas, h):
        vals = np.real(np.exp(-1j * th) * pts)
        assert vals.max() <= bound + 1e-7


def test_check_pair_constructed_orthogonal(rng):
    for q, r in ((1, 0), (2, 0), (2, 1), (1, 2)):
        a, b, _ = make_orthogonal_pair(5, 3, rng, q=q, r=r)
        d = check_pair(a, b, 3)
        assert d.verdict is Verdict.ORTHOGONAL, (q, r, d.margin)
        assert d.margin >= -1e-7 * d.scale


def test_check_pair_constructed_negative(rng):
    for _ in range(10):
        a, b, _ = make_nonorthogonal_pair(4, 2, rng)
        d = check_pair(a, b, 2)
        assert d.verdict is Verdict.NOT_ORTHOGONAL
        assert d.certificate is not None
        assert d.certificate.kind is CertKind.VIOLATION
        lam = complex(d.certificate.coefficient)
        dip = ky_fan_norm(a + lam * b, 2)
        assert dip < ky_fan_norm(a, 2)
        assert dip == pytest.approx(d.certificate.norm_value, abs=1e-9)


def test_check_pair_zero_direction(rng):
    a = complex_gauss(rng, 4, 4)
    d = check_pair(a, np.zeros((4, 4)), 2)
    assert d.verdict is Verdict.ORTHOGONAL


def test_check_pair_zero_matrix(rng):
    b = complex_gauss(rng, 4, 4)
    d = check_pair(np.zeros((4, 4)), b, 2)
    assert d.verdict is Verdict.ORTHOGONAL


def test_check_pair_real_field(rng):
    hits = 0
    for _ in range(10):
        a, b, _ = make_orthogonal_pair(4, 2, rng, field=REAL_FIELD)
        d = check_pair(a, b, 2, field=REAL_FIELD)
        assert d.verdict is Verdict.ORTHOGONAL
        dc = check_pair(a, b, 2)
        hits += dc.verdict is Verdict.NOT_ORTHOGONAL
    # real-scalar orthogonality is weaker, the complex check must
    # refute at least some of these
    assert hits >= 3


def test_real_field_margin_is_two_point(rng):
    a, b, _ = make_orthogonal_pair(4, 2, rng, field=REAL_FIELD)
    d = check_pair(a, b, 2, field=REAL_FIELD)
    frame = build_frame(a, 2)
    model = _range_model(frame, b)
    two_point = float(model.support(np.array([0.0, np.pi])).min())
    assert d.margin == pytest.approx(two_point, abs=1e-12)


def test_blocks_worked_example_degenerate():
    a = np.diag([2.0, 1.0, 0.0]).astype(complex)
    b = np.zeros((3, 3), complex)
    b[2, 2] = 1.0
    d = check_pair_blocks(a, b, 3)
    assert d.verdict is Verdict.ORTHOGONAL
    # the trace norm grows one-for-one along this direction
    for lam in (0.5, -1.0, 1j):
        assert ky_fan_norm(a + lam * b, 3) == pytest.approx(3.0 + abs(lam),
                                                            abs=1e-10)


def test_blocks_worked_example_negative():
    a = np.diag([2.0, 1.0]).astype(complex)
    b = np.eye(2, dtype=complex)
    d = check_pair_blocks(a, b, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert ky_fan_norm(a - 0.5 * b, 2) < ky_fan_norm(a, 2)


def test_pair_and_blocks_agree(rng):
    for trial in range(40):
        if trial % 2:
            a, b, _ = make_orthogonal_pair(4, 2, rng,
                                           q=int(rng.integers(1, 3)))
        else:
            a = complex_gauss(rng, 4, 4)
            b = complex_gauss(rng, 4, 4)
        d1 = check_pair(a, b, 2, want_certificate=False)
        d2 = check_pair_blocks(a, b, 2, want_certificate=False)
        assert d1.verdict is d2.verdict


def test_blocks_refutation_certified_whenever_pair_is():
    # rank-degenerate refutations: both modes read one range-set model, so
    # the block form searches the same steepest ray and certifies alike
    rng = np.random.default_rng(2026)
    certified = 0
    for _ in range(200):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(2, n + 1))
        a, b, _ = make_singular_pair(n, k, rng)
        b = b + 0.3 * random_matrix(n, rng)
        pair = check_pair(a, b, k)
        blocks = check_pair_blocks(a, b, k)
        assert blocks.verdict is pair.verdict
        if pair.verdict is not Verdict.NOT_ORTHOGONAL or pair.certificate is None:
            continue
        certified += 1
        cert = blocks.certificate
        assert cert is not None and cert.kind is CertKind.VIOLATION
        assert verify_certificate(cert, a, b, k)["ok"]
    assert certified >= 20


def _violation_checked(decision, a, b, k):
    cert = decision.certificate
    assert cert is not None and cert.kind is CertKind.VIOLATION
    assert cert.details["dip"] >= 10.0 * decision.tolerances.decide * decision.scale
    assert cert.details["evals"] == decision.details["violation_evals"]
    assert verify_certificate(cert, a, b, k)["ok"]
    return cert


def _coverage_pairs(rng):
    for _ in range(300):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n + 1))
        yield random_matrix(n, rng), random_matrix(n, rng), k
    for _ in range(200):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, n + 1))
        a, b, _ = make_singular_pair(n, k, rng)
        yield a, b + 0.3 * random_matrix(n, rng), k


def _bar(decision, a, k):
    dip = 10.0 * decision.tolerances.decide * decision.scale
    return ky_fan_norm(a, k) - dip


def _ray_scan_min(decision, a, b, k):
    """Smallest norm a dense scan of the refuting ray finds."""
    norm_a = ky_fan_norm(a, k)
    theta = decision.details["support_theta"]
    phase = np.exp(-1j * theta)
    if decision.details["field"] == REAL_FIELD:
        phase = np.sign(phase.real)
    ts = np.geomspace(1e-9, 2.0, 400) * norm_a / ky_fan_norm(b, k)
    vals = ky_fan_norm_batch(a[None] + (ts * phase)[:, None, None] * b, k)
    return vals.min()


def test_every_refutation_carries_a_violation():
    # the violation search stops at the first scalar that clears the dip;
    # guard that it loses no certificate in any mode. A refutation whose
    # ray never dips that far keeps none, says why, and a dense scan of
    # the ray must agree that no scalar clears the bar. Its convexity bound
    # rules the whole ray out after a few evaluations, and no scanned
    # scalar may fall below that bound
    refuted = shallow = 0
    for a, b, k in _coverage_pairs(np.random.default_rng(4242)):
        for d in (check_pair(a, b, k), check_pair(a, b, k, field=REAL_FIELD),
                  check_pair_blocks(a, b, k)):
            if d.verdict is not Verdict.NOT_ORTHOGONAL:
                continue
            refuted += 1
            if d.certificate is None:
                shallow += 1
                assert d.details["violation_reason"] == "search exhausted"
                assert 0 < d.details["violation_evals"] <= 12
                lower = d.details["violation_lower_bound"]
                assert lower >= _bar(d, a, k)
                assert _ray_scan_min(d, a, b, k) >= lower
            else:
                _violation_checked(d, a, b, k)
    assert refuted >= 500
    assert shallow <= 0.01 * refuted


def test_deep_refutation_costs_two_norm_evaluations():
    rng = np.random.default_rng(64)
    n, k = 64, 6
    a = random_matrix(n, rng)
    b = 0.05 * random_matrix(n, rng) + a / ky_fan_norm(a, k)
    d = check_pair(a, b, k)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert _violation_checked(d, a, b, k).details["evals"] <= 2

    a, basis, _ = make_subspace_instance(n, k, 2, rng, orthogonal=False)
    d = check_subspace(a, basis, k)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    cert = _violation_checked(d, a, basis, k)
    assert cert.details["evals"] <= 2
    assert len(cert.details["combination"]) == 2


def test_refutation_too_shallow_for_any_scalar():
    # margin -2e-5 at scale 11 is decisive, but the dip 10*decide*scale
    # needs t >= 0.55 along a ray where only t < 2||A||/||B|| = 0.2 can help
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([2e-5, 10.0]).astype(complex)
    d = check_pair(a, b, 1)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.margin == pytest.approx(-2e-5)
    assert d.scale == pytest.approx(11.0)
    assert d.certificate is None
    assert d.details["violation_too_shallow"]
    assert d.details["violation_evals"] == 0
    assert d.details["violation_reason"] == (
        "no scalar can dip 10*decide*scale (t_min >= t_hi)")
    assert d.details["violation_lower_bound"] >= _bar(d, a, 1)


def test_witness_system_quality(rng):
    a, b, _ = make_orthogonal_pair(5, 2, rng, q=2)
    cert = find_witness_system(a, b, 2)
    vectors = cert.vectors
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(2)).max() <= 1e-7
    report = verify_certificate(cert, a, b, 2)
    assert report["ok"], report


def test_witness_requires_orthogonality(rng):
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    with pytest.raises(NotOrthogonal):
        find_witness_system(a, b, 2)


def test_witness_block_hand_example():
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    cert = find_witness_block(a, b, 1)
    t = cert.block_matrix
    assert np.trace(t).real == pytest.approx(1.0, abs=1e-9)
    w = np.linalg.eigvalsh(t)
    assert w.min() >= -1e-9
    assert w.max() <= 1.0 + 1e-9
    assert abs(np.trace(t @ b)) <= 1e-9
    assert cert.subgradient is not None
    assert subgradient_membership(a, 1, cert.subgradient, tol=1e-7)


def test_witness_block_random_instances(rng):
    for _ in range(10):
        a, b, _ = make_orthogonal_pair(5, 3, rng, q=2)
        cert = find_witness_block(a, b, 3)
        g = cert.subgradient
        assert subgradient_membership(a, 3, g, tol=1e-7)
        assert abs(np.trace(g.conj().T @ b)) <= 1e-6
        report = verify_certificate(cert, a, b, 3)
        assert report["ok"], report


def test_witness_block_degenerate(rng):
    a, b, _ = make_orthogonal_pair(5, 3, rng, q=2, degenerate=True)
    cert = find_witness_block(a, b, 3)
    report = verify_certificate(cert, a, b, 3)
    assert report["ok"], report
    g = cert.subgradient
    assert subgradient_membership(a, 3, g, tol=1e-7)
    assert abs(np.trace(g.conj().T @ b)) <= 1e-6


@pytest.mark.parametrize("eps", [2.8e-7, 4.9e-7])
def test_witness_block_degenerate_across_orthogonal_band(eps):
    # margin -eps lies in the ORTHOGONAL band (decide*scale = 5e-7) while
    # the waterfilling overflow, equal to eps, must pass the block equation
    a = np.diag([2.0, 1.0, 0.0]).astype(complex)
    b = np.diag([1.0 + eps, 0.0, 1.0]).astype(complex)
    d = check_pair(a, b, 3)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate is not None
    assert d.certificate.kind is CertKind.BLOCK_COEFFICIENT
    report = verify_certificate(d.certificate, a, b, 3)
    assert report["ok"], report


def test_subspace_positive_and_certificate(rng):
    a, basis, _ = make_subspace_instance(5, 2, 3, rng, orthogonal=True)
    d = check_subspace(a, basis, 2)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate is not None
    assert d.certificate.kind is CertKind.DENSITY_SYSTEM
    report = verify_certificate(d.certificate, a, basis, 2)
    assert report["ok"], report


def test_subspace_negative(rng):
    a, basis, _ = make_subspace_instance(5, 2, 3, rng, orthogonal=False)
    d = check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.certificate is not None
    report = verify_certificate(d.certificate, a, basis, 2)
    assert report["ok"], report


def test_subspace_empty_basis(rng):
    a = complex_gauss(rng, 4, 4)
    d = check_subspace(a, [], 2)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.details.get("trivial")


def test_subspace_hand_example():
    a = np.diag([1.0, 0.5]).astype(complex)
    w1 = np.zeros((2, 2), complex)
    w1[1, 1] = 1.0
    w2 = np.zeros((2, 2), complex)
    w2[0, 1] = 1.0
    d = check_subspace(a, [w1, w2], 1)
    assert d.verdict is Verdict.ORTHOGONAL
    assert len(d.certificate.densities) == 1
    p1 = d.certificate.densities[0]
    assert np.abs(p1 - np.diag([1.0, 0.0])).max() <= 1e-9


def test_subspace_single_matrix_matches_pair(rng):
    for trial in range(20):
        if trial % 2:
            a, b, _ = make_orthogonal_pair(4, 2, rng)
        else:
            a = complex_gauss(rng, 4, 4)
            b = complex_gauss(rng, 4, 4)
        d_pair = check_pair(a, b, 2, want_certificate=False)
        d_sub = check_subspace(a, [b], 2, want_certificate=False)
        assert d_pair.verdict is d_sub.verdict, trial


def test_extract_density_round_trip(rng):
    a, basis, _ = make_subspace_instance(5, 2, 2, rng, orthogonal=True)
    d = check_subspace(a, basis, 2)
    q_matrix = np.sum(d.certificate.densities, axis=0)
    frame = build_frame(a, 2)
    cert = extract_density(q_matrix, frame)
    assert len(cert.densities) == 2
    rebuilt = np.sum(cert.densities, axis=0)
    assert np.abs(rebuilt - q_matrix).max() <= 1e-8


def test_extract_density_rejects_leakage(rng):
    a = np.diag([3.0, 2.0, 1.0]).astype(complex)
    frame = build_frame(a, 2)
    bad = np.zeros((3, 3), complex)
    bad[0, 0] = 1.0
    bad[0, 2] = 0.5
    bad[2, 0] = 0.5
    bad[1, 1] = 1.0
    with pytest.raises(BadBlockStructure):
        extract_density(bad, frame)


def test_extract_density_rejects_bad_full_cluster():
    a = np.diag([3.0, 2.0, 1.0]).astype(complex)
    frame = build_frame(a, 2)
    bad = np.diag([2.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(BadBlockStructure):
        extract_density(bad, frame)


def test_parallel_positive(rng):
    a, b, label = make_parallel_pair(5, 2, rng)
    d = check_parallel(a, b, 2)
    assert d.verdict is Verdict.PARALLEL
    lam = complex(d.details["lambda_re"], d.details["lambda_im"])
    assert abs(abs(lam) - 1.0) <= 1e-12
    achieved = ky_fan_norm(a + lam * b, 2)
    want = ky_fan_norm(a, 2) + ky_fan_norm(b, 2)
    assert achieved == pytest.approx(want, abs=1e-7 * want)
    report = verify_certificate(d.certificate, a, b, 2)
    assert report["ok"], report


def test_parallel_scalar_multiple(rng):
    a = complex_gauss(rng, 4, 4)
    c = 0.7 * np.exp(1j * 1.1)
    d = check_parallel(a, c * a, 3)
    assert d.verdict is Verdict.PARALLEL


def test_parallel_negative_hand_example():
    a = np.diag([1.0, 0.5]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    d = check_parallel(a, b, 1)
    assert d.verdict is Verdict.NOT_PARALLEL
    assert d.margin == pytest.approx(-1.0, abs=1e-9)


def test_parallel_negative_random(rng):
    a, b, _ = make_nonparallel_pair(4, 2, rng)
    d = check_parallel(a, b, 2)
    assert d.verdict is Verdict.NOT_PARALLEL


def test_parallel_degenerate_raises():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.eye(2, dtype=complex)
    with pytest.raises(DegenerateRank):
        check_parallel(a, b, 2)


def test_verify_never_raises_on_garbage(rng):
    from kyfanorth.model import Certificate

    a, b, _ = make_orthogonal_pair(4, 2, rng)
    cert = Certificate(kind=CertKind.WITNESS_SYSTEM, vectors=None)
    report = verify_certificate(cert, a, b, 2)
    assert not report["ok"]


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerances(decide=1e-6, strict=1e-7)


def test_verdict_bands(rng):
    # a barely-perturbed orthogonal pair lands in the boundary band or
    # stays orthogonal, never flips to a hard negative
    a, b, _ = make_orthogonal_pair(4, 2, rng, q=2)
    scale = ky_fan_norm(a, 2) + ky_fan_norm(b, 2)
    bump = complex_gauss(rng, 4, 4)
    bump *= 3e-7 * scale / ky_fan_norm(bump, 2)
    d = check_pair(a, b + bump, 2)
    assert d.verdict in (Verdict.ORTHOGONAL, Verdict.BOUNDARY)
