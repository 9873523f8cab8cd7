import dataclasses
import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kyfanorth.decide
from kyfanorth.cli import _proves_verdict
from kyfanorth.decide import (
    _checked_miss,
    _nearest_point,
    _pair_search,
    _pair_setup,
    _violation_certificate,
    _corral_witness,
    check_pair,
    check_parallel,
    check_subspace,
)
from kyfanorth.errors import (
    DegenerateRank,
    NoConvergence,
    WitnessSearchFailed,
)
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_nonparallel_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
    random_matrix,
    tied_spectrum,
)
from kyfanorth.linalg import haar_unitary
from kyfanorth.model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    Certificate,
    CertKind,
    Tolerances,
    Verdict,
)
from kyfanorth.norms import ky_fan_norm
from kyfanorth.subdiff import (
    build_frame,
    subgradient_membership,
    swept_minimum,
)
from kyfanorth.verify import verify_certificate


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _fallback_block(setup):
    """The witness check_pair falls back to, the corral of the complex pair
    search term by term."""
    return _corral_witness(setup, _pair_search(setup, COMPLEX_FIELD),
                           COMPLEX_FIELD)


def _block_decision(a, b, k):
    """check_pair's decision certified by the corral witness it falls back
    to when no purified witness can be built."""
    d = check_pair(a, b, k, want_certificate=False)
    d.certificate = _fallback_block(_pair_setup(a, b, k))
    return d


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
    model = frame.range_model(b)
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
    # the real field reads the set's real parts, the interval between the
    # support values at 0 and pi: its margin is minus the distance of 0
    # from that interval, and 0 when 0 lies inside it
    for a, b, _ in (make_orthogonal_pair(4, 2, rng, field=REAL_FIELD),
                    make_nonorthogonal_pair(4, 2, rng)):
        d = check_pair(a, b, 2, field=REAL_FIELD)
        frame = build_frame(a, 2)
        model = frame.range_model(b)
        two_point = float(model.support(np.array([0.0, np.pi])).min())
        assert d.margin == pytest.approx(min(two_point, 0.0), abs=1e-12)


def test_blocks_worked_example_degenerate():
    # at s_k = 0 the corral of contractions certifies the verdict
    a = np.diag([2.0, 1.0, 0.0]).astype(complex)
    b = np.zeros((3, 3), complex)
    b[2, 2] = 1.0
    d = check_pair(a, b, 3)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    assert "purify_steps" not in d.certificate.details
    assert verify_certificate(d.certificate, a, b, 3)["ok"]
    # the trace norm grows one-for-one along this direction
    for lam in (0.5, -1.0, 1j):
        assert ky_fan_norm(a + lam * b, 3) == pytest.approx(3.0 + abs(lam),
                                                            abs=1e-10)


def test_blocks_worked_example_negative():
    a = np.diag([2.0, 1.0]).astype(complex)
    b = np.eye(2, dtype=complex)
    d = check_pair(a, b, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert ky_fan_norm(a - 0.5 * b, 2) < ky_fan_norm(a, 2)


def test_pair_and_blocks_agree(rng):
    # the boundary-block criterion reads check_pair's range model: its
    # coefficient exists, and verifies, exactly when the pair is orthogonal
    verdicts = set()
    for trial in range(40):
        if trial % 2:
            a, b, _ = make_orthogonal_pair(4, 2, rng,
                                           q=int(rng.integers(1, 3)))
        else:
            a = complex_gauss(rng, 4, 4)
            b = complex_gauss(rng, 4, 4)
        d = check_pair(a, b, 2, want_certificate=False)
        setup = _pair_setup(a, b, 2)
        verdicts.add(d.verdict)
        if d.verdict is Verdict.ORTHOGONAL:
            cert = _fallback_block(setup)
            assert verify_certificate(cert, a, b, 2)["ok"]
        elif d.verdict is Verdict.NOT_ORTHOGONAL:
            with pytest.raises(WitnessSearchFailed, match="misses 0"):
                _fallback_block(setup)
    assert verdicts == {Verdict.ORTHOGONAL, Verdict.NOT_ORTHOGONAL}


def _violation_checked(decision, a, b, k):
    """The decision's VIOLATION, checked: it verifies, its ``chord_rate``
    clause proves the margin below -strict*scale, and by convexity its
    chord rate lies at or above the margin, up to rounding."""
    cert = decision.certificate
    assert cert is not None and cert.kind is CertKind.VIOLATION
    assert cert.details["evals"] == decision.details["violation_evals"]
    report = verify_certificate(cert, a, b, k)
    assert report["ok"]
    assert [c["pass"] for c in report["checks"]
            if c["name"] == "chord_rate"] == [True]
    t = abs(cert.coefficient)
    rounding = 64 * a.shape[0] * np.finfo(float).eps * decision.scale * (
        1.0 + 1.0 / t)
    assert cert.details["chord_rate"] >= decision.margin - rounding
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


def test_every_refutation_carries_a_violation():
    # the violation search stops at the first chord rate that proves the
    # margin; guard that no refutation in either field goes without one
    refuted = 0
    for a, b, k in _coverage_pairs(np.random.default_rng(4242)):
        for d in (check_pair(a, b, k), check_pair(a, b, k, field=REAL_FIELD)):
            if d.verdict is not Verdict.NOT_ORTHOGONAL:
                continue
            refuted += 1
            _violation_checked(d, a, b, k)
            real = d.details["field"] == REAL_FIELD
            assert _proves_verdict(d.verdict, d.certificate, real)
    assert refuted >= 500


def _near_tie_pairs():
    """420 seeded draws with s_{k+1} = s_k (1 - 10^-j), 30 for each
    j = 2..15, n = 3..5 and k = 1..n-1, against a random direction."""
    rng = np.random.default_rng(31)
    for j in range(2, 16):
        for _ in range(30):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n))
            s = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
            s[k] = s[k - 1] * (1.0 - 10.0 ** -j)
            a = (haar_unitary(n, rng) * s) @ haar_unitary(n, rng).conj().T
            yield a, random_matrix(n, rng), k


def test_every_near_tie_refutation_carries_a_violation():
    # near ties dip the norm only by about margin x gap, far below any fixed
    # depth, yet a chord close enough to 0 proves each margin
    refuted = 0
    for a, b, k in _near_tie_pairs():
        for field in (COMPLEX_FIELD, REAL_FIELD):
            d = check_pair(a, b, k, field=field)
            if d.verdict is Verdict.NOT_ORTHOGONAL:
                refuted += 1
                _violation_checked(d, a, b, k)
                assert _proves_verdict(d.verdict, d.certificate,
                                       field == REAL_FIELD)
    assert refuted >= 500


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


def test_refutation_with_no_deep_dip_carries_a_violation():
    # margin -2e-5 at scale 11 is decisive although no scalar lowers the
    # norm by even 5e-6; the chord at |c| = ||A||/(4||B||) proves it
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([2e-5, 10.0]).astype(complex)
    d = check_pair(a, b, 1)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.margin == pytest.approx(-2e-5)
    assert d.scale == pytest.approx(11.0)
    cert = _violation_checked(d, a, b, 1)
    assert d.details["violation_evals"] <= 2
    assert "certificate_error" not in d.details
    dip = ky_fan_norm(a, 1) - cert.norm_value
    assert dip < 5.0 * d.tolerances.decide * d.scale


def test_a_dip_without_a_proving_chord_rate_fails_verify():
    # c = -1 lowers the norm by 8e-7, past 5 decide scale, but its chord
    # rate -8e-7 stays above -strict*scale: it proves no refutation
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([8e-7, 0.0]).astype(complex)
    cert = Certificate(kind=CertKind.VIOLATION, coefficient=-1.0,
                       norm_value=ky_fan_norm(a - b, 1))
    tol = Tolerances()
    scale = tol.margin_scale(1.0, 8e-7)
    assert 1.0 - cert.norm_value >= 5.0 * tol.decide * scale
    report = verify_certificate(cert, a, b, 1)
    assert not report["ok"]
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["chord_rate"]
    assert check_pair(a, b, 1).verdict is Verdict.BOUNDARY
    # c = 0 draws no chord: the report fails without raising
    cert.coefficient = 0.0
    assert not verify_certificate(cert, a, b, 1)["ok"]


def test_violation_search_gives_up_when_rounding_covers_the_margin():
    # a margin within rounding of -strict*scale leaves no chord that can
    # prove it at any |c|, so the search stops before its first evaluation
    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(5))
    setup = _pair_setup(a, b, 2)
    bar = -setup.tol.strict * setup.scale
    cert, info = _violation_certificate(setup, bar * (1.0 + 1e-15), -1.0)
    assert cert is None
    assert info["violation_evals"] == 0
    assert "rounding allowance" in info["certificate_error"]


def test_subspace_refutation_says_why_it_has_no_certificate(monkeypatch):
    rng = np.random.default_rng(64)
    a, basis, _ = make_subspace_instance(6, 2, 2, rng, orthogonal=False)
    missing = {"violation_evals": 3, "certificate_error": "planted"}
    monkeypatch.setattr(kyfanorth.decide, "_violation_certificate",
                        lambda *args, **kwargs: (None, dict(missing)))
    d = check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.certificate is None
    assert {key: d.details[key] for key in missing} == missing


def test_witness_system_quality(rng):
    a, b, _ = make_orthogonal_pair(5, 2, rng, q=2)
    cert = check_pair(a, b, 2).certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    assert cert.weights == [1.0]
    vectors = cert.right[0]
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(2)).max() <= 1e-7
    report = verify_certificate(cert, a, b, 2)
    assert report["ok"], report


@pytest.mark.parametrize("defect", ["repeated", "scaled"])
def test_witness_orthonormality_is_checked(rng, defect):
    # on the tied cluster {1, 2} a repeated vector still norms A but
    # doubles the operator norm of Y X*, and a column scaled by 1 + 1e-6
    # leaves the dual ball by 1e-6: both fail the orthonormality clause
    a, b, _ = make_orthogonal_pair(5, 2, rng, q=2)
    cert = check_pair(a, b, 2).certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    assert verify_certificate(cert, a, b, 2)["ok"]
    vectors = cert.right[0].copy()
    if defect == "repeated":
        vectors[:, 1] = vectors[:, 0]
    else:
        vectors[:, 1] *= 1.0 + 1e-6
    report = verify_certificate(dataclasses.replace(cert, right=[vectors]),
                                a, b, 2)
    assert not report["ok"]
    assert "orthonormal" in {c["name"] for c in report["checks"]
                             if not c["pass"]}


def _dual_matrix(cert):
    """The dual matrix G = sum_i w_i Y_i X_i* of a witness system."""
    return sum(w * y @ x.conj().T
               for w, y, x in zip(cert.weights, cert.left, cert.right))


def test_witness_block_hand_example():
    # A = I, k = 1: the corral mixes rank-one projectors e e* with
    # tr(e e* B) = 0, and G is the same mixture
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    cert = _block_decision(a, b, 1).certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    g = _dual_matrix(cert)
    assert np.abs(g - g.conj().T).max() <= 1e-12
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-9)
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-9
    assert w.max() <= 1.0 + 1e-9
    assert abs(np.trace(g @ b)) <= 1e-9
    assert subgradient_membership(a, 1, g, tol=1e-7)


def test_witness_block_random_instances(rng):
    for _ in range(10):
        a, b, _ = make_orthogonal_pair(5, 3, rng, q=2)
        cert = _block_decision(a, b, 3).certificate
        assert cert.kind is CertKind.WITNESS_SYSTEM
        g = _dual_matrix(cert)
        assert subgradient_membership(a, 3, g, tol=1e-7)
        assert abs(np.trace(g.conj().T @ b)) <= 1e-6
        report = verify_certificate(cert, a, b, 3)
        assert report["ok"], report


def test_witness_block_degenerate(rng):
    a, b, _ = make_orthogonal_pair(5, 3, rng, q=2, degenerate=True)
    cert = _block_decision(a, b, 3).certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    report = verify_certificate(cert, a, b, 3)
    assert report["ok"], report
    g = _dual_matrix(cert)
    assert subgradient_membership(a, 3, g, tol=1e-7)
    assert abs(np.trace(g.conj().T @ b)) <= 1e-6


@pytest.mark.parametrize("eps", [2.8e-7, 4.9e-7])
def test_witness_block_degenerate_across_orthogonal_band(eps):
    # margin -eps lies in the ORTHOGONAL band (decide*scale = 5e-7) while
    # the closed-form contraction's overflow of its budget, equal to eps,
    # must pass the pairing clause
    a = np.diag([2.0, 1.0, 0.0]).astype(complex)
    b = np.diag([1.0 + eps, 0.0, 1.0]).astype(complex)
    d = check_pair(a, b, 3)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate is not None
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    report = verify_certificate(d.certificate, a, b, 3)
    assert report["ok"], report


def test_witness_block_degenerate_spreads_the_contraction_evenly():
    # s_k = 0 with q = 2: A = diag(3, 2, 0, 0, 0), k = 4, the pairing set is
    # the disk of radius rho = 1 + 0.5 about the fixed part 0.72 + 0.96i.
    # The corral mixes the contraction -U_q V_q* with the zero start's
    # +-E, so the coefficient c U_q V_q* puts |c| = 1.2 / 1.5 on both top
    # singular directions of the widened compression, where filling them
    # one at a time would give 1 and 0.4
    rng = np.random.default_rng(5)
    u, v = haar_unitary(5, rng), haar_unitary(5, rng)
    a = u @ np.diag([3.0, 2.0, 0.0, 0.0, 0.0]) @ v.conj().T
    b = u @ np.diag([0.72, 0.96j, 1.0, 0.5, 0.2]) @ v.conj().T
    d = check_pair(a, b, 4)
    assert d.verdict is Verdict.ORTHOGONAL and d.details["q"] == 2
    cert = d.certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    assert verify_certificate(cert, a, b, 4)["ok"]
    search = _pair_search(_pair_setup(a, b, 4), COMPLEX_FIELD)
    s = np.linalg.svd(search.coeff, compute_uv=False)
    live = s[s > 1e-12]
    assert live.size == 2
    assert live[1] == pytest.approx(live[0], rel=1e-12)
    assert live[0] == pytest.approx(0.8, rel=1e-12)
    assert live[0] <= 1.0 and live.sum() <= 2.0


def test_real_field_orthogonal_readings_at_zero_boundary_are_certified():
    # s_k = 0 in every draw, where a complex block equation may overflow the
    # widened block's disk although its real part is met: each real-field
    # ORTHOGONAL reading carries a real-purpose certificate that verifies
    # and proves the real problem only
    rng = np.random.default_rng(21)
    readings = 0
    for i in range(600):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        if i % 2:
            a, b, _ = make_singular_pair(n, k, rng)
        else:
            a, b, _ = make_orthogonal_pair(n, k, rng, degenerate=True,
                                           field=REAL_FIELD)
        d = check_pair(a, b, k, field=REAL_FIELD)
        if d.verdict is not Verdict.ORTHOGONAL:
            continue
        readings += 1
        cert = d.certificate
        assert cert is not None, (i, d.details)
        assert cert.details["purpose"] == "real"
        assert verify_certificate(cert, a, b, k)["ok"], i
        assert _proves_verdict(d.verdict, cert, True)
        assert not _proves_verdict(d.verdict, cert, False)
    assert readings == 538


def test_contraction_overflow_is_a_failed_construction(monkeypatch):
    # s_k = 0: the disk of radius 1 about 1.5 misses 0, and the
    # contraction nearest it fails the construction; a failure of the
    # backend in the contraction oracle is not caught there
    a, b = np.diag([2.0, 1.0, 0.0]), np.diag([0.5, 0.0, 1.0])
    d = check_pair(a, b, 3)
    assert d.verdict is Verdict.ORTHOGONAL and d.certificate is not None
    refuted = _pair_setup(a, np.diag([1.5, 0.0, 1.0]), 3)
    with pytest.raises(WitnessSearchFailed, match="misses 0"):
        _fallback_block(refuted)

    def failing(*args, **kwargs):
        raise NoConvergence("svd failed: planted")

    setup = _pair_setup(a, b, 3)
    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(NoConvergence, match="planted"):
        _pair_search(setup, COMPLEX_FIELD)


def _failed_clauses(cert, a, b, k):
    report = verify_certificate(cert, a, b, k)
    return {c["name"] for c in report["checks"] if not c["pass"]}


def test_block_verifier_rejects_infeasible_coefficients(rng):
    # the verifier reads no coefficient: a boundary coefficient outside the
    # set shows as factors that are no partial isometry or weights that are
    # not convex, and each leaves the dual ball
    a, b, _ = make_orthogonal_pair(6, 3, rng, q=2, r=2)
    cert = _block_decision(a, b, 3).certificate
    assert _failed_clauses(cert, a, b, 3) == set()
    y, x = cert.left[0], cert.right[0]
    skew = np.eye(3, dtype=complex)
    skew[0, 1] = 1e-3
    for bad, clause in (
            (dataclasses.replace(cert, right=[x @ skew] + cert.right[1:]),
             "orthonormal"),
            (dataclasses.replace(cert, left=[1.2 * y] + cert.left[1:]),
             "orthonormal"),
            (dataclasses.replace(cert, weights=[w * 1.1 for w
                                                in cert.weights]),
             "convex_weights"),
            (dataclasses.replace(cert, weights=[-0.2, 1.2], left=[y, y],
                                 right=[x, x]), "convex_weights")):
        assert clause in _failed_clauses(bad, a, b, 3)
    # s_k = 0 with q = 2 over a 4-column widened tail: a contraction
    # -U_q V_q* scaled past its singular-value budget
    a, b, _ = make_singular_pair(5, 3, rng, rank=1)
    d = check_pair(a, b, 3)
    if d.verdict is Verdict.ORTHOGONAL:
        cert = d.certificate
        assert _failed_clauses(cert, a, b, 3) == set()
        bad = dataclasses.replace(cert, left=[1.5 * y for y in cert.left])
        assert "orthonormal" in _failed_clauses(bad, a, b, 3)


def test_checked_miss_bar_is_relative_at_small_scale(rng):
    # the construction bar is 10 cert scale with no order-one floor: a
    # coefficient that misses 0 by 100 cert scale is refused at any scale
    a, b, _ = make_orthogonal_pair(5, 2, rng, q=1, r=2)
    for t in (1e-9, 1.0):
        setup = _pair_setup(t * a, t * b, 2)
        model, bar = setup.model, setup.tol.cert * setup.scale
        unit = model.block / np.vdot(model.block, model.block)
        for miss in (bar, 100.0 * bar):
            # fixed + tr(T* C) = miss
            coeff = np.conj(miss - model.fixed_part) * unit
            assert model.pairing(coeff) == pytest.approx(miss, rel=1e-9)
            if miss > bar:
                with pytest.raises(WitnessSearchFailed):
                    _checked_miss(setup, coeff, COMPLEX_FIELD, "planted")
            else:
                _checked_miss(setup, coeff, COMPLEX_FIELD, "planted")


def test_parallel_and_tied_pair_take_two_svds(rng, monkeypatch):
    # one SVD for the frame of A and one for ||B||_(k): the parallel
    # decision does not evaluate the norm at its equality scalar, and a tied
    # orthogonal pair certifies from the sweep's own eigenvectors
    n = 12
    cases = [(check_parallel, *make_parallel_pair(n, 3, rng)[:2], 3),
             (check_pair, *make_orthogonal_pair(n, 4, rng, q=2, r=3)[:2], 4)]
    svd = np.linalg.svd
    sizes = []

    def counted(m, *args, **kwargs):
        sizes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for check, a, b, k in cases:
        sizes.clear()
        d = check(a, b, k)
        assert d.verdict in (Verdict.PARALLEL, Verdict.ORTHOGONAL)
        assert d.certificate.kind is CertKind.WITNESS_SYSTEM
        assert sizes.count((n, n)) == 2, check.__name__


# ---------------------------------------------------------------------------
# pair certificates from the nearest-point search

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _certified(decision, a, b, k):
    """The decision's ORTHOGONAL certificate, checked: it verifies, the
    search that found its coefficient closed its bracket, and a witness
    system, purified from a mixture of at most three exposed rank-q
    projectors, took at most 3q purification steps."""
    assert decision.verdict is Verdict.ORTHOGONAL
    assert "witness_error" not in decision.details
    assert not decision.details["search_capped"]
    assert (decision.details["residual_lower_bound"]
            <= decision.details["feasibility_residual"]
            <= decision.tolerances.decide * decision.scale)
    cert = decision.certificate
    assert cert is not None
    assert verify_certificate(cert, a, b, k)["ok"]
    if "purify_steps" in cert.details:
        assert cert.details["purify_steps"] <= 3 * decision.details["q"]
    return cert


def _instance_244():
    """Instance 244 of the benchmark's mixed4 corpus at seed 1 (k = 2,
    q = r = 1). Its pairing set is a thin ellipse centred on 0, so 0 lies
    on the diagonal between antipodal exposed points, and one triangle
    holding it has a barycentric weight of -6.6e-17."""
    a = np.array([
        0.3694406517645876+0.083173651838411383j,
        -0.36945515184822086-0.23420768271090969j,
        0.13773249315446567+0.74561967213911173j,
        0.2307220408796763-0.0038428759858223083j,
        -0.051690915310742436-0.087965662258071203j,
        -0.2945037258422415+0.18870113410853578j,
        -0.07014401127509605-0.049498286740741242j,
        -0.5673842454782114+0.074362051071390503j,
        -0.3848438719900396-0.30114118916723959j,
        -0.12865058169208168-0.2812356762289871j,
        -0.24576138616053125-0.35646706472693657j,
        0.07198711473935504+0.092783325469998679j,
        0.12635781601637822+0.27811810236933948j,
        -0.22639124833591606+0.10998695775934272j,
        -0.05851531828576692-0.69596855195976493j,
        0.15581052322925912+0.12178567663676851j,
    ]).reshape(4, 4)
    b = np.array([
        -0.5539663155415029+0.24557673619544812j,
        -0.6564047929843091+0.35627106816166654j,
        0.7055735486263891+0.15409083001958213j,
        0.3076437777060256+0.61498727037514989j,
        -0.24761015947534712-0.6381538547698804j,
        0.1663777333444315+0.080449513623870844j,
        0.36263127465918227-0.17660725341108913j,
        -0.17198805353142502+0.16566080013580725j,
        0.22847743354207065-0.73295253187034293j,
        0.0069570020589112685-0.83619231417621898j,
        0.2878408924501411-0.010032202363155357j,
        -0.5035935964384428+0.30580623912997962j,
        -0.75384873671219-0.20038379456652899j,
        0.09270478383612138-0.30173854280992096j,
        -0.0021857745045150423+0.58833222948189734j,
        0.20484168498304936-0.71701379811415711j,
    ]).reshape(4, 4)
    return a, b


def test_witness_on_a_centrally_symmetric_set():
    a, b = _instance_244()
    for d in (check_pair(a, b, 2), check_pair(a, b, 2, field=REAL_FIELD),
              _block_decision(a, b, 2)):
        _certified(d, a, b, 2)


def test_nearest_exposed_point_on_a_diagonal():
    # exposed points of ellipses symmetric about 0: 0 sits on every
    # diagonal between antipodal points, where a barycentric weight of a
    # triangle holding it rounds a few 1e-17 off 0. The nearest-point
    # search over the points, with the finite oracle and start of a pair
    # certificate, keeps at most three with positive weights
    rng = np.random.default_rng(244)
    for _ in range(200):
        phi = np.sort(rng.uniform(0.0, np.pi, 5))
        ellipse = (np.cos(phi) + 1j * rng.uniform(1e-3, 1.0) * np.sin(phi))
        half = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * ellipse
        points = np.concatenate([half, -half])

        def oracle(x):
            j = int(np.argmin(np.real(np.conj(x[0]) * points)))
            return j, points[j:j + 1]

        start = int(np.argmin(np.abs(points)))
        idx, weights, *_ = _nearest_point(
            oracle, (start, points[start:start + 1]), 1e-3 * Tolerances().cert)
        idx = np.asarray(idx)
        assert idx.size <= 3 and np.all(weights > 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-15
        assert abs(np.sum(weights * points[idx])) <= 1e-15


def _hermitian_frame_pair(lead, block):
    """A = U diag(3, 1, 1, 1) U* with k = 2, so q = 1 and the boundary
    block is 3x3, and B = U (lead + block) U*."""
    u = haar_unitary(4, np.random.default_rng(11))
    a = (u * np.array([3.0, 1.0, 1.0, 1.0])) @ u.conj().T
    inner = np.zeros((4, 4), dtype=complex)
    inner[0, 0] = lead
    inner[1:, 1:] = block
    return a, u @ inner @ u.conj().T


def test_witness_when_the_set_is_a_segment():
    # Hermitian C: the set 0.2 + [-1, 2] lies on the real axis, every fan
    # triangle is flat, and an edge between its ends holds 0
    w = haar_unitary(3, np.random.default_rng(12))
    a, b = _hermitian_frame_pair(0.2, (w * np.array([-1.0, 0.5, 2.0]))
                                 @ w.conj().T)
    for d in (check_pair(a, b, 2), check_pair(a, b, 2, field=REAL_FIELD),
              _block_decision(a, b, 2)):
        _certified(d, a, b, 2)


@pytest.mark.parametrize("outside", [0.0, 0.5])
def test_witness_at_an_exposed_vertex(outside):
    # normal C: the set is the triangle conv{0, -2 - 1.5i, 1 - 3i}, moved
    # down by outside * decide * scale; 0 is its vertex, or that far off it
    # with the margin inside [-decide * scale, 0)
    tol = Tolerances()
    corners = np.array([1 + 2j, -1 + 0.5j, 2 - 1j])
    a, b = _hermitian_frame_pair(-corners[0], np.diag(corners))
    scale = ky_fan_norm(a, 2) + ky_fan_norm(b, 2)
    shift = outside * tol.decide * scale
    a, b = _hermitian_frame_pair(-corners[0] - 1j * shift, np.diag(corners))
    for d in (check_pair(a, b, 2), _block_decision(a, b, 2)):
        cert = _certified(d, a, b, 2)
        if outside:
            assert -tol.decide * d.scale <= d.margin < 0.0
            miss = cert.details["construction_residual"]
            assert miss == pytest.approx(shift, rel=1e-3)


@settings(deadline=None, max_examples=60)
@given(seed=seeds, n=st.integers(3, 8), data=st.data())
def test_orthogonal_pairs_carry_hull_certificates(seed, n, data):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, n))
    q = data.draw(st.integers(1, k))
    r = data.draw(st.integers(0, n - k))
    field = data.draw(st.sampled_from([COMPLEX_FIELD, REAL_FIELD]))
    a, b, _ = make_orthogonal_pair(n, k, rng, q=q, r=r, field=field)
    a = a * 10.0 ** data.draw(st.floats(-3.0, 6.0))
    b = b * 10.0 ** data.draw(st.floats(-3.0, 6.0))
    decisions = [check_pair(a, b, k, field=field)]
    if field == COMPLEX_FIELD:
        decisions.append(_block_decision(a, b, k))
    for d in decisions:
        _certified(d, a, b, k)


@pytest.mark.parametrize("n", [16, 32])
def test_tied_witness_count_guard(n):
    # a boundary cluster of width n with q = 4: whatever the width, the
    # witness mixes at most three exposed points and purifies in at most
    # 3q = 12 steps
    rng = np.random.default_rng(3)
    a, b, _ = make_orthogonal_pair(n, 4, rng, q=4, r=n - 4)
    cert = _certified(check_pair(a, b, 4), a, b, 4)
    assert cert.kind is CertKind.WITNESS_SYSTEM
    assert cert.details["purify_steps"] <= 12


def test_subspace_positive_and_certificate(rng):
    a, basis, _ = make_subspace_instance(5, 2, 3, rng, orthogonal=True)
    d = check_subspace(a, basis, 2)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate is not None
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
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
    # s1 is simple: one term, G = e1 e1*
    assert np.abs(_dual_matrix(d.certificate)
                  - np.diag([1.0, 0.0])).max() <= 1e-9


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


def _off_centre(a, basis, k, rng):
    """The basis projected Frobenius-orthogonal to a subgradient whose
    boundary coefficient mixes three random rank-q projectors: 0 stays in
    the joint pairing set, but away from the image of the polytope's centre,
    so the nearest-point search has to iterate."""
    frame = build_frame(a, k)
    d, q = frame.u2.shape[1], frame.part.q
    coeff = np.zeros((d, d), dtype=complex)
    for weight in rng.dirichlet(np.ones(3)):
        v = haar_unitary(d, rng)[:, :q]
        coeff += weight * (v @ v.conj().T)
    g = frame.u1 @ frame.v1.conj().T + frame.u2 @ coeff @ frame.v2.conj().T
    return [w - (np.vdot(g, w) / np.vdot(g, g)) * g for w in basis]


def _tied_layout(rng, low=4, high=9):
    """(n, k, q, r) with a boundary cluster of width q + r >= 2."""
    while True:
        n = int(rng.integers(low, high))
        k = int(rng.integers(1, n))
        q = 1 + int(rng.integers(0, k))
        r = int(rng.integers(0, n - k + 1))
        if q + r >= 2:
            return n, k, q, r


@settings(deadline=None, max_examples=40)
@given(seed=seeds, data=st.data())
def test_tied_subspace_decisions_are_invariant(seed, data):
    # the bracket is honest, never capped, and the verdict survives a joint
    # scaling and (UAV, UWV); a one-matrix basis decides as the pair does
    rng = np.random.default_rng(seed)
    n, k, q, r = _tied_layout(rng, 3, 8)
    m = data.draw(st.integers(1, 3))
    orthogonal = data.draw(st.booleans())
    a, basis, label = make_subspace_instance(n, k, m, rng,
                                             orthogonal=orthogonal, q=q, r=r)
    if orthogonal and data.draw(st.booleans()):
        basis = _off_centre(a, basis, k, rng)
    t = 10.0 ** data.draw(st.floats(-3.0, 9.0))
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    moved = (t * u @ a @ v, [t * u @ w @ v for w in basis])
    verdicts = []
    for aa, ws in ((a, basis), moved):
        d = check_subspace(aa, ws, k)
        assert (d.details["residual_lower_bound"]
                <= d.details["feasibility_residual"])
        assert not d.details["search_capped"]
        if d.certificate is not None:
            assert verify_certificate(d.certificate, aa, ws, k)["ok"]
        if m == 1 and d.verdict is not Verdict.BOUNDARY:
            pair = check_pair(aa, ws[0], k, want_certificate=False)
            assert pair.verdict in (d.verdict, Verdict.BOUNDARY)
        verdicts.append(d.verdict)
    assert verdicts == [Verdict(label["expected"])] * 2


def _tied_range_set(rng, push: bool):
    """A tied A (boundary cluster q + r >= 2, n = 4..8) and a direction B
    whose pairing set K holds 0 at the pairing of a random subgradient, a
    mixture of three rank-q boundary projectors; with ``push``, B is tilted
    along A, which moves K by a random amount up to its own size."""
    n, k, q, r = _tied_layout(rng)
    a = ((haar_unitary(n, rng) * tied_spectrum(n, k, rng, q=q, r=r))
         @ haar_unitary(n, rng).conj().T)
    (b,) = _off_centre(a, [random_matrix(n, rng)], k, rng)
    if push:
        # every subgradient pairs with A at ||A||_(k): K moves by t
        b = b + rng.uniform(0.0, 1.0) * ky_fan_norm(b, k) * (
            a / ky_fan_norm(a, k))
    return a, b, k


def _exposed_zero(rng):
    """A tied pair whose pairing set K holds 0 at an exposed boundary
    point: B - (z / ||A||_(k)) A moves K by -z, for z the point exposed at
    a random angle."""
    a, b, k = _tied_range_set(rng, push=False)
    theta = np.array([rng.uniform(0.0, 2.0 * np.pi)])
    z = complex(build_frame(a, k).range_model(b)._expose(theta)[1][0])
    return a, b - (z / ky_fan_norm(a, k)) * a, k


def test_one_matrix_subspace_decides_as_the_singular_pair():
    # s_k = 0: the subspace search runs on the pair's contraction oracle,
    # so the verdicts agree on every draw, none BOUNDARY, and the corral's
    # contractions certify every ORTHOGONAL reading of either
    rng = np.random.default_rng(0)
    readings = []
    for _ in range(200):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, n + 1))
        a, b, _ = make_singular_pair(n, k, rng)
        pair, sub = check_pair(a, b, k), check_subspace(a, [b], k)
        assert sub.verdict is pair.verdict is not Verdict.BOUNDARY
        for d, second in ((pair, b), (sub, [b])):
            assert d.certificate is not None, d.details
            assert verify_certificate(d.certificate, a, second, k)["ok"]
        readings.append(sub.verdict)
    assert readings.count(Verdict.NOT_ORTHOGONAL) >= 50
    assert readings.count(Verdict.ORTHOGONAL) >= 100


@settings(deadline=None, max_examples=60)
@given(seed=seeds, push=st.booleans())
def test_one_matrix_subspace_agrees_with_the_pair(seed, push):
    # the same oracle for both calls: every decisive draw agrees
    a, b, k = _tied_range_set(np.random.default_rng(seed), push)
    pair = check_pair(a, b, k, want_certificate=False)
    sub = check_subspace(a, [b], k, want_certificate=False)
    assert pair.verdict is sub.verdict, (pair.summary(), sub.summary())


def test_zero_at_an_exposed_boundary_point_is_certified():
    # the hardest case for the search: 0 on the curved boundary of K, where
    # the corral closes on it one atom at a time
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b, k = _exposed_zero(rng)
        d = check_pair(a, b, k)
        cert = _certified(d, a, b, k)
        assert cert.kind is CertKind.WITNESS_SYSTEM
        assert d.details["iterations"] < kyfanorth.decide._ATOM_CAP


def test_every_pair_boundary_carries_a_reason(monkeypatch):
    # a point set 3 decide*scale from 0 lies inside the band; a search
    # stopped by its cap says so
    a = np.diag([1.0, 0.5]).astype(complex)
    d = check_pair(a, np.diag([3e-7, 0.0]).astype(complex), 1)
    assert d.verdict is Verdict.BOUNDARY
    assert "not clear of the band" in d.details["boundary_reason"]
    for a, b, k in _coverage_pairs(np.random.default_rng(4242)):
        for field in (COMPLEX_FIELD, REAL_FIELD):
            d = check_pair(a, b, k, field=field, want_certificate=False)
            assert ("boundary_reason" in d.details) is (
                d.verdict is Verdict.BOUNDARY)
    monkeypatch.setattr(kyfanorth.decide, "_ATOM_CAP", 0)
    rng = np.random.default_rng(12)
    capped = 0
    for _ in range(10):
        d = check_pair(*_exposed_zero(rng), want_certificate=False)
        if d.details["search_capped"]:
            capped += d.verdict is Verdict.BOUNDARY
            assert ("cap stopped the search" in d.details["boundary_reason"]
                    or d.verdict is Verdict.ORTHOGONAL)
    assert capped >= 5


def test_tied_subspace_count_guard():
    # tied refutations that a sublinearly converging search runs to its
    # 800-atom cap; a bracket that stops when it decides needs a handful
    rng = np.random.default_rng(21)
    for i in range(120):
        n, k, q, r = _tied_layout(rng)
        m = int(rng.integers(1, 5))
        a, basis, label = make_subspace_instance(n, k, m, rng,
                                                 orthogonal=i % 2 == 0,
                                                 q=q, r=r)
        d = check_subspace(a, basis, k, want_certificate=False)
        assert d.verdict.value == label["expected"], i
        assert d.details["iterations"] <= 16, i
        assert not d.details["search_capped"], i


def test_capped_subspace_search_reads_boundary(monkeypatch):
    # with one atom to spend, a search whose bracket is still open must say
    # so, and may only read ORTHOGONAL from a point that certifies it
    monkeypatch.setattr(kyfanorth.decide, "_ATOM_CAP", 1)
    rng = np.random.default_rng(7)
    capped = 0
    for _ in range(12):
        a, basis, _ = make_subspace_instance(6, 3, 3, rng, q=2, r=2)
        basis = _off_centre(a, basis, 3, rng)
        d = check_subspace(a, basis, 3)
        assert d.details["iterations"] <= 1
        reason = d.details.get("boundary_reason")
        assert (reason is not None) is (d.verdict is Verdict.BOUNDARY)
        if not d.details["search_capped"]:
            assert reason is None or "cap" not in reason
            continue
        assert reason is None or "cap" in reason
        assert d.verdict is not Verdict.NOT_ORTHOGONAL
        if d.verdict is Verdict.ORTHOGONAL:
            assert verify_certificate(d.certificate, a, basis, 3)["ok"]
        else:
            capped += 1
    assert capped >= 1


@pytest.mark.parametrize("exponent", range(-15, 16, 5))
def test_subspace_basis_rank_is_scale_free(exponent):
    rng = np.random.default_rng(13)
    a, basis, _ = make_subspace_instance(5, 2, 3, rng)
    t = 10.0 ** exponent
    d = check_subspace(t * a, [t * w for w in basis], 2)
    assert d.details["basis_rank"] == 3
    assert not d.details.get("trivial")


def test_subspace_witness_is_one_term_per_atom():
    # ginibre-like spectra: k distinct singular values make every pairing
    # set a point, and the one term is the top k singular pairs
    rng = np.random.default_rng(5)
    a, basis, _ = make_subspace_instance(12, 4, 2, rng)
    cert = check_subspace(a, basis, 4).certificate
    assert cert.weights == [1.0]
    assert [x.shape for x in cert.left + cert.right] == [(12, 4)] * 2
    # a tied boundary cluster (q = 2, r = 1): one term per corral atom, the
    # centre start counting as its d = 3 projectors
    a, basis, _ = make_subspace_instance(6, 3, 2, rng, q=2, r=1)
    d = check_subspace(a, basis, 3)
    cert = d.certificate
    assert 1 <= len(cert.weights) <= 2 * len(basis) + 3
    assert len(cert.left) == len(cert.right) == len(cert.weights)
    assert all(m.shape == (6, 3) for m in cert.left + cert.right)
    assert verify_certificate(cert, a, basis, 3)["ok"]


def _planted(defect):
    """A subspace witness system with one planted defect, its problem, and
    the clause that must fail."""
    if defect == "combined_norm":
        # one tied cluster {1, 2}
        a, basis, k = np.diag([2.0, 2.0, 1.0]), [np.diag([0.0, 0.0, 1.0])], 2
    else:
        # boundary cluster {2, 3} with q = 1
        a, basis, k = np.diag([3.0, 1.0, 1.0]), [np.diag([0.0, 1.0, -1.0])], 2
    d = check_subspace(a, basis, k)
    cert = d.certificate
    assert verify_certificate(cert, a, basis, k)["ok"]
    e = np.eye(3, dtype=complex)
    y, x = cert.left[0], cert.right[0]
    if defect == "trace":
        # Y X* is unchanged, but its factors are no partial isometries
        cert.left[0], cert.right[0] = y / 1.01, x * 1.01
        return cert, a, basis, k, "orthonormal"
    if defect == "off_eigenspace":
        x = x.copy()
        x[:, 0] = x[:, 0] + 0.01 * e[:, 1]
        cert.right[0] = x / np.linalg.norm(x, axis=0)
        return cert, a, basis, k, "norming"
    if defect == "combined_norm":
        # the same term twice at full weight: 2 G
        cert.weights = [2.0 * w for w in cert.weights]
        return cert, a, basis, k, "convex_weights"
    if defect == "pairing":
        # the top two singular pairs norm A, and pair W to 1
        cert.weights, cert.left, cert.right = [1.0], [e[:, :2]], [e[:, :2]]
        return cert, a, basis, k, "basis_pairing_0"
    if defect == "negative_weight":
        # G itself, written as 1.5 G - 0.5 G
        cert.weights = ([1.5 * w for w in cert.weights]
                        + [-0.5 * w for w in cert.weights])
        cert.left, cert.right = cert.left * 2, cert.right * 2
        return cert, a, basis, k, "convex_weights"
    if defect == "straddle":
        # k + 1 columns
        cert.right[0] = np.hstack([x, e[:, [2]]])
        return cert, a, basis, k, "term_layout"
    if defect == "kind":
        cert.kind = enum.Enum("Kind", "UNKNOWN").UNKNOWN
        return cert, a, basis, k, "known_kind"
    if defect == "block_shape":
        # factors of the boundary block's shape rather than n x k
        cert.left[0], cert.right[0] = e[:2, :2], e[:2, :2]
        return cert, a, basis, k, "term_layout"
    cert.weights = cert.weights + [0.0]
    return cert, a, basis, k, "term_layout"


@pytest.mark.parametrize("defect", ["trace", "off_eigenspace",
                                    "combined_norm", "pairing",
                                    "multiplicities", "straddle", "kind",
                                    "block_shape", "negative_weight"])
def test_density_verify_rejects_planted_defects(defect):
    cert, a, basis, k, clause = _planted(defect)
    report = verify_certificate(cert, a, basis, k)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert clause in failed, report
    if defect != "off_eigenspace":
        assert failed == {clause}, report


def test_subspace_refutation_reports_its_bracket():
    # the search stops at its first exposure, where |z| = 0.867 is the
    # distance of the polytope centre's image and the set itself sits at
    # distance 0.2: the margin is the bracket's end -lower, the support
    # value along the counterexample direction, and its chord proves it
    a = np.diag([3.0, 1.0, 1.0, 1.0, 0.5])
    w2 = np.zeros((5, 5))
    w2[0, 1] = 1.0
    basis = [np.diag([-1.2, 1.0, 0.0, 0.0, 0.0]), w2]
    d = check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    resid = d.details["feasibility_residual"]
    lower = d.details["residual_lower_bound"]
    assert resid == pytest.approx(0.8666666666666667)
    assert d.details["iterations"] == 0
    assert d.margin == -lower
    assert -resid < -0.2 <= d.margin < -4.0 * d.tolerances.strict * d.scale
    _violation_checked(d, a, basis, 2)


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
    for cert in (Certificate(kind=CertKind.WITNESS_SYSTEM),
                 Certificate(kind=CertKind.WITNESS_SYSTEM, weights=["x"],
                             left=[None], right=[{}])):
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
