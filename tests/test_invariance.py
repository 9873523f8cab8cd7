"""Decisions and certificates under the symmetries of the problem.

Birkhoff-James orthogonality and parallelism in a unitarily invariant norm
are unchanged by a joint scaling (tA, tB), by unitary equivalence
(UAV, UBV), by a phase on B and by the adjoint or the transpose
(R. Bhatia and P. Semrl, Linear Algebra Appl. 287, 1999). Every tolerance
is relative to the problem's own scale, so each check must read the same
verdict on both sides, with the margin carried along, and each certificate
must verify against the inputs it was built for. Run alone with
``pytest -m invariance``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfanorth.cli import main
from kyfanorth.decide import (
    _pair_search,
    _pair_setup,
    _corral_witness,
    check_pair,
    check_parallel,
    check_subspace,
)
from kyfanorth.errors import DegenerateRank
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
    random_matrix,
)
from kyfanorth.io import save_problem, save_report
from kyfanorth.linalg import haar_unitary
from kyfanorth.model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    Certificate,
    CertKind,
    Decision,
    Tolerances,
    Verdict,
)
from kyfanorth.oracle import oracle_check_pair
from kyfanorth.verify import verify_certificate

pytestmark = pytest.mark.invariance

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SYMMETRIES = ("scale", "unitary", "phase", "adjoint", "transpose")

# margins agree to this fraction of the margin scale: a pair search closes
# its bracket to 1e-3 cert, a subspace search to 0.125 decide, and the
# transformed problem runs the same search up to rounding
MARGIN_REL = 1e-8


def _symmetry(name, n, rng, data):
    """(map of A, map of each direction, margin factor) for one symmetry."""
    if name == "scale":
        t = 10.0 ** data.draw(st.floats(-150.0, 150.0), label="log10 t")
        return (lambda m: t * m), (lambda m: t * m), t
    if name == "unitary":
        u, v = haar_unitary(n, rng), haar_unitary(n, rng)
        return (lambda m: u @ m @ v), (lambda m: u @ m @ v), 1.0
    if name == "phase":
        phase = np.exp(1j * data.draw(st.floats(0.0, 2.0 * np.pi)))
        return (lambda m: m), (lambda m: phase * m), 1.0
    if name == "adjoint":
        return (lambda m: m.conj().T), (lambda m: m.conj().T), 1.0
    return (lambda m: m.T), (lambda m: m.T), 1.0


def _pair(kind, rng):
    n = int(rng.integers(3, 6))
    k = int(rng.integers(1, n))
    q = 1 + int(rng.integers(0, k))
    r = int(rng.integers(0, n - k + 1))
    if kind == "orthogonal":
        return make_orthogonal_pair(n, k, rng, q=q, r=r)[:2] + (k,)
    if kind == "real":
        return make_orthogonal_pair(n, k, rng, q=q, r=r,
                                    field=REAL_FIELD)[:2] + (k,)
    if kind == "degenerate":
        return make_orthogonal_pair(n, k, rng, q=q,
                                    degenerate=True)[:2] + (k,)
    if kind == "parallel":
        return make_parallel_pair(n, k, rng)[:2] + (k,)
    if kind == "nonorthogonal":
        return make_nonorthogonal_pair(n, k, rng)[:2] + (k,)
    if kind == "singular":
        k = max(k, 2)
        return make_singular_pair(n, k, rng)[:2] + (k,)
    return random_matrix(n, rng), random_matrix(n, rng), k


def _decide(check, a, second, k):
    """The decision, or the type of the error a check raises."""
    try:
        return check(a, second, k)
    except DegenerateRank as exc:
        return type(exc)


def _assert_same(before, after, factor, a, second, k):
    if isinstance(before, type) or isinstance(after, type):
        assert before is after
        return
    assert after.verdict is before.verdict, (before.summary(), after.summary())
    assert after.scale == pytest.approx(factor * before.scale, rel=1e-12)
    assert abs(after.margin - factor * before.margin) <= MARGIN_REL * after.scale
    assert (after.certificate is None) is (before.certificate is None)
    if after.certificate is not None:
        assert after.certificate.kind is before.certificate.kind
        report = verify_certificate(after.certificate, a, second, k)
        assert report["ok"], [c for c in report["checks"] if not c["pass"]]


def _block_certified(a, b, k):
    """check_pair's decision, an ORTHOGONAL one certified by the corral
    witness it falls back to when no purified witness can be built."""
    d = check_pair(a, b, k, COMPLEX_FIELD, want_certificate=False)
    if d.verdict is Verdict.ORTHOGONAL:
        setup = _pair_setup(a, b, k)
        d.certificate = _corral_witness(
            setup, _pair_search(setup, COMPLEX_FIELD), COMPLEX_FIELD)
    return d


PAIR_CHECKS = {
    "complex": lambda a, b, k: check_pair(a, b, k, COMPLEX_FIELD),
    "real": lambda a, b, k: check_pair(a, b, k, REAL_FIELD),
    "block": _block_certified,
    "parallel": check_parallel,
}


@settings(deadline=None, max_examples=60)
@given(seed=seeds, data=st.data(),
       kind=st.sampled_from(["orthogonal", "real", "degenerate", "parallel",
                             "nonorthogonal", "singular", "random"]))
def test_pair_checks_are_invariant(seed, data, kind):
    rng = np.random.default_rng(seed)
    a, b, k = _pair(kind, rng)
    before = {name: _decide(check, a, b, k)
              for name, check in PAIR_CHECKS.items()}
    for d in before.values():
        if not isinstance(d, type) and d.certificate is not None:
            assert verify_certificate(d.certificate, a, b, k)["ok"]
    for symmetry in SYMMETRIES:
        on_a, on_b, factor = _symmetry(symmetry, a.shape[0], rng, data)
        moved = (on_a(a), on_b(b))
        for name, check in PAIR_CHECKS.items():
            if name == "real" and symmetry == "phase":
                continue  # a phase on B leaves the real field
            _assert_same(before[name], _decide(check, *moved, k), factor,
                         *moved, k)


@settings(deadline=None, max_examples=30)
@given(seed=seeds, data=st.data(), orthogonal=st.booleans())
def test_subspace_checks_are_invariant(seed, data, orthogonal):
    # a phase moves each basis matrix by its own phase, which keeps the span
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    k = int(rng.integers(1, n))
    q = 1 + int(rng.integers(0, k))
    r = int(rng.integers(0, n - k + 1))
    m = data.draw(st.integers(1, 3), label="m")
    a, basis, label = make_subspace_instance(n, k, m, rng,
                                             orthogonal=orthogonal, q=q, r=r)
    before = check_subspace(a, basis, k)
    assert before.verdict is Verdict(label["expected"])
    if before.certificate is not None:
        assert verify_certificate(before.certificate, a, basis, k)["ok"]
    for symmetry in SYMMETRIES:
        on_a, on_w, factor = _symmetry(symmetry, n, rng, data)
        if symmetry == "phase":
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
            moved = [p * w for p, w in zip(phases, basis)]
        else:
            moved = [on_w(w) for w in basis]
        _assert_same(before, check_subspace(on_a(a), moved, k), factor,
                     on_a(a), moved, k)


@settings(deadline=None, max_examples=30)
@given(seed=seeds, data=st.data())
def test_a_smooth_orthogonal_pair_settles_at_a_under_the_symmetries(seed,
                                                                    data):
    # r = 0 keeps s_k > s_{k+1} and s_k > 0: the pairing set is the one
    # point tr(U_k* B V_k), and the referee settles from A's own Fan
    # minorant in 4 norm evaluations on every side of each symmetry
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, n + 1))
    a, b, _ = make_orthogonal_pair(n, k, rng, q=1 + int(rng.integers(0, k)))
    before = oracle_check_pair(a, b, k)
    for symmetry in ("scale", "unitary", "phase", "adjoint"):
        on_a, on_b, factor = _symmetry(symmetry, n, rng, data)
        after = oracle_check_pair(on_a(a), on_b(b), k)
        for d in (before, after):
            assert d.details.get("settled_at_a"), (symmetry, d.details)
            assert d.details["chord_evals"] + d.details["dip_evals"] == 4
        assert after.verdict is before.verdict, (symmetry, after.details)
        assert after.scale == pytest.approx(factor * before.scale, rel=1e-12)


# ---------------------------------------------------------------------------
# pinned regressions


def _first_random_pair():
    rng = np.random.default_rng(0)
    return random_matrix(4, rng), random_matrix(4, rng)


def test_tiny_pair_keeps_its_verdict_and_rejects_the_collapsed_witness():
    # an absolute clustering width of 1e-8 takes the whole spectrum of
    # A/1e9 for one cluster, and on that collapsed frame the pair reads
    # ORTHOGONAL; its witness norms A only to within that width, and fails
    # verification at the default rounding level, as the referee refutes
    a, b = _first_random_pair()
    t = 1e-9
    assert check_pair(a, b, 2).verdict is Verdict.NOT_ORTHOGONAL
    d = check_pair(t * a, t * b, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert verify_certificate(d.certificate, t * a, t * b, 2)["ok"]
    assert oracle_check_pair(t * a, t * b, 2).verdict is Verdict.NOT_ORTHOGONAL
    collapsed = check_pair(t * a, t * b, 2, tol=Tolerances(cluster=1e-8))
    assert collapsed.verdict is Verdict.ORTHOGONAL
    assert collapsed.certificate.kind is CertKind.WITNESS_SYSTEM
    report = verify_certificate(collapsed.certificate, t * a, t * b, 2)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"norming"}


@pytest.mark.parametrize("t", [1.0, 1e8, 1e12])
def test_forged_witness_is_rejected_at_every_scale(t):
    # a rank-k witness purified to zero pairing on a frame that takes the
    # whole spectrum for one cluster: orthonormal, zero pairing, but it
    # norms A only to within the spread of that spectrum
    a, b = _first_random_pair()
    a, b = t * a, t * b
    assert check_pair(a, b, 2).verdict is Verdict.NOT_ORTHOGONAL
    forged = check_pair(a, b, 2, tol=Tolerances(cluster=1e3 * t)).certificate
    assert forged.kind is CertKind.WITNESS_SYSTEM
    report = verify_certificate(forged, a, b, 2)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"norming"}


def _neighbour_forgery(kind, gap):
    """A = diag(1, 1 - gap) with k = 1, a direction B the engine refutes,
    and a forged certificate of orthogonality built from the neighbouring
    singular value: X = e2 against B = -E11, as a pair or a one-matrix
    subspace, or the mixture x = sqrt(0.6) e1 + sqrt(0.4) e2 against
    B = diag(-0.4, 0.6), each with Y = polar(AX). Each pairs B to 0 and
    falls short of ||A||_(k) by gap, or 0.4 gap."""
    a = np.diag([1.0, 1.0 - gap]).astype(complex)
    if kind == "mixed":
        b = np.diag([-0.4, 0.6]).astype(complex)
        x = np.sqrt([[0.6], [0.4]]).astype(complex)
    else:
        b, x = np.diag([-1.0, 0.0]).astype(complex), np.eye(2)[:, [1]]
    y = a @ x / np.linalg.norm(a @ x)
    return a, b, Certificate(kind=CertKind.WITNESS_SYSTEM, weights=[1.0],
                             left=[y], right=[x.astype(complex)],
                             details={"purpose": "orthogonal"})


@pytest.mark.parametrize("kind, gap", [
    (kind, gap) for gap in (2e-8, 5e-8, 1e-7, 2e-7)
    for kind in ("witness", "density")] + [("mixed", 5e-8)])
def test_neighbouring_cluster_forgery_is_rejected(kind, gap, tmp_path,
                                                  capsys):
    # every gap is above the clustering width 1e-8, so the engine splits
    # the two values and refutes; the forged term pairs B to 0 but norms A
    # short by the gap, far above the rounding level
    a, b, cert = _neighbour_forgery(kind, gap)
    density = kind == "density"
    second = [b] if density else b
    decision = (check_subspace if density else check_pair)(a, second, 1)
    assert decision.verdict is Verdict.NOT_ORTHOGONAL
    report = verify_certificate(cert, a, second, 1)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"norming"}, report
    problem, forged = tmp_path / "p.json", tmp_path / "r.json"
    save_problem(problem, {"a": a, "b": b}, 1,
                 subspace=["b"] if density else None)
    save_report(forged, Decision(verdict=Verdict.ORTHOGONAL, margin=0.0,
                                 scale=decision.scale, certificate=cert))
    assert main(["verify", str(problem), str(forged)]) == 1
    assert "[FAIL] norming" in capsys.readouterr().out


def _near_tie_subspace(rng):
    """A with singular values 3, 2, 2 - 1e-4, 1, 0.5 and two directions
    annihilated by a subgradient that mixes the near tie, k = 2."""
    s = np.array([3.0, 2.0, 2.0 - 1e-4, 1.0, 0.5])
    u, v = haar_unitary(5, rng), haar_unitary(5, rng)
    a = (u * s) @ v.conj().T
    g = u[:, :1] @ v[:, :1].conj().T + 0.5 * u[:, 1:3] @ v[:, 1:3].conj().T
    basis = []
    for _ in range(2):
        w = random_matrix(5, rng)
        basis.append(w - (np.vdot(g, w) / np.vdot(g, g)) * g)
    return a, basis


def test_density_certificate_under_a_wide_cluster_verifies():
    # a cluster width of 1e-3 merges the near tie, and the subspace witness
    # norms A to within k (n - 1) times that width, the level a verifier
    # reading the same width allows
    rng = np.random.default_rng(4)
    wide = Tolerances(cluster=1e-3)
    for _ in range(8):
        a, basis = _near_tie_subspace(rng)
        d = check_subspace(a, basis, 2, tol=wide)
        assert d.verdict is Verdict.ORTHOGONAL
        assert d.certificate.kind is CertKind.WITNESS_SYSTEM
        assert verify_certificate(d.certificate, a, basis, 2, wide)["ok"]
        # at the default rounding level the mixture of the near tie no
        # longer norms A
        report = verify_certificate(d.certificate, a, basis, 2)
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert failed == {"norming"}


ZERO_CASES = {
    # (check_pair, its fallback corral witness, check_parallel,
    # check_subspace): verdict and certificate kind, each certificate
    # verifying. A = 0 is orthogonal to every direction, and the corral's
    # contractions on A's null space certify it for the pair and the
    # subspace alike
    "a_zero": ("ORTHOGONAL WITNESS_SYSTEM", "ORTHOGONAL WITNESS_SYSTEM",
               "DegenerateRank", "ORTHOGONAL WITNESS_SYSTEM"),
    "b_zero": ("ORTHOGONAL WITNESS_SYSTEM", "ORTHOGONAL WITNESS_SYSTEM",
               "PARALLEL WITNESS_SYSTEM", "ORTHOGONAL WITNESS_SYSTEM"),
    "both_zero": ("ORTHOGONAL WITNESS_SYSTEM",
                  "ORTHOGONAL WITNESS_SYSTEM", "DegenerateRank",
                  "ORTHOGONAL WITNESS_SYSTEM"),
}


@pytest.mark.parametrize("case", ZERO_CASES)
def test_zero_operands_are_pinned(case):
    # the zero cases hold without any floor: A = 0 has s1 = 0, so its
    # clustering width and every spectral bound are 0 as well
    rng = np.random.default_rng(5)
    a, b = random_matrix(3, rng), random_matrix(3, rng)
    zero = np.zeros((3, 3), complex)
    a = zero if case != "b_zero" else a
    b = zero if case != "a_zero" else b
    got = []
    for check, second in ((check_pair, b), (_block_certified, b),
                          (check_parallel, b), (check_subspace, [b])):
        d = _decide(check, a, second, 2)
        if isinstance(d, type):
            got.append(d.__name__)
            continue
        kind = d.certificate.kind.value if d.certificate else None
        got.append(f"{d.verdict.value} {kind}")
        assert d.margin >= 0.0 or d.verdict is Verdict.BOUNDARY
        if d.certificate is not None:
            assert verify_certificate(d.certificate, a, second, 2)["ok"]
    assert tuple(got) == ZERO_CASES[case]


def _hand_pairs():
    """The three hand pairs whose true margin is -0.5 scale but which the
    default frame, clustering at 1e-8 s1 and cutting the rank at 1e-12 s1,
    reads ORTHOGONAL: (A, B, k, and the witness the engine built before it
    checked the norming defect, written as terms, with that defect). The
    first mixes e1 and e2 across a gap of 5e-9; the second takes the null
    vector e3 for s2 = 1e-11; the third is the zero contraction at
    s2 = 1e-13, the mean of Y = [e1, +-e3] against X = [e1, e2]."""
    e = np.eye(3, dtype=complex)
    e22 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    x = np.array([[-1.0], [-1j]]) / np.sqrt(2.0)
    yield ("gap_5e-9", np.diag([1.0, 1.0 - 5e-9]).astype(complex),
           np.diag([-1.0, 1.0]).astype(complex), 1, [1.0], [x], [x], 2.5e-9)
    yield ("tail_1e-11", np.diag([1.0, 1e-11, 0.0]).astype(complex), e22, 2,
           [1.0], [e[:, [0, 2]]], [e[:, [0, 2]]], 1e-11)
    yield ("tail_1e-13", np.diag([1.0, 1e-13, 0.0]).astype(complex), e22, 2,
           [0.5, 0.5], [e[:, [0, 2]], e[:, [0, 2]] * [1.0, -1.0]],
           [e[:, :2], e[:, :2]], 1e-13)


HAND_PAIRS = {case[0]: case[1:] for case in _hand_pairs()}


@pytest.mark.parametrize("case", HAND_PAIRS)
def test_hand_pairs_lose_their_false_witness(case):
    # the old witness pairs B to 0 but norms A short by its defect, far
    # above the rounding level 64 n eps s1 (2.8e-14 at n = 2, 4.3e-14 at
    # n = 3): verify fails it on norming alone, and the engine, which
    # applies the same level, keeps its verdict and says why it carries
    # no certificate
    a, b, k, weights, left, right, eta = HAND_PAIRS[case]
    forged = Certificate(kind=CertKind.WITNESS_SYSTEM, weights=weights,
                         left=left, right=right,
                         details={"purpose": "orthogonal"})
    report = verify_certificate(forged, a, b, k)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"norming"}, report
    norming = next(c for c in report["checks"] if c["name"] == "norming")
    assert norming["value"] == pytest.approx(eta, rel=1e-3)
    level = 64.0 * a.shape[0] * np.finfo(float).eps
    assert norming["bound"] == pytest.approx(level, rel=1e-12)
    d = check_pair(a, b, k)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.certificate is None
    assert "norming defect" in d.details["certificate_error"]


def test_an_inflated_witness_fails_orthonormality():
    # scaling X by 1 + 2.5e-9 makes up the first hand pair's norming defect,
    # but leaves the dual ball by as much: the factors are held to the
    # rounding level, so the inflation fails there instead
    a, b, k, weights, left, right, eta = HAND_PAIRS["gap_5e-9"]
    inflated = Certificate(kind=CertKind.WITNESS_SYSTEM, weights=weights,
                           left=left, right=[(1.0 + eta) * right[0]],
                           details={"purpose": "orthogonal"})
    report = verify_certificate(inflated, a, b, k)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"orthonormal"}, report


@pytest.mark.census
def test_no_near_tie_witness_verifies_against_a_verified_refutation():
    # census by contradiction: a frame clustered at the rounding level
    # 64 n eps s1 refutes 40 of the near ties that the default frame reads
    # ORTHOGONAL, with a VIOLATION that verifies; none of those ORTHOGONAL
    # readings may carry a witness that verifies too. Of the 69 ORTHOGONAL
    # readings, the 25 at j >= 13 whose witness norms A to rounding keep
    # one
    from test_oracle import _near_tie_draws

    orthogonal = verified = contradicted = 0
    for _, a, b, k in _near_tie_draws():
        d = check_pair(a, b, k)
        if d.verdict is not Verdict.ORTHOGONAL:
            continue
        orthogonal += 1
        if d.certificate is None:
            assert "norming defect" in d.details["certificate_error"]
            continue
        assert verify_certificate(d.certificate, a, b, k)["ok"]
        verified += 1
        s1 = float(np.linalg.svd(a, compute_uv=False)[0])
        fine = Tolerances(cluster=64.0 * a.shape[0] * np.finfo(float).eps * s1)
        refuted = check_pair(a, b, k, tol=fine)
        contradicted += (refuted.verdict is Verdict.NOT_ORTHOGONAL
                         and refuted.certificate is not None
                         and verify_certificate(refuted.certificate, a, b, k,
                                                fine)["ok"])
    assert (orthogonal, verified, contradicted) == (69, 25, 0)


def _statement_bound(statement, c):
    """The right side of a verify statement at the scalars c."""
    return statement["norm_a"] - statement["eta"] - sum(
        abs(cj) * rho for cj, rho in zip(c, statement["rho"]))


@settings(deadline=None, max_examples=40)
@given(seed=seeds, subspace=st.booleans(), perturb=st.booleans())
def test_a_verified_witness_bounds_every_norm_it_states(seed, subspace,
                                                        perturb):
    # ||A + sum_j c_j W_j||_(k) >= ||A||_(k) - eta - sum_j |c_j| rho_j for
    # a witness that verifies, at random scalars of every size and at the
    # referee's chord point, up to the rounding of the norm itself
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(1, n))
    q = 1 + int(rng.integers(0, k))
    r = int(rng.integers(0, n - k + 1))
    if subspace:
        m = int(rng.integers(1, 4))
        a, basis, _ = make_subspace_instance(n, k, m, rng, q=q, r=r)
    else:
        a, b, _ = make_orthogonal_pair(n, k, rng, q=q, r=r)
        basis = [b]
    if perturb:
        # a tilt of 1e-7 of each matrix's norm: the reading may turn
        # BOUNDARY, or stay ORTHOGONAL with pairings of that size
        basis = [w + 1e-7 * np.linalg.norm(w) * random_matrix(n, rng)
                 / np.sqrt(n) for w in basis]
    second = basis if subspace else basis[0]
    d = (check_subspace if subspace else check_pair)(a, second, k)
    cert = d.certificate
    if cert is None or cert.kind is not CertKind.WITNESS_SYSTEM:
        return
    report = verify_certificate(cert, a, second, k)
    if not report["ok"]:
        return
    statement = report["statement"]
    norms = [float(np.linalg.svd(w, compute_uv=False)[:k].sum())
             for w in basis]
    norm_a = statement["norm_a"]
    points = []
    for size in 10.0 ** rng.uniform(-9.0, 3.0, size=12):
        c = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        points.append(size * norm_a * c / max(norms))
    if not subspace:
        orc = oracle_check_pair(a, basis[0], k)
        points.append(np.array([orc.details["chord_point"]]))
    for c in points:
        value = float(np.linalg.svd(a + sum(cj * w for cj, w in zip(c, basis)),
                                    compute_uv=False)[:k].sum())
        rounding = 64.0 * n * np.finfo(float).eps * (
            norm_a + sum(abs(cj) * nw for cj, nw in zip(c, norms)))
        assert value >= _statement_bound(statement, c) - rounding


# ---------------------------------------------------------------------------
# floor guard


# clauses whose bound is a norm-valued quantity; every other bound is a
# pure number
_NORM_UNITS = ("pairing", "triangle_equality", "norming", "basis_pairing_",
               "claimed_norm_matches", "chord_rate")


def _guarded_certificates():
    rng = np.random.default_rng(17)
    a, b, _ = make_orthogonal_pair(5, 2, rng, q=1, r=1)
    yield "witness", check_pair(a, b, 2).certificate, a, b
    yield "block", _block_certified(a, b, 2).certificate, a, b
    a, b, _ = make_parallel_pair(4, 2, rng)
    yield "parallel", check_parallel(a, b, 2).certificate, a, b
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    yield "violation", check_pair(a, b, 2).certificate, a, b
    a, basis, _ = make_subspace_instance(6, 3, 2, rng, q=2, r=1)
    yield "subspace", check_subspace(a, basis, 3).certificate, a, basis


def _scaled(cert, second, t):
    """The certificate in the units of (tA, tB), and the scaled second
    operand: only a VIOLATION records a norm value."""
    if cert.norm_value is not None:
        cert = dataclasses.replace(cert, norm_value=t * cert.norm_value)
    if isinstance(second, list):
        return cert, [t * w for w in second]
    return cert, t * second


@pytest.mark.parametrize("t", [1e-12, 1e-6, 1e6, 1e12])
def test_clause_bounds_scale_with_the_problem(t):
    # verifying one certificate against (A, B) and (tA, tB): a bound in norm
    # units moves by t, a dimensionless one not at all, so an order-one
    # floor anywhere in a verifier shows here
    kinds = set()
    for name, cert, a, second in _guarded_certificates():
        k = 3 if name == "subspace" else 2
        base = verify_certificate(cert, a, second, k)
        cert_t, second_t = _scaled(cert, second, t)
        moved = verify_certificate(cert_t, t * a, second_t, k)
        assert base["ok"] and moved["ok"], name
        assert [c["name"] for c in moved["checks"]] == [
            c["name"] for c in base["checks"]]
        for before, after in zip(base["checks"], moved["checks"]):
            if before["name"].startswith(_NORM_UNITS):
                assert after["bound"] == pytest.approx(
                    t * before["bound"], rel=1e-12, abs=0.0), before["name"]
            else:
                assert after["bound"] == before["bound"], before["name"]
        kinds.add(cert.kind)
    assert kinds == set(CertKind)
