"""Package acceptance checks.

One test per criterion; each line of the report is one pass/fail verdict.
Instances are desk scale (n <= 6) with fixed seeds, and the whole file is
budgeted to run in well under five minutes.
"""

import json

import numpy as np
import pytest

from kyfanorth.cli import main as cli_main
from kyfanorth.decide import (
    _pair_search,
    _pair_setup,
    _corral_witness,
    check_pair,
    check_parallel,
    check_subspace,
)
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
)
from kyfanorth.io import save_problem, save_report
from kyfanorth.linalg import singular_values
from kyfanorth.model import COMPLEX_FIELD, REAL_FIELD, CertKind, Verdict
from kyfanorth.norms import ky_fan_norm
from kyfanorth.oracle import (
    fd_directional,
    oracle_check_pair,
    oracle_check_parallel,
    sample_range_points,
)
from kyfanorth.subdiff import (
    build_frame,
    directional_derivative,
    sample_subgradient,
    subgradient_membership,
)
from kyfanorth.verify import verify_certificate

pytestmark = pytest.mark.acceptance


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _pair_corpus(rng, n, k, count):
    """Mixed family of labeled random instances for one (n, k)."""
    out = []
    for i in range(count):
        bucket = i % 10
        if bucket < 4:
            out.append((complex_gauss(rng, n, n), complex_gauss(rng, n, n)))
        elif bucket < 7:
            q = 1 + (i // 10) % k
            r = 1 if (i % 20 < 10 and k + 1 <= n) else 0
            a, b, _ = make_orthogonal_pair(n, k, rng, q=q, r=r)
            out.append((a, b))
        elif bucket < 8 and k >= 2:
            q = 1 + (i // 10) % (k - 1) if k > 1 else 1
            a, b, _ = make_orthogonal_pair(n, k, rng, q=q, degenerate=True)
            out.append((a, b))
        else:
            a, b, _ = make_nonorthogonal_pair(n, k, rng)
            out.append((a, b))
    return out


def test_c01_engine_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(101)
    probe_evals, refine_rounds, settled = [], [], 0
    for k in (1, 2, 3, 4):
        disagreements = 0
        boundary = 0
        for a, b in _pair_corpus(rng, 4, k, 200):
            eng = check_pair(a, b, k, want_certificate=False)
            orc = oracle_check_pair(a, b, k)
            s = singular_values(a)
            # a settled reading stops at the strided probe, its inner ring
            # and the tail: 2 + 16 + 16 + 13 norms and no refinement round
            if orc.details.get("settled"):
                settled += 1
                assert orc.details["chord_evals"] == 47
                assert orc.details["refine_rounds"] == 0
            # a refutation stops after the strided phases, before any
            # minorant is taken, and a settled reading runs neither the
            # pruning nor the refinement, so only the other full scans
            # show them
            elif (s[k - 1] > 1e-10 * s[0]
                    and orc.details["probe_minorants"] > 0):
                probe_evals.append(orc.details["probe_evals"])
            # the dip check runs on every ORTHOGONAL chord verdict and
            # settles each one within its count
            if orc.details["dip_status"] != "skipped":
                assert orc.details["dip_status"] != "capped"
                assert orc.details["dip_evals"] <= 1000
            # the probe's own Fan minorants clear every ORTHOGONAL reading,
            # and its refinement stops once the window is flat to rounding
            if orc.verdict is Verdict.ORTHOGONAL:
                assert orc.details["dip_status"] == "cleared"
                assert orc.details["dip_evals"] == 0
                if not orc.details.get("settled"):
                    refine_rounds.append(orc.details["refine_rounds"])
            if Verdict.BOUNDARY in (eng.verdict, orc.verdict):
                boundary += 1
                continue
            if eng.verdict is not orc.verdict:
                disagreements += 1
        assert disagreements == 0, f"k={k}: {disagreements} disagreements"
        assert boundary <= 10, f"k={k}: {boundary} boundary exclusions"
    # the 150 pairs with 0 inside a two-dimensional pairing set (r = 1 or
    # s_k = 0) settle; on the 150 others the Fan minorants rule out most of
    # the 512 probe phases and the refinement stops early (counts, so no
    # timing noise)
    assert settled >= 140, settled
    assert len(probe_evals) >= 140, len(probe_evals)
    assert np.median(probe_evals) <= 128, np.median(probe_evals)
    assert len(refine_rounds) >= 140, len(refine_rounds)
    assert np.median(refine_rounds) <= 4, np.median(refine_rounds)


def test_c02_pair_and_block_criteria_cross_consistent():
    # at a positive boundary value every ORTHOGONAL pair's fallback
    # certificate, the search's corral of rank-q projectors, verifies
    rng = np.random.default_rng(202)
    checked_positive_rank = 0
    for i in range(200):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        if i % 2:
            a = complex_gauss(rng, n, n)
            b = complex_gauss(rng, n, n)
        else:
            q = 1 + int(rng.integers(0, k))
            a, b, _ = make_orthogonal_pair(n, k, rng, q=q)
        s = singular_values(a)
        if s[k - 1] <= 1e-10 * s[0]:
            continue
        d = check_pair(a, b, k, want_certificate=False)
        if d.verdict is not Verdict.ORTHOGONAL:
            continue
        setup = _pair_setup(a, b, k)
        cert = _corral_witness(setup, _pair_search(setup, COMPLEX_FIELD),
                               COMPLEX_FIELD)
        assert cert.kind is CertKind.WITNESS_SYSTEM
        assert verify_certificate(cert, a, b, k)["ok"], (i, n, k)
        checked_positive_rank += 1
    assert checked_positive_rank >= 90

    # at a zero boundary value the block criterion referees against the
    # norm-evaluation oracle
    agreed = 0
    for i in range(50):
        k = int(rng.integers(2, 5))
        if i % 2:
            a, b, _ = make_orthogonal_pair(4, k, rng,
                                           q=1 + int(rng.integers(0, k - 1)),
                                           degenerate=True)
        else:
            a, _, _ = make_singular_pair(4, k, rng)
            b = complex_gauss(rng, 4, 4)
        eng = check_pair(a, b, k, want_certificate=False)
        orc = oracle_check_pair(a, b, k)
        if Verdict.BOUNDARY in (eng.verdict, orc.verdict):
            continue
        assert eng.verdict is orc.verdict, (i, k)
        agreed += 1
    assert agreed >= 40


def test_c03_operator_norm_witness_vector():
    rng = np.random.default_rng(303)
    for i in range(50):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(0, 3)) if n >= 4 else 0
        a, b, _ = make_orthogonal_pair(n, 1, rng, q=1, r=r)
        a = a / singular_values(a)[0]
        b = b / max(ky_fan_norm(b, 1), 1e-12)
        d = check_pair(a, b, 1)
        assert d.verdict is Verdict.ORTHOGONAL, i
        cert = d.certificate
        assert cert is not None and cert.kind is CertKind.WITNESS_SYSTEM, i
        assert len(cert.right) == 1, i
        x = cert.right[0][:, 0]
        ax = a @ x
        bx = b @ x
        assert abs(np.linalg.norm(ax) - 1.0) <= 1e-7, i
        assert abs(np.vdot(ax, bx)) <= 1e-7, i


def test_c04_trace_norm_sign_criterion_on_singular_inputs():
    rng = np.random.default_rng(404)
    compared = 0
    for i in range(200):
        n = 4
        if i % 2:
            a, _, _ = make_singular_pair(n, n, rng,
                                         rank=int(rng.integers(1, n)))
            b = complex_gauss(rng, n, n)
        else:
            q = 1 + int(rng.integers(0, n - 1))
            a, b, _ = make_orthogonal_pair(n, n, rng, q=q, degenerate=True)
        u, s, vh = np.linalg.svd(a)
        rank = int(np.sum(s > 1e-9 * max(s[0], 1e-300)))
        head = u[:, :rank].conj().T @ b @ vh[:rank, :].conj().T
        tail = u[:, rank:].conj().T @ b @ vh[rank:, :].conj().T
        reference = np.linalg.svd(tail, compute_uv=False).sum() \
            - abs(np.trace(head))
        scale = ky_fan_norm(a, n) + ky_fan_norm(b, n)
        d = check_pair(a, b, n, want_certificate=False)
        if abs(reference) <= 1e-7 * scale or d.verdict is Verdict.BOUNDARY:
            continue
        want = Verdict.ORTHOGONAL if reference > 0 else Verdict.NOT_ORTHOGONAL
        assert d.verdict is want, (i, reference)
        compared += 1
    assert compared >= 150


def test_c05_directional_derivative_matches_finite_differences():
    rng = np.random.default_rng(505)
    for i in range(500):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        a = complex_gauss(rng, n, n)
        x = complex_gauss(rng, n, n)
        dd = directional_derivative(a, k, x)
        fd_full = fd_directional(a, x, k, 1e-6)
        fd_half = fd_directional(a, x, k, 5e-7)
        assert abs(fd_full - dd) <= 1e-4, i
        assert abs(fd_half - dd) <= 1e-4, i
        # chords of a convex profile shrink monotonically toward the limit
        assert fd_full >= fd_half - 1e-9, i
        assert fd_half >= dd - 1e-9, i


def test_c06_sampled_subgradients_pass_membership():
    rng = np.random.default_rng(606)
    for i in range(1000):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        a = complex_gauss(rng, n, n)
        frame = build_frame(a, k)
        g = sample_subgradient(a, k, rng=rng, frame=frame)
        assert subgradient_membership(a, k, g, tol=1e-8), i
        x = complex_gauss(rng, n, n)
        pairing = float(np.real(np.trace(g.conj().T @ x)))
        assert pairing <= directional_derivative(a, k, x, frame=frame) \
            + 1e-8, i


def test_c07_pairing_set_midpoints_stay_inside_support():
    rng = np.random.default_rng(707)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    midpoints = 0
    for i in range(10):
        n = 5
        k = 2 + i % 3
        if i % 3 == 0:
            a, b, _ = make_orthogonal_pair(n, k, rng, q=1 + i % 2)
        else:
            a = complex_gauss(rng, n, n)
            b = complex_gauss(rng, n, n)
        model = build_frame(a, k).range_model(b)
        h = model.support(thetas)
        pts = np.asarray(sample_range_points(a, b, k, count=200, rng=rng))
        first = pts[rng.integers(0, len(pts), size=100)]
        second = pts[rng.integers(0, len(pts), size=100)]
        mids = 0.5 * (first + second)
        for z in mids:
            slack = h - np.real(np.exp(-1j * thetas) * z)
            assert slack.min() >= -1e-7, (i, z)
            midpoints += 1
    assert midpoints == 1000


def test_c08_subspace_round_trip_and_singleton_consistency():
    rng = np.random.default_rng(808)
    for i in range(40):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        m = int(rng.integers(1, 6))
        q = 1 + int(rng.integers(0, k))
        a, basis, _ = make_subspace_instance(n, k, m, rng, q=q)
        d = check_subspace(a, basis, k)
        assert d.verdict is Verdict.ORTHOGONAL, (i, n, k, m, d.margin)
        cert = d.certificate
        assert cert is not None and cert.kind is CertKind.WITNESS_SYSTEM
        frame = build_frame(a, k)
        s, v = frame.svd.s, frame.svd.v
        abs_a = (v * s) @ v.conj().T
        # each term's columns are eigenvectors of |A| for s_1..s_k, and
        # A maps them onto its left factor: Y X* norms A
        g = np.zeros((n, n), dtype=complex)
        assert sum(cert.weights) == pytest.approx(1.0, abs=1e-12)
        for w, y, x in zip(cert.weights, cert.left, cert.right):
            assert w > 0.0
            assert np.abs(abs_a @ x - x * s[:k]).max() <= 1e-6 * (1 + s[0])
            assert np.abs(a @ x - y * s[:k]).max() <= 1e-6 * (1 + s[0])
            assert np.abs(x.conj().T @ x - np.eye(k)).max() <= 1e-8
            assert np.abs(y.conj().T @ y - np.eye(k)).max() <= 1e-8
            g += w * y @ x.conj().T
        assert np.linalg.norm(g, 2) <= 1.0 + 1e-6
        for w_j in basis:
            assert abs(np.trace(w_j.conj().T @ g)) <= 1e-6 * (
                1 + ky_fan_norm(a, k))

    matched = 0
    for i in range(200):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        if i % 2:
            a, b, _ = make_orthogonal_pair(n, k, rng)
        else:
            a = complex_gauss(rng, n, n)
            b = complex_gauss(rng, n, n)
        d_pair = check_pair(a, b, k, want_certificate=False)
        d_sub = check_subspace(a, [b], k, want_certificate=False)
        if Verdict.BOUNDARY in (d_pair.verdict, d_sub.verdict):
            continue
        assert d_pair.verdict is d_sub.verdict, (i, n, k)
        matched += 1
    assert matched >= 190


def test_c09_parallelism_construction_and_grid_referee():
    rng = np.random.default_rng(909)
    for i in range(50):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        if i % 3 == 0:
            a = complex_gauss(rng, n, n)
            c = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b = c * a
        else:
            a, b, _ = make_parallel_pair(n, k, rng)
        d = check_parallel(a, b, k)
        assert d.verdict is Verdict.PARALLEL, (i, n, k, d.margin)
        lam = complex(d.details["lambda_re"], d.details["lambda_im"])
        assert abs(abs(lam) - 1.0) <= 1e-9
        target = ky_fan_norm(a, k) + ky_fan_norm(b, k)
        assert abs(ky_fan_norm(a + lam * b, k) - target) <= 1e-7 * target

    agreed = 0
    for i in range(100):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n + 1))
        a = complex_gauss(rng, n, n)
        b = complex_gauss(rng, n, n)
        eng = check_parallel(a, b, k, want_certificate=False)
        orc = oracle_check_parallel(a, b, k)
        if Verdict.BOUNDARY in (eng.verdict, orc.verdict):
            continue
        assert eng.verdict is orc.verdict, (i, n, k)
        agreed += 1
    assert agreed >= 95


def _emit(tmp_path, tag, matrices, k, decision, subspace=None, field=None):
    problem = tmp_path / f"{tag}_problem.json"
    report = tmp_path / f"{tag}_report.json"
    kwargs = {}
    if field is not None:
        kwargs["field_name"] = field
    save_problem(problem, matrices, k, subspace=subspace, **kwargs)
    save_report(report, decision)
    return str(problem), str(report)


def _tampered(report_path, mutate):
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    mutate(payload["certificate"])
    out = report_path.replace(".json", "_tampered.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return out


def test_c10_certificate_loop_pass_and_tamper_fail(tmp_path):
    rng = np.random.default_rng(1010)
    cases = []

    a, b, _ = make_orthogonal_pair(4, 2, rng, q=2)
    d = check_pair(a, b, 2)
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    cases.append((_emit(tmp_path, "witness", {"a": a, "b": b}, 2, d),
                  lambda c: c["right"][0]["re"].__setitem__(0,
                      c["right"][0]["re"][0] + 1e-2)))

    a, b, _ = make_orthogonal_pair(4, 2, rng, field=REAL_FIELD)
    d = check_pair(a, b, 2, field=REAL_FIELD)
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    cases.append((_emit(tmp_path, "witness_real", {"a": a, "b": b}, 2, d,
                        field=REAL_FIELD),
                  lambda c: c["left"][0]["im"].__setitem__(0,
                      c["left"][0]["im"][0] + 1e-2)))

    a, b, _ = make_orthogonal_pair(5, 3, rng, q=2, degenerate=True)
    d = check_pair(a, b, 3)
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    cases.append((_emit(tmp_path, "corral", {"a": a, "b": b}, 3, d),
                  lambda c: c["weights"].__setitem__(0,
                      c["weights"][0] + 1e-2)))

    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    d = check_pair(a, b, 2)
    assert d.certificate.kind is CertKind.VIOLATION
    cases.append((_emit(tmp_path, "violation", {"a": a, "b": b}, 2, d),
                  lambda c: c.__setitem__("coefficient",
                      [c["coefficient"][0] * 1.01 + 1e-2,
                       c["coefficient"][1]])))

    a, b, _ = make_parallel_pair(4, 2, rng)
    d = check_parallel(a, b, 2)
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    cases.append((_emit(tmp_path, "parallel", {"a": a, "b": b}, 2, d),
                  lambda c: c["right"][0]["re"].__setitem__(0,
                      c["right"][0]["re"][0] + 1e-2)))

    a, basis, _ = make_subspace_instance(5, 2, 3, rng, orthogonal=True)
    d = check_subspace(a, basis, 2)
    assert d.certificate.kind is CertKind.WITNESS_SYSTEM
    matrices = {"a": a}
    names = []
    for j, w in enumerate(basis):
        matrices[f"w{j}"] = w
        names.append(f"w{j}")
    cases.append((_emit(tmp_path, "subspace", matrices, 2, d,
                        subspace=names),
                  lambda c: c["left"][-1]["re"].__setitem__(0,
                      c["left"][-1]["re"][0] + 1e-2)))

    a, basis, _ = make_subspace_instance(5, 2, 3, rng, orthogonal=False)
    d = check_subspace(a, basis, 2)
    assert d.certificate.kind is CertKind.VIOLATION
    matrices = {"a": a}
    names = []
    for j, w in enumerate(basis):
        matrices[f"w{j}"] = w
        names.append(f"w{j}")
    cases.append((_emit(tmp_path, "subspace_violation", matrices, 2, d,
                        subspace=names),
                  lambda c: c["details"]["combination"][0].__setitem__(0,
                      c["details"]["combination"][0][0] + 1e-2)))

    for (problem_path, report_path), mutate in cases:
        assert cli_main(["verify", problem_path, report_path]) == 0, \
            problem_path
        bad = _tampered(report_path, mutate)
        assert cli_main(["verify", problem_path, bad]) == 1, problem_path
