import ast
import cmath
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import kyfanorth.oracle
from kyfanorth.decide import check_pair
from kyfanorth.errors import KOutOfRange, ShapeMismatch
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_subspace_instance,
    random_matrix,
)
from kyfanorth.linalg import as_matrix, haar_unitary
from kyfanorth.model import CertKind, Tolerances, Verdict
from kyfanorth.norms import ky_fan_norm, ky_fan_norm_batch
from kyfanorth.oracle import (
    _PROBE_PHASES,
    _PROBE_STRIDE,
    _REFINE_ROUNDS,
    _TAIL_RADII,
    _chord_scan,
    _dip_check,
    _minorants_clear,
    _with_minorant_at,
    fd_directional,
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
    sample_range_points,
)
from kyfanorth.subdiff import directional_derivative, subgradient_membership
from kyfanorth.verify import verify_certificate


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pair_norms(a, b, k):
    norm_a, norm_b = ky_fan_norm(a, k), ky_fan_norm(b, k)
    return norm_a, norm_b, 1e-3 * (norm_a + norm_b)


def _tilted_pair(rng):
    """An orthogonal 4x4 pair whose B is tilted by a random Ginibre
    direction of relative size 10^-2.5 to 1: about one in eight dips by
    the referee's 1e-3 scale somewhere, some of them barely."""
    k = int(rng.integers(1, 5))
    q = int(rng.integers(1, k + 1))
    r = int(rng.integers(0, 2)) if k < 4 else 0
    a, b, _ = make_orthogonal_pair(4, k, rng, q=q, r=r)
    g = complex_gauss(rng, 4, 4)
    eta = 10.0 ** rng.uniform(-2.5, 0.0)
    return a, b + eta * ky_fan_norm(b, k) * g / ky_fan_norm(g, k), k


def _reference_min(a, b, k, norm_a, norm_b) -> float:
    """min over c of ||A + c B||_(k): a dense polar scan of the disk
    |c| <= 2 ||A|| / ||B||, outside which no scalar dips, then Nelder-Mead
    from the three lowest scan points."""
    reach = 2.0 * norm_a / norm_b
    cs = (np.linspace(0.0, reach, 31)[1:, None]
          * np.exp(2j * np.pi * np.arange(96) / 96)[None, :]).ravel()
    vals = ky_fan_norm_batch(a[None] + cs[:, None, None] * b[None], k)
    best = float(vals.min())

    def f(xy):
        return ky_fan_norm(a + complex(xy[0], xy[1]) * b, k)

    for i in np.argsort(vals)[:3]:
        res = scipy.optimize.minimize(
            f, [cs[i].real, cs[i].imag], method="Nelder-Mead",
            options={"xatol": 1e-8 * reach, "fatol": 1e-10 * norm_a,
                     "maxiter": 400})
        best = min(best, float(res.fun))
    return best


def _probe_clears(a, b, k, depth) -> bool:
    """Whether the Fan minorants of a full chord scan of (A, B) clear the
    annulus where a dip of depth could lie, the probe's 16 first and then
    with one more at the scan's chord point, as the referee reads them."""
    norm_a, norm_b = ky_fan_norm(a, k), ky_fan_norm(b, k)
    _, _, scan, minorants = _chord_scan(a, b, k, norm_a, norm_b)
    return any(_minorants_clear(m, a.shape[0], norm_a, norm_b, depth)
               for m in (minorants, _with_minorant_at(
                   minorants, a, b, k, scan["chord_point"])))


def test_dip_check_finds_cancellation(rng):
    # b cancels a along c = -1 exactly; the minorants leave it to the grid
    a = complex_gauss(rng, 4, 4)
    norm_a, _, depth = _pair_norms(a, a, 2)
    assert not _probe_clears(a, a, 2, depth)
    out = _dip_check(a, a, 2, norm_a, norm_a, depth)
    assert out["dip_status"] == "dip"
    assert out["dip_value"] == ky_fan_norm(a + out["dip_point"] * a, 2)
    assert out["dip_value"] <= 1e-3 * norm_a
    assert abs(out["dip_point"] - (-1.0)) <= 1e-3


def test_ky_fan_norm_convex_in_the_scalar(rng):
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


def test_dip_check_clears_flat_directions():
    # ||diag(1, 0) + c diag(0, 1)||_(1) = max(1, |c|) is flat on the unit
    # disk, where the phase Lipschitz bound alone never closes
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    d = oracle_check_pair(a, b, 1)
    assert d.verdict is Verdict.ORTHOGONAL
    assert d.details["dip_status"] == "cleared"
    assert d.details["dip_evals"] <= 200


def test_dip_check_on_either_side_of_the_threshold():
    # ||diag(1, 0) + c diag(-beta, 1)||_(1) = max(|1 - c beta|, |c|) has
    # its minimum 1 - beta / (1 + beta) at c = 1 / (1 + beta)
    a = np.diag([1.0, 0.0]).astype(complex)
    for excess, dips in ((0.95, False), (1.05, True)):
        share = excess * 2e-3
        b = np.diag([-share / (1.0 - share), 1.0]).astype(complex)
        norm_a, norm_b, depth = _pair_norms(a, b, 1)
        assert 1.0 / (1.0 - b[0, 0]) == pytest.approx(norm_a - excess * depth)
        out = _dip_check(a, b, 1, norm_a, norm_b, depth)
        if dips:
            assert not _probe_clears(a, b, 1, depth)
            assert out["dip_status"] == "dip"
            assert out["dip_value"] < norm_a - depth
        else:
            assert out["dip_status"] in ("cleared", "capped")
            if out["dip_status"] == "capped":
                assert "cells still open" in out["dip_reason"]


def test_dip_check_against_dense_reference():
    """Tilted pairs around the threshold against a dense scan polished by
    Nelder-Mead: cleared never where the reference dips below a - depth, a
    witness re-evaluates below it, and every reference dip of 1.05 depth
    is witnessed, not capped."""
    rng = np.random.default_rng(6)
    dips = cleared = 0
    for i in range(80):
        a, b, k = _tilted_pair(rng)
        norm_a, norm_b, depth = _pair_norms(a, b, k)
        out = _dip_check(a, b, k, norm_a, norm_b, depth,
                         rng.uniform(0.0, 2.0 * np.pi))
        low = _reference_min(a, b, k, norm_a, norm_b)
        status = out["dip_status"]
        if status == "cleared":
            cleared += 1
            assert low >= norm_a - depth, (i, (norm_a - low) / depth)
        if status == "dip":
            assert ky_fan_norm(a + out["dip_point"] * b, k) < norm_a - depth
        if low < norm_a - 1.05 * depth:
            dips += 1
            assert status == "dip", (i, (norm_a - low) / depth, out)
    assert dips >= 5 and cleared >= 50, (dips, cleared)


def test_minorant_clearance_against_dense_reference():
    """The probe's Fan minorants clear the annulus only where the dense
    reference finds no dip below a - depth; the draws they leave open
    include witnessed dips, so the clearance is not vacuous."""
    rng = np.random.default_rng(6)
    cleared = refused_dips = 0
    for i in range(200):
        a, b, k = _tilted_pair(rng)
        norm_a, norm_b, depth = _pair_norms(a, b, k)
        if _probe_clears(a, b, k, depth):
            cleared += 1
            low = _reference_min(a, b, k, norm_a, norm_b)
            assert low >= norm_a - depth, (i, (norm_a - low) / depth)
            continue
        out = _dip_check(a, b, k, norm_a, norm_b, depth)
        if out["dip_status"] == "dip":
            assert ky_fan_norm(a + out["dip_point"] * b, k) < norm_a - depth
            refused_dips += 1
    assert cleared >= 90 and refused_dips >= 20, (cleared, refused_dips)


def test_minorant_clearance_holds_its_own_bound():
    """Whatever the minorants, a cleared annulus is one on which their
    bound max_j alpha_j + Re(c beta_j), less the slack (d + 128 n eps)
    (a + |c| b), stays at or above a - depth: checked on a dense polar
    grid. The draws put two or three minorants almost opposite, with gaps
    between their cleared phases of up to a few sectors' width, some
    alpha_j more than depth below a and isometry defects up to 1e-3, so
    that the sector width, the inner radius and the slack each decide
    some draws."""
    rng = np.random.default_rng(8)
    arcs = kyfanorth.oracle._CLEARANCE_ARCS
    phis = np.linspace(0.0, 2.0 * np.pi, 8 * arcs, endpoint=False)
    cleared = 0
    for i in range(300):
        norm_a, norm_b = 1.0, rng.uniform(0.5, 2.0)
        depth = 1e-3 * (norm_a + norm_b)
        j = int(rng.integers(2, 4))
        psi = (rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(j) / j
               + rng.uniform(-4.0, 4.0, j) * np.pi / arcs)
        beta = norm_b * rng.uniform(0.5, 1.0, j) * np.exp(1j * psi)
        alpha = norm_a - depth * rng.uniform(0.0, 1.5, j)
        defect = 10.0 ** rng.uniform(-6.0, -3.0)
        if not _minorants_clear((alpha, beta, defect), 4, norm_a, norm_b,
                                depth):
            continue
        cleared += 1
        ts = np.geomspace(depth / norm_b, 2.0 * norm_a / norm_b, 9)
        cs = ts[:, None, None] * np.exp(1j * phis)[None, :, None]
        slack = defect + 128.0 * 4 * np.finfo(float).eps
        bound = (alpha + (cs * beta).real).max(axis=2) \
            - slack * (norm_a + ts[:, None] * norm_b)
        assert bound.min() >= norm_a - depth, (i, bound.min() - norm_a)
    assert 60 <= cleared <= 240, cleared


def _planted_wrong_answers():
    """Inputs labelled ORTHOGONAL by construction and then tilted, whose
    engine verdict is NOT_ORTHOGONAL with a VIOLATION certificate that
    verifies: orthogonal pairs, tied clusters and both jointly scaled."""
    rng = np.random.default_rng(44)
    planted = []
    for i in range(48):
        if i % 3 == 2:
            n = 5 + i % 2
            k, q, r = 4, 4, n - 4
        else:
            n, k = 4, 1 + i % 4
            q = 1 + int(rng.integers(0, k))
            r = int(rng.integers(0, 2)) if k < 4 else 0
        a, b0, _ = make_orthogonal_pair(n, k, rng, q=q, r=r)
        # A / ||A|| pairs to 1 with every subgradient at A, so this shifts
        # the pairing set by `shift`
        shift = 10.0 ** rng.uniform(-3.0, 0.0) * cmath.exp(
            2j * np.pi * rng.uniform())
        b = b0 + shift * (ky_fan_norm(a, k) + ky_fan_norm(b0, k)) \
            * a / ky_fan_norm(a, k)
        d = check_pair(a, b, k)
        if d.verdict is not Verdict.NOT_ORTHOGONAL:
            continue
        assert d.certificate.kind is CertKind.VIOLATION
        assert verify_certificate(d.certificate, a, b, k)["ok"]
        for e in (0, -9, 9):
            planted.append((10.0 ** e * a, 10.0 ** e * b, k))
    return planted


def test_referee_catches_planted_wrong_answers():
    planted = _planted_wrong_answers()
    assert len(planted) >= 60
    for j, (a, b, k) in enumerate(planted):
        d = oracle_check_pair(a, b, k)
        assert d.verdict is not Verdict.ORTHOGONAL, (j, d.margin / d.scale)


@settings(deadline=None, max_examples=20)
@given(seed=seeds)
def test_dip_status_invariant_under_the_symmetries(seed):
    """The status of the dip check is unchanged under joint scaling, a
    unitary equivalence, the adjoint and a phase on B, with the sampled
    phases carried along; a witness rotates with the phase. Separate
    scaling (tA, sB) is left out on purpose: depth = 1e-3 (a + b) is not
    homogeneous in A and B separately, so it moves the threshold itself."""
    rng = np.random.default_rng(seed)
    a, b, k = _tilted_pair(rng)
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def status(x, y, at):
        return _dip_check(x, y, k, *_pair_norms(x, y, k), at)

    base = status(a, b, phase)["dip_status"]
    t = 10.0 ** rng.uniform(-150.0, 150.0)
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    assert status(t * a, t * b, phase)["dip_status"] == base
    assert status(u @ a @ v, u @ b @ v, phase)["dip_status"] == base
    assert status(a.conj().T, b.conj().T, -phase)["dip_status"] == base
    turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    turned = status(a, turn * b, phase - cmath.phase(turn))
    assert turned["dip_status"] == base
    if base == "dip":
        norm_a, _, depth = _pair_norms(a, b, k)
        assert ky_fan_norm(a + turned["dip_point"] * turn * b, k) \
            < norm_a - depth


def _curved_boundary_pair(rng, psi):
    """A = diag(1, 0, 0, 0) and B = e^{i psi} diag(-1, 1, 0, 0), in a random
    unitary frame, with k = 2. The pairing set is the disk of radius 1
    about -e^{i psi}, so ||A + c B||_(2) = |1 - c e^{i psi}| + |c| >= 1 and
    0 sits on the disk's rim. Unless psi is a multiple of the stride, none
    of the probe's 16 strided phases exposes 0, their minorants' polygon
    misses it, and the dip check has to run."""
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    return (u @ np.diag([1.0, 0.0, 0.0, 0.0]) @ v,
            cmath.exp(1j * psi) * (u @ np.diag([-1.0, 1.0, 0.0, 0.0]) @ v))


def test_a_minorant_at_the_chord_point_clears_curved_rims():
    # the 16 strided minorants leave 0 on the rim uncovered; the 17th, taken
    # at the refined chord point, clears the annulus with no norm evaluation
    rng = np.random.default_rng(7)
    for psi in (0.05, 0.1, 0.2, 0.3, 0.34, 0.35):
        a, b = _curved_boundary_pair(rng, psi)
        d = oracle_check_pair(a, b, 2)
        norm_a, norm_b = d.details["norm_a"], d.details["norm_b"]
        minorants = _chord_scan(a, b, 2, norm_a, norm_b)[3]
        assert not _minorants_clear(minorants, 4, norm_a, norm_b,
                                    1e-3 * d.scale)
        assert d.verdict is Verdict.ORTHOGONAL
        assert d.details["dip_status"] == "cleared"
        assert d.details["dip_evals"] == 0


def test_capped_dip_check_reads_boundary(monkeypatch):
    # with no budget for a refinement round, a pair that neither the
    # minorants nor the first rings clear must read BOUNDARY with the
    # reason, never ORTHOGONAL in silence; the curved rims need no dip check
    # once a minorant is taken at the chord point, so the clearance is off
    monkeypatch.setattr(kyfanorth.oracle, "_minorants_clear",
                        lambda *args: False)
    rng = np.random.default_rng(7)
    pairs = [_curved_boundary_pair(rng, psi) for psi in (0.05, 0.2, 0.35)]
    for a, b in pairs:
        d = oracle_check_pair(a, b, 2)
        assert d.verdict is Verdict.ORTHOGONAL
        assert d.details["dip_status"] == "cleared"
        assert d.details["dip_evals"] > 0
    monkeypatch.setattr(kyfanorth.oracle, "_DIP_CAP", 0)
    capped = 0
    for a, b in pairs:
        d = oracle_check_pair(a, b, 2)
        if d.details["dip_status"] == "cleared":
            assert d.verdict is Verdict.ORTHOGONAL
            continue
        assert d.details["dip_status"] == "capped"
        assert d.verdict is Verdict.BOUNDARY
        assert "grid_contradiction" not in d.details
        assert d.details["dip_reason"]
        capped += 1
    assert capped >= 1


def test_oracle_check_pair_explains_itself(rng):
    a, b, _ = make_orthogonal_pair(4, 2, rng, q=1, r=1)
    d = oracle_check_pair(a, b, 2)
    # 0 lies inside a two-dimensional pairing set: every probe chord and
    # the strided chords on the innermost ring stand above the dip depth,
    # so the scan settles on the strided probe, its inner ring and the tail
    assert d.details["settled"] is True
    assert d.details["refine_rounds"] == 0
    assert d.details["probe_evals"] == 16
    assert d.details["chord_evals"] == 2 + 16 + 16 + 13
    assert d.details["probe_minorants"] == 16
    assert d.details["dip_status"] == "cleared"
    assert d.details["dip_evals"] == 0
    a, b, _ = make_orthogonal_pair(4, 2, rng, q=1, r=0)
    d = oracle_check_pair(a, b, 2)
    assert "settled" not in d.details
    # the probe, 16 new points in each refinement round, 13 radii
    rounds = d.details["refine_rounds"]
    assert 1 <= rounds <= 7
    assert d.details["chord_evals"] \
        == 2 + d.details["probe_evals"] + 16 * rounds + 13
    assert d.details["probe_evals"] < 512
    assert d.details["probe_minorants"] == 16
    # the probe's minorants clear the annulus with no norm evaluation
    assert d.details["dip_status"] == "cleared"
    assert d.details["dip_evals"] == 0
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    d = oracle_check_pair(a, b, 2)
    assert d.details["dip_status"] == "skipped"
    assert d.details["dip_evals"] == 0
    d = oracle_check_pair(a, b, 2, field="real")
    assert d.details["dip_status"] == "real_field"
    # one of the two real probe scalars +-t already proves the refutation
    assert d.details["chord_evals"] == 2 + 2
    assert d.details["probe_minorants"] == 0


def test_a_refutation_stops_at_its_first_proving_chord():
    # one of the 16 strided probe phases proves each of these refutations,
    # so the scan stops after 2 + 16 norm evaluations with no minorant, and
    # its margin is the proving chord at chord_point
    rng = np.random.default_rng(26)
    for i in range(40):
        k = 1 + i % 4
        a, b, _ = make_nonorthogonal_pair(4, k, rng)
        d = oracle_check_pair(a, b, k)
        assert d.verdict is Verdict.NOT_ORTHOGONAL
        assert d.details["chord_evals"] <= 18, (i, d.details["chord_evals"])
        assert d.details["probe_minorants"] == 0
        assert d.margin < -Tolerances().strict * d.scale
        chord, slack = _chord_at(a, b, k, d.details["chord_point"])
        assert abs(d.margin - chord) <= slack


def _small_a_tilted_pair(seed):
    """A tied, k = 3 orthogonal 3x3 pair with A scaled by 1e-2 and B tilted
    by 4e-5 ||B||_F along a unit Ginibre direction: the dip that refutes it
    sits close to 0, at |c| of order 1e-7 of the scan's unit."""
    rng = np.random.default_rng(seed)
    a, b, _ = make_orthogonal_pair(3, 3, rng, q=3, r=0)
    a *= 1e-2
    g = complex_gauss(rng, 3, 3)
    b += 4e-5 * np.linalg.norm(b) * g / np.linalg.norm(g)
    return a, b


def _assert_engine_refutes(a, b, k):
    d = check_pair(a, b, k)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.certificate.kind is CertKind.VIOLATION
    assert verify_certificate(d.certificate, a, b, k)["ok"]
    return d


def test_the_inner_ring_keeps_a_refuted_pair_unsettled():
    # every chord of the probe circle stands far above the dip depth, but
    # the refuting dip lies inside the probe radius: the strided chords on
    # the tail's smallest radius fall below the depth, so the reading does
    # not settle, and the full scan's tail finds the dip
    a, b = _small_a_tilted_pair(8)
    e = _assert_engine_refutes(a, b, 3)
    assert e.margin < -1e-5 * e.scale
    d = oracle_check_pair(a, b, 3)
    chords = _probe_chords(d, a, b, 3) / d.scale
    assert chords[:_PROBE_PHASES].min() >= 1e-3
    assert chords[_PROBE_PHASES:].min() < 0.0
    assert "settled" not in d.details
    assert d.verdict is not Verdict.ORTHOGONAL


def test_engine_refutes_a_dip_inside_the_tails_smallest_radius():
    # the referee reads this pair ORTHOGONAL (unsettled, dip cleared): its
    # dip lies inside the tail's smallest radius, 1e-7 of the scan's unit,
    # and with ||A|| << ||B|| the near-tie rule does not see it. The engine
    # refutes it with a VIOLATION that verifies
    a, b = _small_a_tilted_pair(22)
    d = _assert_engine_refutes(a, b, 3)
    norm_a, norm_b = ky_fan_norm(a, 3), ky_fan_norm(b, 3)
    assert abs(d.certificate.coefficient) < 1e-7 * (norm_a + norm_b) / norm_b


def _reading_without_settling(a, b, k):
    """oracle_check_pair with the settle level left at the scan's default,
    so that nothing settles; the dip and near-tie rules are the same. The
    referee passes the scan's eight arguments by position, the settle level
    last."""
    scan = kyfanorth.oracle._chord_scan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kyfanorth.oracle, "_chord_scan",
                      lambda *args: scan(*args[:7]))
        return oracle_check_pair(a, b, k)


@pytest.mark.census
def test_settled_readings_match_the_full_scan_census():
    """Orthogonal pairs and their s_k = 0 variants, n = 2..8 and k = 1..n,
    with B tilted by 10^U(-9,-1) ||B||_F along a unit Ginibre direction and
    A scaled by 10^U(-6,6): every settled reading's verdict is the one read
    off the full scan's margin and phase under the same dip and near-tie
    rules."""
    rng = np.random.default_rng(33)
    settled = 0
    for i in range(300):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        if i % 2 and 2 <= k < n:
            q = int(rng.integers(1, k))
            a, b, _ = make_orthogonal_pair(n, k, rng, q=q, degenerate=True)
        else:
            q = int(rng.integers(1, k + 1))
            r = int(rng.integers(0, n - k + 1))
            a, b, _ = make_orthogonal_pair(n, k, rng, q=q, r=r)
        g = complex_gauss(rng, n, n)
        b = b + 10.0 ** rng.uniform(-9.0, -1.0) * np.linalg.norm(b) \
            * g / np.linalg.norm(g)
        a = 10.0 ** rng.uniform(-6.0, 6.0) * a
        d = oracle_check_pair(a, b, k)
        if "settled" not in d.details:
            continue
        settled += 1
        full = _reading_without_settling(a, b, k)
        if full.verdict is not Verdict.NOT_ORTHOGONAL:
            assert (full.margin, full.details["chord_phase"]) \
                == _full_probe_scan(a, b, k)
        assert d.verdict is full.verdict, (i, d.details, full.details)
    assert settled >= 100, settled


def _near_tie_draws():
    """420 pairs from default_rng(31), 30 for each j = 2..15: n = 3..5,
    k = 1..n-1, A = U diag(s) V* with s drawn from [0.5, 2] and s_{k+1} =
    s_k (1 - 10^-j), and B Ginibre. Yields (j, a, b, k)."""
    rng = np.random.default_rng(31)
    for j in range(2, 16):
        for _ in range(30):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n))
            s = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
            s[k] = s[k - 1] * (1.0 - 10.0 ** -j)
            s = np.sort(s)[::-1]
            u, v = haar_unitary(n, rng), haar_unitary(n, rng)
            yield j, (u * s) @ v.conj().T, random_matrix(n, rng), k


def test_referee_reads_no_orthogonal_on_near_ties():
    # at j = 5..8 the probe radius reaches far past the gap s_k - s_{k+1};
    # twelve of these pairs, which the engine refutes, used to read
    # ORTHOGONAL with a cleared dip check
    demoted = 0
    for j, a, b, k in _near_tie_draws():
        if not 5 <= j <= 8:
            continue
        d = oracle_check_pair(a, b, k)
        if "near_tie" in d.details:
            assert d.verdict is Verdict.BOUNDARY
            s = np.linalg.svd(a, compute_uv=False)
            assert 64.0 * s.size * np.finfo(float).eps * s[0] \
                < d.details["near_tie"] < 1e-4 * d.scale
        if check_pair(a, b, k, want_certificate=False).verdict \
                is Verdict.NOT_ORTHOGONAL:
            assert d.verdict is not Verdict.ORTHOGONAL, (j, d.details)
            demoted += "near_tie" in d.details
    assert demoted >= 12


def test_near_tie_reads_only_values_that_cross_index_k():
    # s_n = 1e-7 lies that close to the zero below it: ||A + c B||_(k) falls
    # at rate 1/2 scale only for |c| < 1e-7, far inside the probe radius
    for s, k in (([1.0, 1e-7], 2), ([1.0, 0.5, 1e-7], 3)):
        a, b = np.diag(s), np.diag([0.0] * (k - 1) + [1.0])
        d = oracle_check_pair(a, b, k)
        assert check_pair(a, b, k).verdict is Verdict.NOT_ORTHOGONAL
        assert d.verdict is Verdict.BOUNDARY
        assert d.details["near_tie"] == pytest.approx(1e-7)
    # s_1 close above an untied s_2 stays in the top two: the norm is
    # smooth at A, and B = E_33 is orthogonal to it
    d = oracle_check_pair(np.diag([2.0, 2.0 - 1e-7, 1.0]),
                          np.diag([0.0, 0.0, 1.0]), 2)
    assert d.verdict is Verdict.ORTHOGONAL
    assert "near_tie" not in d.details


def _full_probe_scan(a, b, k, field="complex", n_theta=_PROBE_PHASES,
                     refine_rounds=_REFINE_ROUNDS, t_count=_TAIL_RADII,
                     stride=1):
    """The chord scan with no pruning: all n_theta probe phases (every
    stride-th of them) and all 17 points of each refinement round are
    evaluated, and the rounds stop after one whose chords span no more than
    the rounding of a chord at the probe radius. The pruned scan must
    return exactly its (margin, phase)."""
    a, b = as_matrix(a), as_matrix(b)
    norm_a, norm_b = ky_fan_norm(a, k), ky_fan_norm(b, k)
    if norm_b <= 0:
        return 0.0, 0.0

    def chords(cs):
        cs = np.asarray(cs, dtype=complex).ravel()
        mats = a[None, :, :] + cs[:, None, None] * b[None, :, :]
        return (ky_fan_norm_batch(mats, k) - norm_a) / np.abs(cs)

    unit = (norm_a + norm_b) / norm_b
    ts = unit * np.geomspace(1e-7, 0.25, t_count)
    t_probe = unit * 1e-4
    if field == "real":
        thetas = np.array([0.0, np.pi])
    else:
        thetas = np.linspace(0.0, 2.0 * np.pi, n_theta,
                             endpoint=False)[::stride]
    probe = chords(t_probe * np.exp(1j * thetas))
    i = int(np.argmin(probe))
    best = float(probe[i])
    theta = float(thetas[i])
    if field != "real":
        width = 2.0 * np.pi / n_theta
        flat = 64.0 * a.shape[0] * np.finfo(float).eps \
            * (norm_a + t_probe * norm_b) / t_probe
        for _ in range(refine_rounds):
            local = theta + np.linspace(-width, width, 17)
            vals = chords(t_probe * np.exp(1j * local))
            j = int(np.argmin(vals))
            if float(vals[j]) < best:
                best = float(vals[j])
            theta = float(local[j])
            width *= 0.2
            if vals.max() - vals.min() <= flat:
                break
    tail = chords(ts * cmath.exp(1j * theta))
    best = min(best, float(tail.min()))
    return best, theta % (2.0 * np.pi)


def _chord_scan_with(a, b, k, field="complex", **constants):
    """The chord scan's (margin, phase) with some of the oracle's scan
    constants replaced."""
    a, b = as_matrix(a), as_matrix(b)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(kyfanorth.oracle, name, value)
        return _chord_scan(a, b, k, ky_fan_norm(a, k), ky_fan_norm(b, k),
                           field)[:2]


def _chord_at(a, b, k, c):
    """The chord rate (||A + c B||_(k) - ||A||_(k)) / |c| and the rounding
    of two norm evaluations at that scalar, divided by |c|."""
    norm_a = ky_fan_norm(a, k)
    slack = 64.0 * a.shape[0] * np.finfo(float).eps \
        * (norm_a + abs(c) * ky_fan_norm(b, k))
    return (ky_fan_norm(a + c * b, k) - norm_a) / abs(c), slack / abs(c)


def _probe_chords(d, a, b, k) -> np.ndarray:
    """The chords of all probe phases at the probe radius and of the
    strided phases at the tail's smallest radius, from the norms in the
    referee's reading d."""
    norm_a, norm_b = d.details["norm_a"], d.details["norm_b"]
    unit = (norm_a + norm_b) / norm_b
    thetas = np.linspace(0.0, 2.0 * np.pi, _PROBE_PHASES, endpoint=False)
    cs = np.r_[1e-4 * unit * np.exp(1j * thetas),
               1e-7 * unit * np.exp(1j * thetas[::_PROBE_STRIDE])]
    mats = a[None, :, :] + cs[:, None, None] * b[None, :, :]
    return (ky_fan_norm_batch(mats, k) - norm_a) / np.abs(cs)


def _assert_full_scan_result(a, b, k, field="complex"):
    """The chord scan with no proof or settle level returns what the
    unpruned scan gives, bit for bit. oracle_check_pair reads the same
    verdict and dip_* details, unless a near tie demotes ORTHOGONAL to
    BOUNDARY. A refutation reports the chord that proved it, at or above
    the full scan's margin. A settled reading (``details["settled"]``) has
    every one of the 512 probe chords and the 16 strided chords on the
    tail's smallest radius at or above the dip depth 1e-3 scale, and
    reports the margin and phase of a scan of the strided phases with no
    refinement, bit for bit; any other reading reports the full scan's
    margin and phase bit for bit. The margin is the chord at
    ``chord_point``, up to the rounding of two norm evaluations (a batched
    SVD and a single one round differently). When the probe's minorants
    clear the annulus (``dip_evals`` 0 where the dip check evaluates
    norms), the dip check must clear it too; otherwise the dip check ran
    and its details are the same."""
    a, b = as_matrix(a), as_matrix(b)
    # with no refinement the phase is the probe's own first argmin
    assert _chord_scan_with(a, b, k, field, _REFINE_ROUNDS=0) \
        == _full_probe_scan(a, b, k, field, refine_rounds=0)
    margin, theta = _full_probe_scan(a, b, k, field)
    assert _chord_scan_with(a, b, k, field) == (margin, theta)
    norm_a, norm_b = ky_fan_norm(a, k), ky_fan_norm(b, k)
    scale = Tolerances().margin_scale(norm_a, norm_b)
    d = oracle_check_pair(a, b, k, field=field)
    if d.details.get("settled"):
        assert d.details["chord_evals"] == 2 + 16 + 16 + 13
        assert _probe_chords(d, a, b, k).min() >= 1e-3 * d.scale
        margin, theta = _full_probe_scan(a, b, k, field, refine_rounds=0,
                                         stride=_PROBE_STRIDE)
    verdict = Tolerances().band(margin, scale)
    if field != "complex":
        dips = {"dip_status": "real_field", "dip_evals": 0}
    elif verdict is not Verdict.ORTHOGONAL:
        dips = {"dip_status": "skipped", "dip_evals": 0}
    else:
        dips = _dip_check(a, b, k, norm_a, norm_b, 1e-3 * scale, theta)
        if dips["dip_status"] != "cleared":
            verdict = Verdict.BOUNDARY
    got = {key: v for key, v in d.details.items() if key.startswith("dip_")}
    assert got["dip_status"] == dips["dip_status"]
    if got["dip_evals"]:
        assert got == dips
    if "near_tie" in d.details:
        assert (verdict, d.verdict) == (Verdict.ORTHOGONAL, Verdict.BOUNDARY)
    else:
        assert d.verdict is verdict
    point = d.details["chord_point"]
    if norm_b > 0:
        chord, slack = _chord_at(a, b, k, point)
        assert abs(d.margin - chord) <= slack
    if verdict is Verdict.NOT_ORTHOGONAL:
        assert margin <= d.margin < -Tolerances().strict * scale
    else:
        assert (d.margin, d.details["chord_phase"]) == (margin, theta)
    return d


def test_pruned_probe_matches_full_scan_on_seeded_pairs():
    rng = np.random.default_rng(10)
    pruned = settled = unsettled = 0
    for field in ("complex", "real"):
        for n in range(2, 9):
            for k in range(1, n + 1):
                if field == "real":
                    a, b = rng.normal(size=(2, n, n))
                else:
                    a, b = complex_gauss(rng, n, n), complex_gauss(rng, n, n)
                _assert_full_scan_result(a, b, k, field)
                a, b, _ = make_orthogonal_pair(n, k, rng, q=1 + k // 2,
                                               r=int(k < n), field=field)
                d = _assert_full_scan_result(a, b, k, field)
                # a refutation stops before any minorant is taken, so count
                # the orthogonal pairs, whose scans stop short of 512 phases
                # by the pruning or by settling
                short = field == "complex" and d.details["probe_minorants"] \
                    and d.details["probe_evals"] < 512
                pruned += short
                settled += "settled" in d.details
                unsettled += short and "settled" not in d.details
                if k > 1:
                    a, b, _ = make_nonorthogonal_pair(n, k, rng)
                    _assert_full_scan_result(a, b, k, field)
    assert pruned >= 30
    assert settled >= 20 and unsettled >= 5, (settled, unsettled)


def test_pruned_probe_matches_full_scan_on_flat_profiles():
    rng = np.random.default_rng(11)
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 4)):
        # degenerate A: the pairing set is a disk about a near-zero point
        a, b, _ = make_orthogonal_pair(n, k, rng, q=1, degenerate=True)
        d = _assert_full_scan_result(a, b, k)
        assert d.details["probe_minorants"] == 16
        # a tied boundary cluster filling the rest of the spectrum
        a, b, _ = make_orthogonal_pair(n, k, rng, q=k, r=n - k)
        _assert_full_scan_result(a, b, k)
        for field in ("complex", "real"):
            _assert_full_scan_result(a, np.zeros((n, n)), k, field)
            _assert_full_scan_result(np.zeros((n, n)), b, k, field)
    # A = I: ||I + c B||_(k) has all of its top-k vectors tied at c = 0
    _assert_full_scan_result(np.eye(4), complex_gauss(rng, 4, 4), 2)
    # B inside the null space of A's top two: the norm is constant near 0,
    # so every chord is rounding noise and the minorants are exact
    for _ in range(6):
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        low = np.zeros((4, 4), dtype=complex)
        low[2:, 2:] = complex_gauss(rng, 2, 2)
        _assert_full_scan_result(u @ np.diag([2.0, 1.0, 0.0, 0.0]) @ v,
                                 u @ low @ v, 2)


@pytest.mark.parametrize("n_theta", [1, 2, 7, 100, 512, 513])
def test_pruned_probe_matches_full_scan_for_any_phase_count(n_theta):
    rng = np.random.default_rng(12 + n_theta)
    cases = [(complex_gauss(rng, 4, 4), complex_gauss(rng, 4, 4), 2)]
    for k in (1, 3):
        a, b, _ = make_orthogonal_pair(4, k, rng, q=1, r=1)
        cases.append((a, b, k))
    a, b, _ = make_orthogonal_pair(4, 2, rng, q=1, degenerate=True)
    cases.append((a, b, 2))
    for a, b, k in cases:
        for rounds in (0, 7):
            assert _chord_scan_with(a, b, k, _PROBE_PHASES=n_theta,
                                      _REFINE_ROUNDS=rounds) \
                == _full_probe_scan(a, b, k, n_theta=n_theta,
                                    refine_rounds=rounds)


@settings(deadline=None, max_examples=15)
@given(seed=seeds)
def test_pruned_probe_matches_full_scan_under_joint_scaling(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        a, b, _ = make_orthogonal_pair(4, k, rng, q=1, r=int(k < 4))
    else:
        a, b = complex_gauss(rng, 4, 4), complex_gauss(rng, 4, 4)
    t = 10.0 ** rng.uniform(-150.0, 150.0)
    _assert_full_scan_result(t * a, t * b, k)


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
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            fd_directional(a, a, 1, t)


def test_references_check_their_operands_as_the_engine_does():
    # one preamble: a misshapen operand or an out-of-range k is refused
    # before any norm is taken, never broadcast into a number
    a = np.diag([3.0, 2.0, 1.0])
    references = (lambda x, k: fd_directional(a, x, k, 1e-3),
                  lambda x, k: directional_derivative(a, k, x),
                  lambda x, k: subgradient_membership(a, k, x))
    for reference in references:
        with pytest.raises(ShapeMismatch):
            reference(np.ones((1, 3)), 2)
        with pytest.raises(KOutOfRange):
            reference(np.ones((3, 3)), 4)


def test_a_found_dip_demotes_an_orthogonal_chord_reading(rng, monkeypatch):
    # a chord scan that reads 0 on a deeply refuted pair: the dip check
    # finds a scalar below the level and the referee answers BOUNDARY
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    work = {"chord_evals": 2, "probe_evals": 0, "probe_minorants": 0}
    monkeypatch.setattr(kyfanorth.oracle, "_chord_scan",
                        lambda *args: (0.0, 0.0, work, None))
    d = oracle_check_pair(a, b, 2)
    assert d.verdict is Verdict.BOUNDARY
    assert d.details["dip_status"] == "dip"
    assert d.details["grid_contradiction"] is True
    point = d.details["dip_point"]
    assert ky_fan_norm(a + point * b, 2) < ky_fan_norm(a, 2) - 1e-3 * d.scale


def test_chord_margin_sign(rng):
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    margin = oracle_check_pair(a, b, 2).margin
    scale = ky_fan_norm(a, 2) + ky_fan_norm(b, 2)
    assert margin >= -1e-7 * scale

    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    d = oracle_check_pair(a, b, 2)
    margin, theta = d.margin, d.details["chord_phase"]
    assert margin < -1e-6 * scale
    # the phase must actually witness a norm decrease along some radius
    unit = np.exp(1j * theta)
    dips = [ky_fan_norm(a + t * unit * b, 2) for t in np.geomspace(1e-4, 2, 40)]
    assert min(dips) < ky_fan_norm(a, 2)


def test_unknown_scalar_field_is_refused_by_engine_and_referee(rng):
    # the engine and both referee entries share one field check; an unknown
    # field never falls through to a complex scan
    a, b = complex_gauss(rng, 3, 3), complex_gauss(rng, 3, 3)
    for entry in (check_pair, oracle_check_pair):
        with pytest.raises(ValueError, match="unknown scalar field"):
            entry(a, b, 2, field="bogus")


def test_chord_margin_zero_direction(rng):
    a = complex_gauss(rng, 4, 4)
    d = oracle_check_pair(a, np.zeros((4, 4)), 2)
    assert d.margin == 0.0
    assert d.details["chord_phase"] == 0.0


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
    a, basis, _ = make_subspace_instance(4, 2, 2, rng, orthogonal=True)
    d = oracle_check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NO_COUNTEREXAMPLE
    # 64 scans, each with its two norms, 16 to 512 probe phases, 16 points
    # in each of 1 to 7 refinement rounds and 13 radii
    assert 64 * (2 + 16 + 16 + 13) <= d.details["chord_evals"] \
        < 64 * (2 + 512 + 7 * 16 + 13)
    a, basis, _ = make_subspace_instance(4, 2, 2, rng, orthogonal=False)
    d = oracle_check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    d = oracle_check_subspace(a, [], 2)
    assert d.verdict is Verdict.NO_COUNTEREXAMPLE


def test_subspace_referee_stops_at_the_first_refuted_direction(rng):
    a, basis, _ = make_subspace_instance(4, 2, 2, rng, orthogonal=False)
    d = oracle_check_subspace(a, basis, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert d.details["directions"] < 64
    # below the least a scan of all 64 directions can cost
    assert d.details["chord_evals"] < 64 * (2 + 16 + 16 + 13)


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


def _band_parallel_pair(n, k, rng):
    """A = U diag(sa) V* and B = e^{i psi} U diag(sb) V* with k < n, where
    (1-based) sa_{k+1} = sa_k - tau and sb_k = sb_{k+1} - tau. A's norm
    takes indices 1..k and B's 1..k-1 and k+1, so the peak of
    ||A + lambda B||_(k), at lambda = e^{-i psi}, falls short of the
    triangle bound by exactly tau, set to half of strict * scale: inside
    the band."""
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    sa = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    sb = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    triangle = sa[:k].sum() + sb[:k].sum()
    tau = 0.5 * Tolerances().strict * triangle
    sa[k] = sa[k - 1] - tau
    sb[k] = sb[k - 1]
    sb[k - 1] -= tau
    psi = rng.uniform(0.0, 2.0 * np.pi)
    return (u @ np.diag(sa) @ v.conj().T,
            np.exp(1j * psi) * (u @ np.diag(sb) @ v.conj().T))


def test_parallel_bracket_holds_the_peak():
    # on random, parallel and band pairs the best sample is a norm at lambda,
    # the highest arc bound lies above a dense scan of the circle, and the
    # bracket closes well before the cap, band pairs included
    rng = np.random.default_rng(2121)
    phis = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
    seen = set()
    for i in range(18):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        if i % 3 == 0:
            a, b = complex_gauss(rng, n, n), complex_gauss(rng, n, n)
        elif i % 3 == 1:
            a, b, _ = make_parallel_pair(n, k, rng)
        else:
            a, b = _band_parallel_pair(n, k, rng)
        d = oracle_check_parallel(a, b, k)
        seen.add(d.verdict)
        allowance = 64.0 * n * np.finfo(float).eps * d.scale
        lam = complex(d.details["lambda_re"], d.details["lambda_im"])
        assert abs(d.details["peak"] - ky_fan_norm(a + lam * b, k)) \
            <= allowance
        dense = ky_fan_norm_batch(a[None] + np.exp(1j * phis)[:, None, None]
                                  * b[None], k)
        assert d.details["peak_upper_bound"] >= dense.max() - allowance
        assert d.details["peak"] <= d.details["peak_upper_bound"]
        assert d.details["peak_evals"] <= 1024
        if i % 3 == 1:
            assert d.verdict is Verdict.PARALLEL
        if i % 3 == 2:
            # the convex arc bound closes the bracket inside the band
            assert d.verdict is Verdict.BOUNDARY
            assert d.details["peak_evals"] <= 128
        assert "peak_reason" not in d.details
    assert seen == {Verdict.PARALLEL, Verdict.NOT_PARALLEL, Verdict.BOUNDARY}


def test_capped_peak_search_reads_boundary(monkeypatch):
    # a parallel pair needs a refinement round past its first ring; with no
    # budget for one the referee reads BOUNDARY and says why
    a, b, _ = make_parallel_pair(4, 2, np.random.default_rng(0))
    assert oracle_check_parallel(a, b, 2).verdict is Verdict.PARALLEL
    monkeypatch.setattr(kyfanorth.oracle, "_PEAK_CAP",
                        kyfanorth.oracle._RING_PHASES)
    d = oracle_check_parallel(a, b, 2)
    assert d.verdict is Verdict.BOUNDARY
    assert d.details["peak_evals"] == kyfanorth.oracle._RING_PHASES
    assert "arcs still open" in d.details["peak_reason"]
    assert d.details["peak"] <= d.details["peak_upper_bound"]


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
