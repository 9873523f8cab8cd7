"""The exposed-point sweep and the pair's nearest-point search against
range sets with closed forms, the sweep's cap flag, and the evaluation,
round and atom counts the benchmark relies on."""

import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import kyfanorth
from kyfanorth.decide import _search
from kyfanorth.generate import make_orthogonal_pair
from kyfanorth.linalg import haar_unitary
from kyfanorth.subdiff import RangeSetModel, swept_maximum, swept_minimum
from test_acceptance import _pair_corpus

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _gauss(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _signed_distance(points) -> float:
    """min over theta of the support function of conv(points), for points
    not all on one line: the distance from 0 to the nearest edge line when
    0 is inside, minus the distance from 0 to the polygon otherwise."""
    xy = np.column_stack([np.real(points), np.imag(points)])
    hull = ConvexHull(xy)
    offsets = hull.equations[:, 2]  # n . x + offset <= 0 inside, |n| = 1
    if np.all(offsets <= 0.0):
        return float(-offsets.max())
    verts = np.asarray(points)[hull.vertices]
    gaps = []
    for p, q in zip(verts, np.roll(verts, -1)):
        t = np.clip(-np.real(np.conj(q - p) * p) / abs(q - p) ** 2, 0.0, 1.0)
        gaps.append(abs(p + t * (q - p)))
    return -min(gaps)


def _model(fixed, c: np.ndarray, q: int) -> RangeSetModel:
    """The pair model fixed + {tr(T* C)} over the trace-q coefficients."""
    return RangeSetModel(fixed=np.array([complex(fixed)]), blocks=c[None],
                         q=q)


def _angles(model: RangeSetModel):
    """The sweep's evaluator on the model's exposure: the support values
    at the angles and the points exposed along -e^{i theta}."""
    def expose(th):
        ph = np.exp(-1j * th)
        z = model.expose(-np.conj(ph)[:, None])[0][:, 0]
        return np.real(ph * z), z

    return expose


def _check_both(model: RangeSetModel, exact_min: float, exact_max: float,
                tol: float, rounding: float) -> None:
    """The sweeps bracket the extremes of the support function within tol
    and uncapped, and the pair's nearest-point search, started at the atom
    exposed at the centre's image, brackets the distance of 0 from the
    set, max(0, -exact_min), the same way."""
    low = swept_minimum(_angles(model), tol, slack=model.slack)
    assert low.bound <= exact_min + rounding
    assert exact_min <= low.value + rounding
    assert low.value - low.bound <= tol
    points, left, right = model.expose(model.centre[1][None])
    near = _search(model, ([(1.0, left[0], right[0])], points[0]), tol)
    resid = float(np.linalg.norm(near.x))
    assert near.lower <= max(0.0, -exact_min) + rounding
    assert max(0.0, -exact_min) <= resid + rounding
    assert resid <= tol or resid - near.lower <= tol
    assert not near.capped and near.added <= 100
    assert abs(model.pairing(near.coeff)[0] - near.x[0]) <= rounding
    high = model.maximum(tol)
    assert high.value <= exact_max + rounding
    assert exact_max <= high.bound + rounding
    assert high.bound - high.value <= tol
    for out in (low, high):
        assert not out.capped
        assert out.evals <= 100


def _normal(rng, eigs):
    u = haar_unitary(eigs.size, rng)
    return (u * eigs) @ u.conj().T


@settings(deadline=None, max_examples=60)
@given(seed=seeds, d=st.integers(3, 6), data=st.data())
def test_normal_compression_is_a_polygon(seed, d, data):
    # q-trace range of a normal C: the hull of the sums of m eigenvalues.
    # Its support function has a kink wherever two vertices tie, and the
    # minimum sits on one whenever 0 is inside or nearest an edge
    m = data.draw(st.integers(1, d - 1))
    rng = np.random.default_rng(seed)
    eigs = _gauss(rng, d)
    sums = np.array([eigs[list(s)].sum() for s in combinations(range(d), m)])
    fixed = -sums.mean() + rng.uniform(0.0, 2.0) * np.abs(sums).max() * (
        np.exp(2j * np.pi * rng.random()))
    model = _model(fixed, _normal(rng, eigs), m)
    size = abs(fixed) + np.abs(sums).max()
    _check_both(model, _signed_distance(fixed + sums),
                float(np.abs(fixed + sums).max()), 1e-9 * size,
                1e-13 * size)


@settings(deadline=None, max_examples=60)
@given(seed=seeds)
def test_jordan_block_is_a_disk(seed):
    # the numerical range of [[a, b], [0, a]] is the disk about a of
    # radius |b| / 2, so every support value has a closed form
    rng = np.random.default_rng(seed)
    a, b = _gauss(rng, 2)
    fixed = complex(*rng.normal(size=2)) * rng.uniform(0.0, 1.5)
    u = haar_unitary(2, rng)
    jordan = u @ np.array([[a, b], [0.0, a]]) @ u.conj().T
    model = _model(fixed, jordan, 1)
    centre, radius = abs(fixed + a), abs(b) / 2
    size = abs(fixed) + abs(a) + abs(b)
    _check_both(model, radius - centre, centre + radius, 1e-9 * size,
                1e-13 * size)


@settings(deadline=None, max_examples=60)
@given(seed=seeds, d=st.integers(2, 6), data=st.data())
def test_hermitian_compression_is_a_segment(seed, d, data):
    # Hermitian C: the set is fixed + [sum of the m smallest, sum of the m
    # largest eigenvalues], a segment; with a real offset inside it, 0 lies
    # on the segment and the minimum is exactly 0
    m = data.draw(st.integers(1, d - 1))
    on_line = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    g = _gauss(rng, d, d)
    c = 0.5 * (g + g.conj().T)
    eigs = np.linalg.eigvalsh(c)
    lo, hi = eigs[:m].sum(), eigs[-m:].sum()
    fixed = -rng.uniform(lo - 1.0, hi + 1.0) + (
        0.0 if on_line else rng.normal())
    ends = np.array([fixed + lo, fixed + hi])
    if fixed.imag == 0.0 and ends[0].real <= 0.0 <= ends[1].real:
        exact_min = 0.0
    else:
        t = np.clip(-np.real(np.conj(ends[1] - ends[0]) * ends[0])
                    / abs(ends[1] - ends[0]) ** 2, 0.0, 1.0)
        exact_min = -abs(ends[0] + t * (ends[1] - ends[0]))
    model = _model(fixed, c, m)
    size = abs(fixed) + np.abs(eigs).max() * m
    _check_both(model, exact_min, float(np.abs(ends).max()), 1e-9 * size,
                1e-13 * size)


@settings(deadline=None, max_examples=40)
@given(seed=seeds, up=st.floats(0.1, 3.0), down=st.floats(0.1, 3.0),
       x=st.floats(-2.0, 2.0), width=st.floats(0.1, 3.0))
def test_zero_exactly_on_an_edge(seed, up, down, x, width):
    # eigenvalues x + i up, x - i down, x - width: the offset -x puts 0 on
    # the vertical edge of the triangle, where min h is exactly 0
    rng = np.random.default_rng(seed)
    eigs = np.array([x + 1j * up, x - 1j * down, x - width])
    model = _model(-x, _normal(rng, eigs), 1)
    size = abs(x) + max(up, down, width)
    _check_both(model, 0.0, float(np.abs(eigs - x).max()), 1e-9 * size,
                1e-13 * size)


def test_cap_hit_is_recorded():
    def disk(th):
        return 2.0 + np.cos(th), 1.0 + 2.0 * np.exp(1j * th)

    for sweep in (swept_minimum, swept_maximum):
        out = sweep(disk, tol_abs=1e-15, max_evals=10)
        assert out.capped
        assert out.evals == 10
        assert abs(out.value - out.bound) > 1e-15


def test_sweep_stops_when_no_new_angle_is_left():
    # exposed points that contradict their support values keep every arc
    # open, yet each arc's bound sits at an angle already sampled: the sweep
    # stops after its first batch rather than repeat it, and says so
    def inconsistent(th):
        return np.ones(th.size), np.zeros(th.size, dtype=complex)

    out = swept_minimum(inconsistent, tol_abs=1e-9)
    assert out.capped
    assert (out.evals, out.rounds) == (8, 0)
    assert out.bound <= 0.0 < out.value


def _tied_pair():
    a, b, _ = make_orthogonal_pair(24, 4, np.random.default_rng(24), q=4,
                                   r=20)
    return a, b


def _tied_parallel():
    # a boundary cluster of width 3 with one index inside the top k = 2
    a = np.diag([3.0, 1.0, 1.0, 1.0]).astype(complex)
    return a, _gauss(np.random.default_rng(4), 4, 4)


def test_tied_cluster_sweep_is_short():
    # a boundary cluster of width 24 with q = 4: the parallel sweep closes
    # its bracket, and the pair search, which no longer sweeps, closes its
    # own in a handful of atoms
    a, b = _tied_pair()
    d = kyfanorth.check_parallel(a, b, 4, want_certificate=False)
    assert d.details["sweep_evals"] <= 100
    assert d.details["sweep_capped"] is False
    d = kyfanorth.check_pair(a, b, 4, want_certificate=False)
    assert "sweep_evals" not in d.details
    assert d.details["iterations"] <= 16
    assert d.details["search_capped"] is False


def test_parallel_sweep_reports_its_work():
    a, b = _tied_parallel()
    d = kyfanorth.check_parallel(a, b, 2, want_certificate=False)
    assert d.details["sweep_evals"] <= 100
    assert d.details["sweep_capped"] is False
    assert d.details["peak_modulus"] <= d.details["peak_upper_bound"]


def test_benchmark_reads_the_sweep_cap():
    # the benchmark imports swept_minimum and counts a sweep as capped when
    # its evaluations reach this default; only check_parallel sweeps
    cap = inspect.signature(kyfanorth.swept_minimum).parameters[
        "max_evals"].default
    assert isinstance(cap, int) and cap > 0
    assert cap == inspect.signature(swept_maximum).parameters[
        "max_evals"].default
    a, b = _tied_parallel()
    assert kyfanorth.check_parallel(a, b, 2, want_certificate=False).details[
        "sweep_evals"] < cap


@pytest.mark.parametrize("sweep", [swept_minimum, swept_maximum])
def test_point_set_needs_no_refinement(sweep):
    def point(th):
        th = np.asarray(th)
        return np.real(np.exp(-1j * th) * (1 - 2j)), np.full(th.shape,
                                                               1 - 2j)

    out = sweep(point, tol_abs=1e-12)
    want = abs(1 - 2j) * (1 if sweep is swept_maximum else -1)
    assert out.value == pytest.approx(want, abs=1e-12)
    assert out.evals <= 9


def _counted_search(monkeypatch, a, b, k):
    """check_pair on (A, B), with the range model's exposures counted and
    checked against the report: one for each atom added, and one more for
    the bound that stops the search (the instances start at the centre,
    d <= 3q, so the start exposes nothing)."""
    calls = []
    expose = RangeSetModel.expose

    def tallied(model, x):
        calls.append(x)
        return expose(model, x)

    monkeypatch.setattr(RangeSetModel, "expose", tallied)
    d = kyfanorth.check_pair(a, b, k, want_certificate=False)
    assert "sweep_rounds" not in d.details
    assert len(calls) <= d.details["iterations"] + 1
    return d


def test_two_near_equal_minima_close_in_few_rounds(monkeypatch):
    # instance 366 of the c01 corpus (k = 2, q = 1, r = 1, 0 inside the
    # set): two near-equal minima of h, which one angle a step took 84
    # steps to sweep; the search needs no angle, only a few atoms
    rng = np.random.default_rng(101)
    _pair_corpus(rng, 4, 1, 200)
    a, b = _pair_corpus(rng, 4, 2, 200)[166]
    d = _counted_search(monkeypatch, a, b, 2)
    assert d.details["iterations"] <= 8
    assert d.details["search_capped"] is False


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthogonal_pairs_close_in_few_rounds(monkeypatch, k):
    # 0 inside the pairing set, at the centre's image: the search that
    # starts there stops at once, where a sweep took rounds
    rng = np.random.default_rng(2200 + k)
    for _ in range(20):
        a, b, _ = make_orthogonal_pair(4, k, rng, q=1, r=1)
        d = _counted_search(monkeypatch, a, b, k)
        assert d.details["iterations"] <= 10
        assert d.details["search_capped"] is False
