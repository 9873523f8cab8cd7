import numpy as np
import pytest

from kyfanorth.model import Tolerances, Verdict

TOL = Tolerances()
SCALE = 3.7
DECIDE_EDGE = -TOL.decide * SCALE
STRICT_EDGE = -TOL.strict * SCALE


def one_ulp_below(x):
    return float(np.nextafter(x, -np.inf))


# (hold, fail, middle) for each caller of the banding rule
LABELS = {
    "orthogonal": (Verdict.ORTHOGONAL, Verdict.NOT_ORTHOGONAL, Verdict.BOUNDARY),
    "parallel": (Verdict.PARALLEL, Verdict.NOT_PARALLEL, Verdict.BOUNDARY),
    # the sampling referee for subspaces is one-sided: it never reports
    # BOUNDARY, the band between the thresholds reads as no counterexample
    "subspace_referee": (Verdict.NO_COUNTEREXAMPLE, Verdict.NOT_ORTHOGONAL,
                         Verdict.NO_COUNTEREXAMPLE),
}


@pytest.mark.parametrize("labels", LABELS.values(), ids=LABELS.keys())
@pytest.mark.parametrize("margin, side", [
    (DECIDE_EDGE, 0),
    (one_ulp_below(DECIDE_EDGE), 2),
    (STRICT_EDGE, 2),
    (one_ulp_below(STRICT_EDGE), 1),
], ids=["at_decide", "below_decide", "at_strict", "below_strict"])
def test_band_edges(labels, margin, side):
    hold, fail, middle = labels
    verdict = TOL.band(margin, SCALE, hold, fail, middle=middle)
    assert verdict is labels[side]
    if middle is not Verdict.BOUNDARY:
        assert verdict is not Verdict.BOUNDARY


def test_band_defaults_read_orthogonality():
    assert TOL.band(0.0, SCALE) is Verdict.ORTHOGONAL
    assert TOL.band(-1.0, SCALE) is Verdict.NOT_ORTHOGONAL


def test_band_bracket_must_land_on_one_side():
    # a certified bracket straddling a threshold cannot decide
    assert TOL.band(0.0, SCALE, bound=one_ulp_below(DECIDE_EDGE)) \
        is Verdict.BOUNDARY
    assert TOL.band(-1.0, SCALE, bound=one_ulp_below(STRICT_EDGE)) \
        is Verdict.NOT_ORTHOGONAL
    assert TOL.band(-1.0, SCALE, bound=STRICT_EDGE) is Verdict.BOUNDARY


def test_tolerances_carry_no_unread_field():
    assert list(Tolerances().as_dict()) == ["decide", "strict", "cert",
                                            "cluster"]
