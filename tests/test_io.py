import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfanorth.cli import main
from kyfanorth.decide import check_pair, check_subspace
from kyfanorth.errors import ParseError
from kyfanorth.generate import make_orthogonal_pair, make_subspace_instance
from kyfanorth.io import (
    decode_matrix,
    decode_problem,
    decode_report,
    encode_matrix,
    encode_problem,
    encode_report,
    load_problem,
    load_report,
    save_problem,
)
from kyfanorth.model import REAL_FIELD, CertKind, Tolerances
from kyfanorth.verify import verify_certificate


def complex_gauss(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(deadline=None, max_examples=100)
@given(st.lists(finite, min_size=4, max_size=4),
       st.lists(finite, min_size=4, max_size=4))
def test_matrix_json_round_trip_is_exact(re, im):
    m = (np.asarray(re) + 1j * np.asarray(im)).reshape(2, 2)
    text = json.dumps(encode_matrix(m))
    back = decode_matrix(json.loads(text))
    assert np.array_equal(back, m)


def test_matrix_decode_validation():
    good = encode_matrix(np.eye(2))
    for corrupt in (
        {**good, "re": good["re"][:-1]},
        {**good, "rows": "two"},
        {**good, "rows": -1},
        {**good, "im": "nope"},
        {k: v for k, v in good.items() if k != "cols"},
        "not a dict",
    ):
        with pytest.raises(ParseError):
            decode_matrix(corrupt)


def test_problem_round_trip(rng, tmp_path):
    a = complex_gauss(rng, 4, 4)
    b = complex_gauss(rng, 4, 4)
    path = tmp_path / "p.json"
    save_problem(path, {"a": a, "b": b}, 3, field_name=REAL_FIELD,
                 tolerances=Tolerances(decide=1e-8, strict=1e-7),
                 label={"kind": "custom", "expected": "NOT_ORTHOGONAL"})
    problem = load_problem(path)
    assert problem.k == 3
    assert problem.field == REAL_FIELD
    assert problem.subspace is None
    assert problem.tolerances.decide == 1e-8
    assert problem.label["kind"] == "custom"
    np.testing.assert_array_equal(problem.matrix("a"), a)
    np.testing.assert_array_equal(problem.matrix("b"), b)


def test_subspace_problem_round_trip(rng, tmp_path):
    a = complex_gauss(rng, 3, 3)
    w0 = complex_gauss(rng, 3, 3)
    w1 = complex_gauss(rng, 3, 3)
    path = tmp_path / "s.json"
    save_problem(path, {"a": a, "w0": w0, "w1": w1}, 2,
                 subspace=["w0", "w1"])
    problem = load_problem(path)
    assert problem.subspace == ["w0", "w1"]
    basis = problem.basis()
    np.testing.assert_array_equal(basis[0], w0)
    np.testing.assert_array_equal(basis[1], w1)


def test_problem_decode_validation(rng):
    a = complex_gauss(rng, 3, 3)
    good = encode_problem({"a": a, "b": a}, 2)
    bad_schema = {**good, "schema_version": 99}
    with pytest.raises(ParseError):
        decode_problem(bad_schema)
    with pytest.raises(ParseError):
        decode_problem({**good, "k": 0})
    with pytest.raises(ParseError):
        decode_problem({**good, "field": "quaternion"})
    with pytest.raises(ParseError):
        decode_problem({**good, "subspace": ["missing"]})
    with pytest.raises(ParseError):
        decode_problem({**good, "tolerances": {"wat": 1.0}})
    no_matrices = {k: v for k, v in good.items() if k != "matrices"}
    with pytest.raises(ParseError):
        decode_problem(no_matrices)


def test_report_round_trip_with_certificate(rng, tmp_path):
    a, b, _ = make_orthogonal_pair(4, 2, rng, q=2)
    decision = check_pair(a, b, 2)
    assert decision.certificate is not None
    path = tmp_path / "r.json"
    obj = encode_report(decision, timings={"total_s": 0.25})
    # the generator seed lives in the problem's label, not in the report
    assert "seed" not in obj
    path.write_text(json.dumps(obj))
    report = load_report(path)
    assert report.verdict == decision.verdict.name
    assert report.margin == pytest.approx(decision.margin)
    assert report.scale == pytest.approx(decision.scale)
    assert report.method == decision.method
    assert report.timings["total_s"] == 0.25
    cert = report.certificate
    assert cert.kind is decision.certificate.kind
    assert cert.weights == decision.certificate.weights
    for name in ("left", "right"):
        for got, want in zip(getattr(cert, name),
                             getattr(decision.certificate, name)):
            assert np.array_equal(got, want)


def test_report_decode_validation(rng):
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    decision = check_pair(a, b, 2, want_certificate=False)
    good = encode_report(decision)
    with pytest.raises(ParseError):
        decode_report({**good, "schema_version": 5})
    with pytest.raises(ParseError):
        decode_report({**good, "verdict": "MAYBE"})
    no_margin = {k: v for k, v in good.items() if k != "margin"}
    with pytest.raises(ParseError):
        decode_report(no_margin)


def _good_problem():
    return encode_problem({"a": np.diag([2.0, 1.0]), "b": np.eye(2)}, 1)


def _good_report():
    a, b = np.diag([2.0, 1.0]), np.eye(2)
    return encode_report(check_pair(a, b, 1))


def _edited(obj, path, value):
    """A copy of ``obj`` with the entry at ``path`` (a tuple of keys) set to
    ``value``."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


_NAN, _INF = float("nan"), float("inf")

# (what is decoded, where, the value put there, what the error names)
_MALFORMED = [
    ("problem", (), None, "top-level object"),
    ("problem", ("schema_version",), True, "schema_version"),
    ("problem", ("schema_version",), 1.0, "schema_version"),
    ("problem", ("matrices", "a"), [1.0], "expected an object"),
    ("problem", ("matrices", "a", "rows"), 1.9, "rows must be an integer"),
    ("problem", ("matrices", "a", "cols"), "2", "cols must be an integer"),
    ("problem", ("matrices", "a", "re"), ["one", 0.0, 0.0, 1.0],
     "entries must be numbers"),
    ("problem", ("matrices", "a", "im"), [0.0, _NAN, 0.0, 0.0],
     "entries must be finite"),
    ("problem", ("k",), 2.7, "k must be an integer"),
    ("problem", ("k",), True, "k must be an integer"),
    ("problem", ("k",), "2", "k must be an integer"),
    ("problem", ("k",), None, "k must be an integer"),
    ("problem", ("tolerances",), [1e-7], "tolerances: expected an object"),
    ("problem", ("tolerances",), {"cert": "1e-8"}, "cert must be a number"),
    ("problem", ("tolerances",), {"decide": True}, "decide must be a number"),
    ("problem", ("tolerances",), {"cluster": _NAN}, "cluster"),
    ("problem", ("tolerances",), {"cluster": -1}, "cluster"),
    ("problem", ("tolerances",), {"strict": _INF}, "strict"),
    ("problem", ("subspace",), "b", "subspace must be a list"),
    ("problem", ("subspace",), [["b"]], "names no matrix"),
    ("problem", ("label",), ["kind"], "label must be an object"),
    ("report", (), [], "top-level object"),
    ("report", ("margin",), "0.5", "margin must be a number"),
    ("report", ("scale",), None, "scale must be a number"),
    ("report", ("certificate",), "VIOLATION", "expected an object"),
    ("report", ("certificate", "kind"), "ORACLE", "unknown kind"),
    ("report", ("certificate", "coefficient"), [1.0], "must be [re, im]"),
    ("report", ("certificate", "coefficient"), ["-1", 0.0],
     "coefficient must be a number"),
    ("report", ("certificate", "norm_value"), True,
     "norm_value must be a number"),
    ("report", ("certificate", "details"), ["chord_rate"],
     "details must be an object"),
    ("report", ("tolerances", "cert"), _INF, "cert"),
    # matrix entries are JSON numbers only, and a report's method, details
    # and timings have their declared types
    ("problem", ("matrices", "a", "re"), ["2", True, 0, "1e0"],
     "entries must be numbers"),
    ("problem", ("matrices", "a", "re"), [2.0, True, 0, 1.0],
     "entries must be numbers"),
    ("problem", ("matrices", "a", "im"), [0.0, "0", 0.0, 0.0],
     "entries must be numbers"),
    ("problem", ("matrices", "a", "re"), [10**400, 0, 0, 1],
     "entries must be finite"),
    ("problem", ("label",), [], "label must be an object"),
    ("report", ("method",), 5, "method must be a string"),
    ("report", ("method",), None, "method must be a string"),
    ("report", ("details",), [1], "details must be an object"),
    ("report", ("details",), [], "details must be an object"),
    ("report", ("timings",), "x", "timings must be an object"),
]


@pytest.mark.parametrize("what,path,value,names", _MALFORMED)
def test_every_malformed_file_is_a_parse_error(what, path, value, names):
    decode = decode_problem if what == "problem" else decode_report
    good = _good_problem() if what == "problem" else _good_report()
    assert decode(good) is not None
    # a path of () replaces the whole object
    bad = value if path == () else _edited(good, path, value)
    with pytest.raises(ParseError, match=re.escape(names)):
        decode(bad)


def test_a_missing_matrix_and_a_1d_array_are_parse_errors():
    with pytest.raises(ParseError, match="no matrix named 'w0'"):
        decode_problem(_good_problem()).matrix("w0")
    with pytest.raises(ParseError, match="2-d"):
        encode_matrix(np.ones(3))


def test_density_report_round_trip_and_old_format(rng):
    # a subspace witness round-trips exactly; its three lists must keep one
    # length, and the per-cluster factor layout it replaced is refused
    a, basis, _ = make_subspace_instance(6, 3, 2, rng, q=2, r=1)
    decision = check_subspace(a, basis, 3)
    back = decode_report(json.loads(json.dumps(encode_report(decision))))
    cert = back.certificate
    assert cert.weights == decision.certificate.weights
    for got, want in zip(cert.left + cert.right,
                         decision.certificate.left
                         + decision.certificate.right):
        assert np.array_equal(got, want)
    assert verify_certificate(cert, a, basis, 3)["ok"]
    obj = encode_report(decision)
    obj["certificate"]["weights"].append(0.0)
    with pytest.raises(ParseError, match="lists of one length"):
        decode_report(obj)
    obj = encode_report(decision)
    obj["certificate"]["weights"][0] = "0.5"
    with pytest.raises(ParseError, match="weights must be a number"):
        decode_report(obj)
    del obj["certificate"]["right"]
    with pytest.raises(ParseError, match="lists of one length"):
        decode_report(obj)
    obj = encode_report(decision)
    cert = obj["certificate"]
    cert["factors"] = cert.pop("right")
    cert["multiplicities"] = [1] * len(cert["factors"])
    del cert["weights"], cert["left"]
    with pytest.raises(ParseError, match="'factors' is retired"):
        decode_report(obj)


def test_density_report_size_guard():
    # one n x k factor pair per term: the dense form of a subspace report,
    # 20 dense 200 x 200 matrices, took 37 MB
    rng = np.random.default_rng(1)
    a, basis, _ = make_subspace_instance(200, 20, 2, rng)
    decision = check_subspace(a, basis, 20)
    assert decision.certificate.kind is CertKind.WITNESS_SYSTEM
    text = json.dumps(encode_report(decision), indent=2)
    assert len(text) < 1_000_000
    back = decode_report(json.loads(text))
    assert verify_certificate(back.certificate, a, basis, 20)["ok"]


_RETIRED_LAYOUTS = {
    # every certificate field and kind an earlier report wrote
    "vectors": {"kind": "WITNESS_SYSTEM"},
    "block_matrix": {"kind": "WITNESS_SYSTEM"},
    "subgradient": {"kind": "WITNESS_SYSTEM"},
    "factors": {"kind": "WITNESS_SYSTEM"},
    "multiplicities": {"kind": "WITNESS_SYSTEM", "multiplicities": [1]},
    "BLOCK_COEFFICIENT": {"kind": "BLOCK_COEFFICIENT"},
    "DENSITY_SYSTEM": {"kind": "DENSITY_SYSTEM"},
}


@pytest.mark.parametrize("retired", _RETIRED_LAYOUTS)
def test_retired_certificate_layouts_are_parse_errors(retired, tmp_path,
                                                      capsys):
    a = np.diag([2.0, 1.0])
    b = np.array([[0.0, 1.0], [0.5j, 0.0]])
    cert = dict(_RETIRED_LAYOUTS[retired])
    if retired in ("vectors", "block_matrix", "subgradient"):
        cert[retired] = encode_matrix(np.eye(2)[:, :1])
    elif retired == "factors":
        cert[retired] = [encode_matrix(np.eye(2)[:, :1])]
    obj = encode_report(check_pair(a, b, 1, want_certificate=False))
    obj["certificate"] = cert
    with pytest.raises(ParseError, match=f"{retired}'? is retired"):
        decode_report(obj)
    p, r = tmp_path / "p.json", tmp_path / "r.json"
    save_problem(p, {"a": a, "b": b}, 1)
    r.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(p), str(r)]) == 2
    assert "retired" in capsys.readouterr().err


# a problem and its report as written before the unread "herm", "resid" and
# "rank" tolerances and the report's "seed" were retired: every saved
# tolerances block carries all three
_HERM_PROBLEM = (
    '{"schema_version": 1, "matrices": {"a": {"rows": 2, "cols": 2, '
    '"re": [2.0, 0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0]}, "b": {"rows": '
    '2, "cols": 2, "re": [0.0, 1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.5, 0.0]}}, '
    '"k": 1, "field": "complex", "tolerances": {"decide": 1e-07, "strict": '
    '1e-06, "cert": 1e-08, "resid": 1e-10, "herm": 1e-08, "cluster": null, '
    '"rank": null}}')
_HERM_REPORT = (
    '{"schema_version": 1, "verdict": "ORTHOGONAL", "margin": 0.0, "scale": '
    '3.0, "method": "support-sweep", "tolerances": {"decide": 1e-07, '
    '"strict": 1e-06, "cert": 1e-08, "resid": 1e-10, "herm": 1e-08, '
    '"cluster": null, "rank": null}, "certificate": {"kind": '
    '"WITNESS_SYSTEM", "vectors": {"rows": 2, "cols": 1, "re": [1.0, 0.0], '
    '"im": [0.0, 0.0]}, "details": {"purpose": "orthogonal", "field": '
    '"complex", "pairing_re": 0.0, "pairing_im": 0.0, '
    '"construction_residual": 0.0, "singular_values": [2.0], '
    '"purify_steps": 0, "hull_angles": [0.0], "hull_weights": [1.0]}}, '
    '"details": {"field": "complex", "norm_a": 2.0, "norm_b": 1.0, '
    '"boundary_value": 2.0, "q": 1, "r": 0, "degenerate_zero": false, '
    '"cluster_tol": 2e-08, "sweep_evals": 0, "sweep_capped": false, '
    '"margin_lower_bound": 0.0, "support_theta": 0.0}, "timings": {}, '
    '"seed": null}')


def test_files_with_a_herm_tolerance_still_load_and_verify(tmp_path):
    # the tolerances still load; the report's single-vector witness is a
    # retired layout, which verify refuses as a usage error
    problem = decode_problem(json.loads(_HERM_PROBLEM))
    with pytest.raises(ParseError, match="'vectors' is retired"):
        decode_report(json.loads(_HERM_REPORT))
    report = decode_report({**json.loads(_HERM_REPORT), "certificate": None})
    assert problem.tolerances == Tolerances()
    assert report.tolerances == Tolerances()
    a, b = problem.matrices["a"], problem.matrices["b"]
    p, r = tmp_path / "p.json", tmp_path / "r.json"
    p.write_text(_HERM_PROBLEM, encoding="utf-8")
    r.write_text(_HERM_REPORT, encoding="utf-8")
    assert main(["verify", str(p), str(r)]) == 2
    # a retired key is dropped whatever its value, and so is a report seed
    old = json.loads(_HERM_PROBLEM)
    old["tolerances"].update(resid=0.5, herm=0.5, rank=0.5, decide=1e-3,
                             strict=1e-2)
    assert decode_problem(old).tolerances == Tolerances(decide=1e-3,
                                                        strict=1e-2)
    seeded = decode_report({**json.loads(_HERM_REPORT), "certificate": None,
                            "seed": 7})
    assert seeded.tolerances == report.tolerances
    # what is written now carries neither retired key, nor a seed
    decision = check_pair(a, b, 1)
    for obj in (encode_problem({"a": a, "b": b}, 1, tolerances=Tolerances()),
                encode_report(decision)):
        assert set(obj["tolerances"]) == {"decide", "strict", "cert",
                                          "cluster"}
    assert "seed" not in encode_report(decision)
    for retired in ("herm", "resid", "rank"):
        with pytest.raises(ParseError, match="unknown keys"):
            decode_problem({**json.loads(_HERM_PROBLEM),
                            "tolerances": {retired: 1e-8, "hermit": 1.0}})


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_problem(tmp_path / "nope.json")


def test_load_problem_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_problem(path)
