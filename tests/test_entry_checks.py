"""Each input is checked once, at its door.

There are three doors: the operand preamble that every public decision,
referee and ``verify_certificate`` opens with, ``Tolerances`` for the
bands and widths, and the file decoder for problems and reports. The
kernels below them trust what they are given. These tests pin both halves:
a non-finite operand is refused at every entry (a failing clause, never an
exception, in the verifier), a malformed file is a parse error before any
decision, a refutation op checks each of its operands once, and no trusted
kernel raises an argument error of its own.
"""

import ast
import importlib
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import kyfanorth
import kyfanorth.cli
from kyfanorth.decide import (
    check_pair,
    check_parallel,
    check_subspace,
)
from kyfanorth.errors import NonFinite
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_subspace_instance,
)
from kyfanorth.io import encode_problem, save_report
from kyfanorth.linalg import as_matrix
from kyfanorth.model import CertKind, Tolerances, Verdict
from kyfanorth.oracle import (
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
)
from kyfanorth.verify import verify_certificate

PAIR_ENTRIES = (check_pair, check_parallel, oracle_check_pair,
                oracle_check_parallel)
SUBSPACE_ENTRIES = (check_subspace, oracle_check_subspace)


def _spoiled(m, value):
    out = np.array(m, dtype=complex)
    out[1, 1] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf * 1j])
def test_every_entry_refuses_a_non_finite_operand(rng, value):
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    for entry in PAIR_ENTRIES:
        with pytest.raises(NonFinite):
            entry(_spoiled(a, value), b, 2)
        with pytest.raises(NonFinite):
            entry(a, _spoiled(b, value), 2)
    basis = [b, a @ b]
    for entry in SUBSPACE_ENTRIES:
        with pytest.raises(NonFinite):
            entry(_spoiled(a, value), basis, 2)
        with pytest.raises(NonFinite):
            entry(a, [b, _spoiled(a @ b, value)], 2)


def _fails_without_raising(cert, a, second, k):
    report = verify_certificate(cert, a, second, k)
    assert report["ok"] is False
    assert not all(c["pass"] for c in report["checks"])


def test_verify_fails_bad_operands_without_raising(rng):
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    violation = check_pair(a, b, 2).certificate
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    witness = check_pair(a, b, 2).certificate
    a_s, basis, _ = make_subspace_instance(4, 2, 2, rng)
    density = check_subspace(a_s, basis, 2).certificate
    assert violation.kind is CertKind.VIOLATION
    assert witness.kind is CertKind.WITNESS_SYSTEM
    assert density.kind is CertKind.WITNESS_SYSTEM
    for value in (np.nan, np.inf):
        _fails_without_raising(witness, _spoiled(a, value), b, 2)
        _fails_without_raising(witness, a, _spoiled(b, value), 2)
        _fails_without_raising(density, _spoiled(a_s, value), basis, 2)
        _fails_without_raising(density, a_s,
                               [basis[0], _spoiled(basis[1], value)], 2)
    for k in (0, 5):
        _fails_without_raising(witness, a, b, k)
        _fails_without_raising(density, a_s, basis, k)


def test_verify_fails_non_finite_certificates_without_raising(rng):
    a, b, _ = make_nonorthogonal_pair(4, 2, rng)
    cert = check_pair(a, b, 2).certificate
    assert verify_certificate(cert, a, b, 2)["ok"]
    for value in (np.inf, -np.inf, np.nan, complex(np.inf, 1.0),
                  complex(0.0, np.nan)):
        cert.coefficient = value
        _fails_without_raising(cert, a, b, 2)
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    cert = check_pair(a, b, 2).certificate
    assert cert.kind is CertKind.WITNESS_SYSTEM
    assert verify_certificate(cert, a, b, 2)["ok"]
    cert.right[0] = _spoiled(cert.right[0], np.nan)
    _fails_without_raising(cert, a, b, 2)
    cert.right[0] = cert.left[0]
    cert.weights = [np.nan]
    _fails_without_raising(cert, a, b, 2)


def test_a_refutation_checks_each_operand_once(monkeypatch):
    # check_pair, verify_certificate and oracle_check_pair take two
    # operands each: six checks in all, none repeated by a kernel below
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return as_matrix(m)

    for info in pkgutil.iter_modules(kyfanorth.__path__):
        module = importlib.import_module(f"kyfanorth.{info.name}")
        if getattr(module, "as_matrix", None) is as_matrix:
            monkeypatch.setattr(module, "as_matrix", counted)
    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(5))
    calls.clear()
    d = check_pair(a, b, 2)
    assert d.verdict is Verdict.NOT_ORTHOGONAL
    assert verify_certificate(d.certificate, a, b, 2)["ok"]
    assert oracle_check_pair(a, b, 2).verdict is Verdict.NOT_ORTHOGONAL
    assert calls == [(4, 4)] * 6


def test_the_referee_takes_both_operand_norms_from_one_svd(monkeypatch):
    svd = np.linalg.svd
    inputs = []

    def recorded(m, *args, **kwargs):
        inputs.append(np.array(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    # an ORTHOGONAL reading also runs the near-tie rule on A's spectrum,
    # which comes from that same batched call
    for maker, verdict in ((make_nonorthogonal_pair, Verdict.NOT_ORTHOGONAL),
                           (make_orthogonal_pair, Verdict.ORTHOGONAL)):
        a, b, _ = maker(4, 2, np.random.default_rng(5))
        inputs.clear()
        assert oracle_check_pair(a, b, 2).verdict is verdict
        assert np.array_equal(inputs[0], np.stack([a, b]))
        assert not any(m.shape == (4, 4) for m in inputs)


# the kernels below the doors, by module, and the errors that would mean
# one re-checks an argument; svd_frame's NoConvergence reports a LAPACK
# failure, not a bad argument
_TRUSTED = {"linalg": {"cluster_spectrum", "svd_frame"},
            "norms": {"ky_fan_sum"},
            "subdiff": {"frame_of"}}
_ARGUMENT_ERRORS = {"ShapeMismatch", "KOutOfRange", "NonFinite", "ValueError"}
_CHECKS = {"as_matrix", "require_square", "require_k", "require_operands",
           "require_field"}


def _called_name(node):
    func = node.func if isinstance(node, ast.Call) else node
    return getattr(func, "id", getattr(func, "attr", None))


def test_trusted_kernels_raise_no_argument_error():
    package = Path(kyfanorth.__file__).parent
    found, offences = set(), []
    for module, names in _TRUSTED.items():
        tree = ast.parse((package / f"{module}.py").read_text("utf-8"))
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
                continue
            found.add(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and node.exc is not None \
                        and _called_name(node.exc) in _ARGUMENT_ERRORS:
                    offences.append(f"{fn.name} raises line {node.lineno}")
                if isinstance(node, ast.Call) and _called_name(node) in _CHECKS:
                    offences.append(f"{fn.name} checks line {node.lineno}")
    assert found == set().union(*_TRUSTED.values())
    assert offences == []


@pytest.mark.parametrize("field,value", [
    ("cluster", math.nan), ("cluster", -1.0), ("cluster", math.inf),
    ("strict", math.inf), ("strict", math.nan), ("decide", math.nan),
    ("decide", 1e-5), ("cert", math.inf), ("cert", math.nan), ("cert", 0.0),
])
def test_tolerances_refuse_a_bad_value(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


def test_tolerances_keep_any_finite_clustering_width():
    # a width at zero splits every distinct value, a large one is the
    # user's choice
    for width in (0.0, 1e-300, 1e9):
        assert Tolerances(cluster=width).cluster == width


# problem files that must stop at the decoder: a clustering width of NaN
# would otherwise tie every singular value and read this refuted pair
# ORTHOGONAL, and "k": 2.7 would be read as k = 2
_REFUSED_FILES = {
    "cluster_nan": ("tolerances", {"cluster": math.nan}),
    "cluster_negative": ("tolerances", {"cluster": -1}),
    "cluster_infinite": ("tolerances", {"cluster": math.inf}),
    "strict_infinite": ("tolerances", {"strict": math.inf}),
    "cert_infinite": ("tolerances", {"cert": math.inf}),
    "k_fraction": ("k", 2.7),
    "k_boolean": ("k", True),
    "k_string": ("k", "2"),
    "rows_fraction": ("rows", 1.9),
    "entries_strings_and_booleans": ("re", ["2", True, 0, "1e0"] * 4),
    "subspace_nested": ("subspace", [["b"]]),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_FILES))
def test_a_refused_problem_file_builds_no_decision(tmp_path, capsys,
                                                   monkeypatch, case):
    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(3))
    obj = encode_problem({"a": a, "b": b}, 2)
    key, value = _REFUSED_FILES[case]
    (obj["matrices"]["b"] if key in ("rows", "re") else obj)[key] = value
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(obj), encoding="utf-8")
    report = tmp_path / "r.json"
    save_report(report, check_pair(a, b, 2))

    def refused(*args, **kwargs):
        raise AssertionError("a decision was built from a refused file")

    for name in ("check_pair", "check_parallel", "check_subspace",
                 "verify_certificate", "oracle_check_pair"):
        monkeypatch.setattr(kyfanorth.cli, name, refused)
    sweep = ["sweep-plot", str(problem), "--out", str(tmp_path / "s.csv")]
    for argv in (["check", str(problem)], ["verify", str(problem), str(report)],
                 sweep):
        assert kyfanorth.cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
