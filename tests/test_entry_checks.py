"""Operands are checked once, at the entry points.

Every public decision, referee and ``verify_certificate`` opens with the
one operand preamble, and the kernels below it trust the arrays it
returns. These tests pin both halves: a non-finite operand is refused at
every entry (a failing clause, never an exception, in the verifier), and a
refutation op checks each of its operands once.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import kyfanorth
from kyfanorth.decide import (
    check_pair,
    check_parallel,
    check_subspace,
    verify_certificate,
)
from kyfanorth.errors import NonFinite
from kyfanorth.generate import (
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_subspace_instance,
)
from kyfanorth.linalg import as_matrix
from kyfanorth.model import CertKind, Verdict
from kyfanorth.oracle import (
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
)

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
    assert density.kind is CertKind.DENSITY_SYSTEM
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
    cert.vectors = _spoiled(cert.vectors, np.nan)
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
    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(5))
    svd = np.linalg.svd
    inputs = []

    def recorded(m, *args, **kwargs):
        inputs.append(np.array(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    oracle_check_pair(a, b, 2)
    assert np.array_equal(inputs[0], np.stack([a, b]))
    assert not any(m.shape == (4, 4) for m in inputs)
