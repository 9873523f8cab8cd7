"""JSON codecs for problem files, reports, and certificates.

Matrices travel as flat row-major real and imaginary lists with explicit
dimensions. Floats use Python's shortest round-trip form, which stays within
17 significant digits and reconstructs the exact double. Counts and
dimensions are JSON integers and every other scalar a JSON number, read
through ``_integer`` and ``_number``; a witness system's terms are three
lists of one length, its weights and the matrices Y_i and X_i. Every
malformed input surfaces as ParseError with a message naming the offending
field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .errors import ParseError
from .model import (
    COMPLEX_FIELD,
    REAL_FIELD,
    CertKind,
    Certificate,
    Decision,
    Tolerances,
    Verdict,
)

__all__ = [
    "SCHEMA_VERSION",
    "Problem",
    "Report",
    "encode_matrix",
    "decode_matrix",
    "encode_problem",
    "decode_problem",
    "load_problem",
    "save_problem",
    "encode_certificate",
    "decode_certificate",
    "encode_report",
    "decode_report",
    "load_report",
    "save_report",
]

SCHEMA_VERSION = 1

_TOL_KEYS = tuple(f.name for f in fields(Tolerances))
# tolerances older files carry that nothing reads: they are dropped
_RETIRED_TOL_KEYS = ("herm", "resid", "rank")
# a witness system's terms: weights and the matrix lists Y_i and X_i
_CERT_TERMS = ("weights", "left", "right")
# certificate kinds and fields earlier reports wrote, which no certificate
# carries now
_RETIRED_KINDS = ("BLOCK_COEFFICIENT", "DENSITY_SYSTEM")
_RETIRED_CERT_FIELDS = ("vectors", "block_matrix", "subgradient", "factors",
                        "multiplicities", "densities")


def encode_matrix(m) -> dict:
    """Matrix to {rows, cols, re, im} with flat row-major entry lists."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ParseError(f"can only encode 2-d arrays, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel(order="C")],
        "im": [float(x) for x in m.imag.ravel(order="C")],
    }


def _integer(value, what: str) -> int:
    """A JSON integer: neither true, nor 2.0, nor "2" passes."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number, integer or not: neither true nor "1e-8" passes."""
    if type(value) not in (int, float):
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(value)


def _object(value, what: str) -> dict:
    """A JSON object, or {} for an absent one."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {value!r}")
    return value


def _require_version(obj, what: str):
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"{what}: unsupported schema_version {version!r}")


def decode_matrix(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ParseError(f"{name}: missing key {key!r}")
    rows = _integer(obj["rows"], f"{name}: rows")
    cols = _integer(obj["cols"], f"{name}: cols")
    if rows < 0 or cols < 0:
        raise ParseError(f"{name}: negative dimensions {rows}x{cols}")
    re, im = obj["re"], obj["im"]
    if not isinstance(re, list) or not isinstance(im, list):
        raise ParseError(f"{name}: re/im must be lists")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ParseError(
            f"{name}: entry count {len(re)}/{len(im)} != rows*cols {rows * cols}")
    # NumPy would parse "1e0" and cast true: only JSON numbers pass
    if not set(map(type, re)).union(map(type, im)) <= {int, float}:
        raise ParseError(f"{name}: entries must be numbers")
    try:
        real = np.asarray(re, dtype=float).reshape(rows, cols)
        imag = np.asarray(im, dtype=float).reshape(rows, cols)
    except OverflowError as exc:
        # an integer past the largest double
        raise ParseError(f"{name}: entries must be finite") from exc
    m = real + 1j * imag
    if not np.all(np.isfinite(real)) or not np.all(np.isfinite(imag)):
        raise ParseError(f"{name}: entries must be finite")
    return m


def _plain(value):
    """Recursively convert numpy and complex values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


@dataclass
class Problem:
    """Decoded problem file: named matrices plus the check parameters."""

    matrices: dict
    k: int
    field: str = COMPLEX_FIELD
    subspace: list | None = None
    tolerances: Tolerances | None = None
    label: dict = dataclass_field(default_factory=dict)

    def matrix(self, name: str) -> np.ndarray:
        if name not in self.matrices:
            raise ParseError(f"problem has no matrix named {name!r}")
        return self.matrices[name]

    def pair(self):
        return self.matrix("a"), self.matrix("b")

    def basis(self) -> list:
        names = self.subspace if self.subspace is not None else []
        return [self.matrix(nm) for nm in names]


@dataclass
class Report(Decision):
    """Decoded report file: a decision and the timings of its check."""

    timings: dict = dataclass_field(default_factory=dict)


def encode_problem(matrices: dict, k: int, field_name: str = COMPLEX_FIELD,
                   subspace: list | None = None,
                   tolerances: Tolerances | None = None,
                   label: dict | None = None) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "matrices": {str(nm): encode_matrix(m) for nm, m in matrices.items()},
        "k": int(k),
        "field": field_name,
    }
    if subspace is not None:
        obj["subspace"] = [str(nm) for nm in subspace]
    if tolerances is not None:
        obj["tolerances"] = _plain(tolerances.as_dict())
    if label:
        obj["label"] = _plain(label)
    return obj


def _decode_tolerances(obj) -> Tolerances:
    if not isinstance(obj, dict):
        raise ParseError("tolerances: expected an object")
    unknown = set(obj) - set(_TOL_KEYS) - set(_RETIRED_TOL_KEYS)
    if unknown:
        raise ParseError(f"tolerances: unknown keys {sorted(unknown)}")
    kwargs = {key: _number(value, f"tolerances: {key}")
              for key, value in obj.items()
              if value is not None and key not in _RETIRED_TOL_KEYS}
    try:
        return Tolerances(**kwargs)
    except ValueError as exc:
        raise ParseError(f"tolerances: {exc}") from exc


def decode_problem(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ParseError("problem: expected a top-level object")
    _require_version(obj, "problem")
    raw = obj.get("matrices")
    if not isinstance(raw, dict) or not raw:
        raise ParseError("problem: matrices must be a non-empty object")
    matrices = {nm: decode_matrix(m, name=f"matrices[{nm!r}]")
                for nm, m in raw.items()}
    k = _integer(obj.get("k"), "problem: k")
    if k < 1:
        raise ParseError(f"problem: k must be positive, got {k}")
    field_name = obj.get("field", COMPLEX_FIELD)
    if field_name not in (COMPLEX_FIELD, REAL_FIELD):
        raise ParseError(f"problem: unknown field {field_name!r}")
    subspace = obj.get("subspace")
    if subspace is not None:
        if not isinstance(subspace, list):
            raise ParseError("problem: subspace must be a list of names")
        for nm in subspace:
            if not isinstance(nm, str) or nm not in matrices:
                raise ParseError(f"problem: subspace entry {nm!r} names no "
                                 "matrix")
    tolerances = None
    if obj.get("tolerances") is not None:
        tolerances = _decode_tolerances(obj["tolerances"])
    label = _object(obj.get("label"), "problem: label")
    return Problem(matrices=matrices, k=k, field=field_name,
                   subspace=subspace, tolerances=tolerances, label=label)


def encode_certificate(cert: Certificate) -> dict:
    obj = {"kind": cert.kind.value}
    if cert.weights is not None:
        obj["weights"] = [float(w) for w in cert.weights]
        obj["left"] = [encode_matrix(y) for y in cert.left]
        obj["right"] = [encode_matrix(x) for x in cert.right]
    if cert.coefficient is not None:
        c = complex(cert.coefficient)
        obj["coefficient"] = [c.real, c.imag]
    if cert.norm_value is not None:
        obj["norm_value"] = float(cert.norm_value)
    if cert.details:
        obj["details"] = _plain(cert.details)
    return obj


def decode_certificate(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise ParseError("certificate: expected an object")
    kind_raw = obj.get("kind")
    if kind_raw in _RETIRED_KINDS:
        raise ParseError(f"certificate: kind {kind_raw} is retired; re-run "
                         "check")
    try:
        kind = CertKind(kind_raw)
    except ValueError as exc:
        raise ParseError(f"certificate: unknown kind {kind_raw!r}") from exc
    for name in _RETIRED_CERT_FIELDS:
        if name in obj:
            raise ParseError(f"certificate: field {name!r} is retired; "
                             "re-run check")
    terms = {}
    if any(name in obj for name in _CERT_TERMS):
        lists = [obj.get(name) for name in _CERT_TERMS]
        if not (all(isinstance(x, list) for x in lists)
                and len({len(x) for x in lists}) == 1):
            raise ParseError("certificate: weights, left and right must be "
                             "lists of one length")
        terms = {"weights": [_number(w, "certificate: weights")
                             for w in obj["weights"]]}
        for name in ("left", "right"):
            terms[name] = [decode_matrix(m, name=f"certificate.{name}[{i}]")
                           for i, m in enumerate(obj[name])]
    coefficient = None
    if "coefficient" in obj:
        pair = obj["coefficient"]
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ParseError("certificate: coefficient must be [re, im]")
        coefficient = complex(*(_number(x, "certificate: coefficient")
                                for x in pair))
    norm_value = None
    if "norm_value" in obj:
        norm_value = _number(obj["norm_value"], "certificate: norm_value")
    details = _object(obj.get("details"), "certificate: details")
    return Certificate(kind=kind, coefficient=coefficient,
                       norm_value=norm_value, details=details, **terms)


def encode_report(decision: Decision, timings: dict | None = None) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "verdict": decision.verdict.value,
        "margin": float(decision.margin),
        "scale": float(decision.scale),
        "method": decision.method,
        "tolerances": (_plain(decision.tolerances.as_dict())
                       if decision.tolerances is not None else None),
        "certificate": (encode_certificate(decision.certificate)
                        if decision.certificate is not None else None),
        "details": _plain(decision.details),
        "timings": _plain(timings or {}),
    }
    return obj


def decode_report(obj) -> Report:
    if not isinstance(obj, dict):
        raise ParseError("report: expected a top-level object")
    _require_version(obj, "report")
    verdict_raw = obj.get("verdict")
    try:
        verdict = Verdict(verdict_raw)
    except ValueError as exc:
        raise ParseError(f"report: unknown verdict {verdict_raw!r}") from exc
    margin = _number(obj.get("margin"), "report: margin")
    scale = _number(obj.get("scale"), "report: scale")
    tolerances = None
    if obj.get("tolerances") is not None:
        tolerances = _decode_tolerances(obj["tolerances"])
    certificate = None
    if obj.get("certificate") is not None:
        certificate = decode_certificate(obj["certificate"])
    method = obj.get("method", "")
    if not isinstance(method, str):
        raise ParseError(f"report: method must be a string, got {method!r}")
    # older reports carry a "seed" that nothing reads: it is ignored
    return Report(verdict=verdict, margin=margin, scale=scale,
                  method=method, tolerances=tolerances,
                  certificate=certificate,
                  details=_object(obj.get("details"), "report: details"),
                  timings=_object(obj.get("timings"), "report: timings"))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _save_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_problem(path) -> Problem:
    return decode_problem(_load_json(path))


def save_problem(path, matrices: dict, k: int,
                 field_name: str = COMPLEX_FIELD, subspace: list | None = None,
                 tolerances: Tolerances | None = None,
                 label: dict | None = None):
    _save_json(path, encode_problem(matrices, k, field_name=field_name,
                                    subspace=subspace, tolerances=tolerances,
                                    label=label))


def load_report(path) -> Report:
    return decode_report(_load_json(path))


def save_report(path, decision: Decision):
    _save_json(path, encode_report(decision))
