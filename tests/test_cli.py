import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kyfanorth
from kyfanorth.cli import build_parser, main
from kyfanorth.io import load_problem, load_report, save_problem
from kyfanorth.model import REAL_FIELD, Tolerances, Verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, a, b, k, name="p.json", **kwargs):
    path = tmp_path / name
    save_problem(path, {"a": a, "b": b}, k, **kwargs)
    return str(path)


_SUBSPACE_WITHOUT_SCIPY = """
import sys
import numpy as np
import kyfanorth.cli
from kyfanorth import Verdict, check_subspace, verify_certificate
from kyfanorth.io import decode_report, encode_report

# k = 2 on a boundary cluster of width 3 (q = 1, r = 2); the zero of the
# first pairing sits off the centre of the coefficient polytope
a = np.diag([3.0, 1.0, 1.0, 1.0, 0.5])
w2 = np.zeros((5, 5))
w2[1, 2] = 1.0
basis = [np.diag([-0.5, 1.0, 0.0, 0.0, 0.0]), w2]
tied = check_subspace(a, basis, 2)
assert tied.verdict is Verdict.ORTHOGONAL, tied.summary()
assert tied.details["iterations"] >= 1, tied.details
# the subspace witness and its verification run on numpy alone
assert verify_certificate(tied.certificate, a, basis, 2)["ok"]
back = decode_report(encode_report(tied)).certificate
assert verify_certificate(back, a, basis, 2)["ok"]
refuted = check_subspace(a, [np.diag([-1.2, 1.0, 0.0, 0.0, 0.0]), w2], 2)
assert refuted.verdict is Verdict.NOT_ORTHOGONAL, refuted.summary()
# the three referees run on numpy alone too
from kyfanorth import (make_parallel_pair, oracle_check_pair,
                       oracle_check_parallel, oracle_check_subspace)
assert oracle_check_pair(a, w2, 2).verdict is Verdict.ORTHOGONAL
assert oracle_check_subspace(a, basis, 2).verdict \
    is Verdict.NO_COUNTEREXAMPLE
pa, pb, _ = make_parallel_pair(4, 2, np.random.default_rng(1))
assert oracle_check_parallel(pa, pb, 2).verdict is Verdict.PARALLEL
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_import_loads_no_scipy():
    # no module of the package imports scipy: neither the CLI nor a
    # subspace decision, its density certificate's verification, its report
    # round trip or any of the three referees loads it
    src = str(Path(kyfanorth.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", _SUBSPACE_WITHOUT_SCIPY],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "[]"


def test_norm_known_value(tmp_path, capsys):
    path = write_pair(tmp_path, np.diag([3.0, 2.0, 1.0]),
                      np.zeros((3, 3)), 2)
    code, out, _ = run(capsys, "norm", path)
    assert code == 0
    assert "ky_fan_norm(k=2) = 5" in out
    assert "singular_values = 3 2 1" in out


def test_norm_identity(tmp_path, capsys):
    path = write_pair(tmp_path, np.eye(4), np.zeros((4, 4)), 3)
    code, out, _ = run(capsys, "norm", path, "--k", "3")
    assert code == 0
    assert "= 3" in out


def test_check_exit_codes(tmp_path, capsys):
    # worked example: orthogonal direction on a singular matrix
    a = np.diag([2.0, 1.0, 0.0])
    b = np.zeros((3, 3))
    b[2, 2] = 1.0
    path = write_pair(tmp_path, a, b, 3)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "ORTHOGONAL" in out

    # worked example: the identity shrinks diag(2,1) in the trace norm
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.eye(2), 2,
                      name="neg.json")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "NOT_ORTHOGONAL" in out


def test_check_blocks_and_oracle_agree(tmp_path, capsys):
    # at a zero boundary value check certifies with the corral of
    # boundary-block contractions, and the norm-evaluation referee reads
    # the same verdict
    a = np.diag([2.0, 1.0, 0.0])
    b = np.zeros((3, 3))
    b[2, 2] = 1.0
    path = write_pair(tmp_path, a, b, 3)
    code_engine, out, _ = run(capsys, "check", path)
    code_oracle, _, _ = run(capsys, "check", path, "--oracle")
    assert code_engine == 0
    assert "certificate=WITNESS_SYSTEM" in out
    assert code_oracle == 0


def _subcommand_options(name):
    """{option string: argparse action} of one subcommand's parser."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {opt: action for action in sub.choices[name]._actions
            for opt in action.option_strings}


def test_check_reads_the_question_from_the_problem_alone(tmp_path, capsys):
    # the problem file fixes the matrices, k, the field and the tolerances,
    # so check decides the question verify re-checks; check's options only
    # pick the criterion and what to write
    options = _subcommand_options("check")
    assert set(options) == {"-h", "--help", "--mode", "--json", "--report",
                            "--no-cert", "--oracle"}
    assert list(options["--mode"].choices) == ["pair", "subspace", "parallel"]
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.eye(2), 2)
    for removed in (["--mode", "blocks"], ["--field", "real"],
                    ["--field", "complex"], ["--tol-decide", "0.45"],
                    ["--tol-strict", "0.5"], ["--cluster-tol", "1e-3"],
                    ["--seed", "5"]):
        code, _, err = run(capsys, "check", path, *removed)
        assert code == 2, removed
        assert "usage" in err


def test_check_json_report(tmp_path, capsys):
    a = np.diag([2.0, 1.0])
    path = write_pair(tmp_path, a, np.eye(2), 2)
    report_path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "check", path, "--json",
                       "--report", report_path)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_ORTHOGONAL"
    assert "seed" not in payload
    assert payload["certificate"]["kind"] == "VIOLATION"
    on_disk = json.loads(open(report_path, encoding="utf-8").read())
    assert on_disk["verdict"] == payload["verdict"]


def test_check_degenerate_parallel_exit_code(tmp_path, capsys):
    a = np.diag([1.0, 0.0])
    path = write_pair(tmp_path, a, np.eye(2), 2)
    code, _, err = run(capsys, "check", path, "--mode", "parallel")
    assert code == 4
    assert "error" in err


def test_check_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "check")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_check_exits_3_on_a_boundary_verdict(tmp_path, capsys):
    # the refuted diag(2, 1) + I example again, with a strict band so wide
    # that its margin of -2 at scale 5 falls between the two thresholds
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.eye(2), 2,
                      tolerances=Tolerances(decide=1e-7, strict=0.5))
    for oracle in ((), ("--oracle",)):
        code, out, _ = run(capsys, "check", path, *oracle)
        assert code == 3, out
        assert "verdict=BOUNDARY" in out


def test_check_refuses_subspace_mode_without_a_subspace(tmp_path, capsys):
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.eye(2), 2)
    code, _, err = run(capsys, "check", path, "--mode", "subspace")
    assert code == 2
    assert "subspace list" in err


def test_sweep_plot_refuses_a_grid_below_8(tmp_path, capsys):
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.eye(2), 2)
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep-plot", path, "--out", str(out_path),
                       "--grid", "7")
    assert code == 2
    assert "--grid" in err
    assert not out_path.exists()


def test_problem_tolerances_change_bands(tmp_path, capsys):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = write_pair(tmp_path, a, b, 2)
    wide = write_pair(tmp_path, a, b, 2, name="wide.json",
                      tolerances=Tolerances(decide=0.45, strict=0.5))
    assert run(capsys, "check", path)[0] == 1
    # an absurdly wide decide band stored in the problem turns the same
    # instance orthogonal, with no certificate that the band could back
    code, out, _ = run(capsys, "check", wide)
    assert code == 0
    assert "certificate=" not in out


def test_verify_pass_and_tamper(tmp_path, capsys):
    rng = np.random.default_rng(11)
    from kyfanorth.generate import make_orthogonal_pair

    a, b, _ = make_orthogonal_pair(4, 2, rng, q=2)
    path = write_pair(tmp_path, a, b, 2)
    report_path = str(tmp_path / "r.json")
    assert run(capsys, "check", path, "--report", report_path)[0] == 0

    code, out, _ = run(capsys, "verify", path, report_path)
    assert code == 0
    assert out.startswith("PASS")

    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["certificate"]["right"][0]["re"][0] += 1e-2
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    code, out, _ = run(capsys, "verify", path, bad_path)
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_refuses_dense_density_report(tmp_path, capsys):
    # a subspace report in a retired DENSITY_SYSTEM layout, dense n x n
    # densities or per-cluster factors, is a usage error: re-run check
    from kyfanorth.decide import check_subspace
    from kyfanorth.io import encode_matrix, encode_report

    a = np.diag([3.0, 1.0, 1.0])
    basis = [np.diag([0.0, 1.0, -1.0])]
    path = str(tmp_path / "s.json")
    save_problem(path, {"a": a, "w0": basis[0]}, 2, subspace=["w0"])
    report = encode_report(check_subspace(a, basis, 2))
    x = report["certificate"]["right"]
    for layout in ({"densities": [encode_matrix(np.diag([1.0, 0.0, 0.0]))]},
                   {"factors": x, "multiplicities": [2] * len(x)}):
        report["certificate"] = {"kind": "DENSITY_SYSTEM", **layout}
        report_path = tmp_path / "old.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        code, _, err = run(capsys, "verify", path, str(report_path))
        assert code == 2
        assert "DENSITY_SYSTEM is retired" in err


@pytest.mark.parametrize("mode", ["pair", "parallel", "subspace"])
@pytest.mark.parametrize("oracle", [False, True])
def test_check_rejects_mismatched_shapes(tmp_path, capsys, mode, oracle):
    # a 3 x 3 A against a 4 x 4 direction or basis matrix is a usage error
    # (exit 2), never a verdict
    a, b = np.diag([3.0, 2.0, 1.0]), np.eye(4)
    path = str(tmp_path / "p.json")
    if mode == "subspace":
        save_problem(path, {"a": a, "w0": b}, 2, subspace=["w0"])
    else:
        save_problem(path, {"a": a, "b": b}, 2)
    argv = ["check", path, "--mode", mode] + (["--oracle"] if oracle else [])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "shape" in err


def test_verify_without_certificate(tmp_path, capsys):
    a = np.diag([2.0, 1.0])
    path = write_pair(tmp_path, a, np.eye(2), 2)
    report_path = str(tmp_path / "r.json")
    run(capsys, "check", path, "--no-cert", "--report", report_path)
    code, out, _ = run(capsys, "verify", path, report_path)
    assert code == 1
    assert "absent" in out


def _edit_report(path, **fields):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.update(fields)
    edited = path + ".edited.json"
    with open(edited, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return edited


def test_verify_ignores_the_tolerances_a_report_carries(tmp_path, capsys):
    # a pair the engine refutes (margin -0.595 at scale 5.71), and a report
    # claiming it orthogonal with two Haar-random columns and bounds so wide
    # that any columns would pass them
    from kyfanorth.generate import make_nonorthogonal_pair
    from kyfanorth.io import save_report
    from kyfanorth.linalg import haar_unitary
    from kyfanorth.model import Certificate, CertKind, Decision, Verdict

    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(3))
    loose = Tolerances(decide=1e5, strict=1e6, cert=1e5, cluster=1e9)
    x = haar_unitary(4, np.random.default_rng(0))[:, :2]
    cert = Certificate(kind=CertKind.WITNESS_SYSTEM, weights=[1.0], left=[x],
                       right=[x], details={"purpose": "orthogonal"})
    report_path = str(tmp_path / "forged.json")
    save_report(report_path, Decision(verdict=Verdict.ORTHOGONAL, margin=0.0,
                                      scale=1.0, tolerances=loose,
                                      certificate=cert))
    for name, tolerances in (("bare.json", None), ("own.json", Tolerances())):
        path = write_pair(tmp_path, a, b, 2, name=name, tolerances=tolerances)
        code, out, _ = run(capsys, "verify", path, report_path)
        assert code == 1, out
        assert "[FAIL] pairing" in out
    # only a problem that grants those bounds itself lets the columns pass
    path = write_pair(tmp_path, a, b, 2, name="loose.json", tolerances=loose)
    assert run(capsys, "verify", path, report_path)[0] == 0


def test_verify_fails_a_certificate_of_another_verdict(tmp_path, capsys):
    from kyfanorth.generate import make_nonorthogonal_pair, make_parallel_pair

    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(3))
    refuted = write_pair(tmp_path, a, b, 2, name="refuted.json")
    a, b, _ = make_parallel_pair(4, 2)
    parallel = write_pair(tmp_path, a, b, 2, name="parallel.json")
    for path, mode, code in ((refuted, "pair", 1), (parallel, "parallel", 0)):
        report_path = path + ".report.json"
        assert run(capsys, "check", path, "--mode", mode,
                   "--report", report_path)[0] == code
        assert run(capsys, "verify", path, report_path)[0] == 0
        # a VIOLATION, or a parallel WITNESS_SYSTEM, proves no orthogonality
        edited = _edit_report(report_path, verdict="ORTHOGONAL")
        code, out, _ = run(capsys, "verify", path, edited)
        assert code == 1, out
        assert "[FAIL] proves_verdict" in out
    # the parallel pair is not orthogonal at all
    assert run(capsys, "check", parallel)[0] == 1


@pytest.mark.parametrize("mode,verdict,edited", [
    ("pair", "ORTHOGONAL", "BOUNDARY"),
    ("parallel", "PARALLEL", "NOT_PARALLEL"),
])
def test_verify_refuses_a_proof_of_an_edited_verdict(tmp_path, capsys, mode,
                                                     verdict, edited):
    # every clause of the certificate still passes, but an ORTHOGONAL or
    # PARALLEL certificate proves neither BOUNDARY nor NOT_PARALLEL
    from kyfanorth.generate import make_orthogonal_pair, make_parallel_pair

    rng = np.random.default_rng(4)
    maker = make_orthogonal_pair if mode == "pair" else make_parallel_pair
    a, b, _ = maker(4, 2, rng)
    path = write_pair(tmp_path, a, b, 2)
    report_path = str(tmp_path / "r.json")
    assert run(capsys, "check", path, "--mode", mode,
               "--report", report_path)[0] == 0
    assert load_report(report_path).verdict.value == verdict
    code, out, _ = run(capsys, "verify", path,
                       _edit_report(report_path, verdict=edited), "--json")
    assert code == 1
    outcome = json.loads(out)
    assert outcome["ok"] is False
    failed = [c["name"] for c in outcome["checks"] if not c["pass"]]
    assert failed == ["proves_verdict"]


def test_verify_reads_a_real_field_pair_through_real_certificates(tmp_path,
                                                                  capsys):
    from kyfanorth.generate import make_nonorthogonal_pair, make_orthogonal_pair

    rng = np.random.default_rng(2)
    a, b, _ = make_orthogonal_pair(4, 2, rng, field=REAL_FIELD)
    real = write_pair(tmp_path, a, b, 2, name="real.json",
                      field_name=REAL_FIELD)
    report_path = str(tmp_path / "real_report.json")
    assert run(capsys, "check", real, "--report", report_path)[0] == 0
    assert run(capsys, "verify", real, report_path)[0] == 0
    # the same real-field witnesses prove nothing about complex scalars
    complex_path = write_pair(tmp_path, a, b, 2, name="complex.json")
    assert run(capsys, "verify", complex_path, report_path)[0] == 1
    # at s_k = 0 the fixed part 2i overflows the widened block's disk of
    # radius 1, but its real part 0 needs no contraction: a real-purpose
    # corral witness proves the real problem and nothing about the complex
    # one, which reads NOT_ORTHOGONAL with margin -1
    a, b = np.diag([2.0, 1.0, 0.0]), np.diag([2j, 0.0, 1.0])
    real = write_pair(tmp_path, a, b, 3, name="singular_real.json",
                      field_name=REAL_FIELD)
    report_path = str(tmp_path / "singular_real_report.json")
    assert run(capsys, "check", real, "--report", report_path)[0] == 0
    assert load_report(report_path).certificate.details["purpose"] == "real"
    code, out, _ = run(capsys, "verify", real, report_path)
    assert code == 0 and out.startswith("PASS kind=WITNESS_SYSTEM"), out
    complex_path = write_pair(tmp_path, a, b, 3, name="singular.json")
    code, out, _ = run(capsys, "check", complex_path)
    assert code == 1 and "margin=-1.000000e+00" in out, out
    code, out, _ = run(capsys, "verify", complex_path, report_path)
    assert code == 1 and "[FAIL] proves_verdict" in out, out
    # a complex scalar that shrinks the norm (-0.212 - 0.184i here) does not
    # refute over the reals; the real field's own scalar refutes in both
    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(3))
    path = write_pair(tmp_path, a, b, 2, name="refuted.json")
    real = write_pair(tmp_path, a, b, 2, name="refuted_real.json",
                      field_name=REAL_FIELD)
    for own, other, code in ((path, real, 1), (real, path, 0)):
        report_path = own + ".report.json"
        assert run(capsys, "check", own, "--report", report_path)[0] == 1
        assert run(capsys, "verify", own, report_path)[0] == 0
        assert run(capsys, "verify", other, report_path)[0] == code


def test_check_encodes_the_report_once(tmp_path, capsys, monkeypatch):
    import kyfanorth.cli
    import kyfanorth.io

    calls = []
    encode = kyfanorth.io.encode_report

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(kyfanorth.cli, "encode_report", counted)
    monkeypatch.setattr(kyfanorth.io, "encode_report", counted)
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.diag([0.0, 1.0]), 1)
    report_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "check", path, "--json",
                       "--report", str(report_path))
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out) == json.loads(report_path.read_text("utf-8"))
    calls.clear()
    assert run(capsys, "check", path)[0] == 0
    assert calls == []


def test_gen_kinds_round_trip(tmp_path, capsys):
    for kind, expected_code in (("orthogonal", 0), ("nonorthogonal", 1),
                                ("subspace", 0)):
        out_path = str(tmp_path / f"{kind}.json")
        code, out, _ = run(capsys, "gen", "--kind", kind, "--out", out_path,
                           "-n", "4", "-k", "2", "--seed", "7")
        assert code == 0
        assert "wrote" in out
        problem = load_problem(out_path)
        assert problem.label["kind"] == kind
        assert problem.label["seed"] == 7
        assert run(capsys, "check", out_path)[0] == expected_code


def test_gen_parallel_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "par.json")
    assert run(capsys, "gen", "--kind", "parallel", "--out", out_path,
               "-n", "4", "-k", "2", "--seed", "3")[0] == 0
    assert run(capsys, "check", out_path, "--mode", "parallel")[0] == 0


def test_sweep_plot_header_and_segment(tmp_path, capsys):
    # Hermitian direction at a tied top value: the pairing set is [-1, 1],
    # so h(0) = h(pi) = 1 and the fixed part is 0
    path = write_pair(tmp_path, np.eye(2), np.diag([1.0, -1.0]), 1)
    out_csv = str(tmp_path / "sweep.csv")
    code, out, _ = run(capsys, "sweep-plot", path, "--out", out_csv,
                       "--grid", "360", "--points", "50")
    assert code == 0
    lines = open(out_csv, encoding="utf-8").read().splitlines()
    assert lines[0] == "theta,h,fixed_re,fixed_im"
    assert len(lines) == 361
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    theta, h = rows[:, 0], rows[:, 1]
    np.testing.assert_allclose(h, np.abs(np.cos(theta)), atol=1e-9)
    assert np.abs(rows[:, 2:]).max() == 0.0

    pts = open(out_csv + ".points.csv", encoding="utf-8").read().splitlines()
    assert pts[0] == "re,im"
    assert len(pts) == 51


def test_sweep_plot_zero_direction(tmp_path, capsys):
    path = write_pair(tmp_path, np.diag([2.0, 1.0]), np.zeros((2, 2)), 1)
    out_csv = str(tmp_path / "zero.csv")
    assert run(capsys, "sweep-plot", path, "--out", out_csv)[0] == 0
    rows = open(out_csv, encoding="utf-8").read().splitlines()[1:]
    values = [float(line.split(",")[1]) for line in rows]
    assert max(abs(v) for v in values) <= 1e-12


def test_sweep_plot_singleton_sinusoid(tmp_path, capsys):
    # distinct singular values pin the pairing set to one point z0, the
    # support function is then |z0| cos(theta - arg z0)
    a = np.diag([2.0, 1.0])
    b = np.array([[0.3 + 0.4j, 0.0], [0.0, 0.0]])
    path = write_pair(tmp_path, a, b, 1)
    out_csv = str(tmp_path / "single.csv")
    assert run(capsys, "sweep-plot", path, "--out", out_csv,
               "--grid", "64")[0] == 0
    lines = open(out_csv, encoding="utf-8").read().splitlines()[1:]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines])
    # for k=1 the top value is the boundary cluster, so z0 rides in the
    # compression and the fixed part is empty
    assert np.abs(rows[:, 2:]).max() == 0.0
    want = np.real(np.exp(-1j * rows[:, 0]) * (0.3 + 0.4j))
    np.testing.assert_allclose(rows[:, 1], want, atol=1e-9)


def test_sweep_plot_refuses_a_real_field_problem(tmp_path, capsys):
    # the sweep's minimum over every phase is the complex margin (-0.595
    # here), not the real one that check decides from (-0.450): a real-field
    # problem is refused, and nothing is written
    from kyfanorth.generate import make_nonorthogonal_pair

    a, b, _ = make_nonorthogonal_pair(4, 2, np.random.default_rng(3))
    out_csv = tmp_path / "sweep.csv"
    real = write_pair(tmp_path, a, b, 2, name="real.json",
                      field_name=REAL_FIELD)
    code, out, err = run(capsys, "sweep-plot", real, "--out", str(out_csv))
    assert code == 2
    assert out == ""
    assert "real field" in err
    assert not out_csv.exists()
    assert run(capsys, "sweep-plot", write_pair(tmp_path, a, b, 2), "--out",
               str(out_csv))[0] == 0


def test_sweep_plot_uses_problem_tolerances(tmp_path, capsys):
    # a cluster width of 1e-3 merges 2 and 2 - 1e-4 into the boundary
    # cluster; the plotted sweep must be the one check decides from
    from kyfanorth.decide import check_pair
    from kyfanorth.generate import haar_unitary, random_matrix
    from kyfanorth.norms import ky_fan_norm

    rng = np.random.default_rng(3)
    u, v = haar_unitary(4, rng), haar_unitary(4, rng)
    a = (u * np.array([3.0, 2.0, 2.0 - 1e-4, 0.5])) @ v.conj().T
    b = random_matrix(4, rng)
    tol = Tolerances(cluster=1e-3)
    path = write_pair(tmp_path, a, b, 2, tolerances=tol)
    out_csv = tmp_path / "tol.csv"
    grid = 720
    assert run(capsys, "sweep-plot", path, "--out", str(out_csv),
               "--grid", str(grid))[0] == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()[1:]
    h_min = min(float(line.split(",")[1]) for line in lines)
    margin = check_pair(a, b, 2, tol=tol, want_certificate=False).margin
    # h is ||B||_(k)-Lipschitz, so the grid minimum sits at most half a
    # grid step of that slope above the swept minimum
    resolution = ky_fan_norm(b, 2) * np.pi / grid
    assert margin - 1e-9 <= h_min <= margin + resolution


def test_check_reads_the_field_from_the_problem(tmp_path, capsys):
    rng = np.random.default_rng(2)
    from kyfanorth.generate import make_orthogonal_pair

    a, b, _ = make_orthogonal_pair(4, 2, rng, field=REAL_FIELD)
    for field_name in ("complex", REAL_FIELD):
        path = write_pair(tmp_path, a, b, 2, name=f"{field_name}.json",
                          field_name=field_name)
        for oracle in ([], ["--oracle"]):
            code, out, _ = run(capsys, "check", path, "--json", *oracle)
            assert code in (0, 1)
            assert json.loads(out)["details"]["field"] == field_name
    assert run(capsys, "check", str(tmp_path / "real.json"))[0] == 0


def _near_tie_pair(rng):
    """A with singular values 3, 2, 2 - 1e-4, 1, 0.5 and a random B."""
    from kyfanorth.generate import random_matrix
    from kyfanorth.linalg import haar_unitary

    u, v = haar_unitary(5, rng), haar_unitary(5, rng)
    a = (u * np.array([3.0, 2.0, 2.0 - 1e-4, 1.0, 0.5])) @ v.conj().T
    return a, random_matrix(5, rng)


@pytest.mark.parametrize("case", ["near_tie", "real_pair"])
def test_check_report_verifies_against_its_own_problem(tmp_path, capsys,
                                                       case):
    # a cluster width of 1e-3 merges the near tie and decides orthogonal
    # draws with witnesses that mix it; verify reads the same width from
    # the problem, while at the default rounding level those witnesses do
    # not norm A
    from kyfanorth.generate import make_nonorthogonal_pair, make_orthogonal_pair

    rng = np.random.default_rng(0)
    if case == "near_tie":
        pairs = [_near_tie_pair(rng) for _ in range(6)]
        kwargs = {"tolerances": Tolerances(cluster=1e-3)}
    else:
        pairs = [make_orthogonal_pair(4, 2, rng, q=2, field=REAL_FIELD)[:2],
                 make_nonorthogonal_pair(4, 2, rng)[:2]]
        kwargs = {"field_name": REAL_FIELD}
    codes = []
    for i, (a, b) in enumerate(pairs):
        path = write_pair(tmp_path, a, b, 2, name=f"p{i}.json", **kwargs)
        report_path = str(tmp_path / f"r{i}.json")
        codes.append(run(capsys, "check", path, "--report", report_path)[0])
        assert codes[-1] in (0, 1)
        assert load_report(report_path).certificate is not None
        assert run(capsys, "verify", path, report_path)[0] == 0
        if case == "near_tie" and codes[-1] == 0:
            bare = write_pair(tmp_path, a, b, 2, name=f"bare{i}.json")
            code, out, _ = run(capsys, "verify", bare, report_path)
            assert code == 1
            assert "[FAIL] norming" in out
    assert sorted(set(codes)) == [0, 1]


@pytest.mark.parametrize("mode", ["parallel", "subspace"])
@pytest.mark.parametrize("oracle", [False, True])
def test_real_field_problem_outside_pair_mode_exits_2(tmp_path, capsys, mode,
                                                      oracle):
    # parallelism and subspace orthogonality are decided over complex
    # scalars only: a real-field problem is refused, never read as complex
    from kyfanorth.generate import make_parallel_pair

    a, b, _ = make_parallel_pair(4, 2, np.random.default_rng(1))
    path = str(tmp_path / "p.json")
    if mode == "subspace":
        save_problem(path, {"a": a, "w0": b}, 2, field_name=REAL_FIELD,
                     subspace=["w0"])
    else:
        save_problem(path, {"a": a, "b": b}, 2, field_name=REAL_FIELD)
    argv = ["check", path, "--mode", mode] + (["--oracle"] if oracle else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "real field" in err


def test_verify_refuses_a_real_field_problem_outside_pair_mode(tmp_path,
                                                                capsys):
    # the parallel pair reads PARALLEL at lambda = -0.884 - 0.467i, a
    # scalar the real field does not have; its report proves nothing there
    from kyfanorth.generate import make_parallel_pair

    a, b, _ = make_parallel_pair(4, 2, np.random.default_rng(1))
    path = write_pair(tmp_path, a, b, 2)
    report_path = str(tmp_path / "r.json")
    assert run(capsys, "check", path, "--mode", "parallel",
               "--report", report_path)[0] == 0
    assert run(capsys, "verify", path, report_path)[0] == 0
    real = write_pair(tmp_path, a, b, 2, name="real.json",
                      field_name=REAL_FIELD)
    code, _, err = run(capsys, "verify", real, report_path)
    assert code == 2
    assert "real field" in err


@pytest.mark.parametrize("kind", ["parallel", "nonparallel", "subspace"])
def test_gen_refuses_the_real_field_for_complex_only_kinds(tmp_path, capsys,
                                                           kind):
    out_path = tmp_path / f"{kind}.json"
    code, _, err = run(capsys, "gen", "--kind", kind, "--out", str(out_path),
                       "-n", "4", "-k", "2", "--field", "real")
    assert code == 2
    assert "--field real" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ("--kind", "orthogonal", "-n", "4", "-k", "2", "--q", "5"),
    ("--kind", "orthogonal", "-n", "4", "-k", "3", "--r", "3"),
    ("--kind", "parallel", "-n", "4", "-k", "5"),
    ("--kind", "singular", "-n", "4", "-k", "5"),
    ("--kind", "nonparallel", "-n", "1", "-k", "1"),
    ("--kind", "subspace", "-n", "4", "-k", "2", "--m", "0", "--negative"),
    ("--kind", "subspace", "-n", "4", "-k", "2", "--m", "-2"),
])
def test_gen_refuses_an_impossible_layout(tmp_path, capsys, argv):
    out_path = tmp_path / "x.json"
    code, _, err = run(capsys, "gen", *argv, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:")
    assert not out_path.exists()


def _three_kind_proves_verdict(verdict, kind, purpose, coefficient,
                               real_pair):
    """``_proves_verdict`` as it stood with three ORTHOGONAL kinds, over
    the kinds' names."""
    purpose = purpose or "orthogonal"
    if verdict is Verdict.ORTHOGONAL:
        if purpose == "real":
            return real_pair and kind in ("WITNESS_SYSTEM",
                                          "BLOCK_COEFFICIENT")
        if kind == "WITNESS_SYSTEM":
            return purpose == "orthogonal"
        return kind in ("BLOCK_COEFFICIENT", "DENSITY_SYSTEM")
    if verdict is Verdict.NOT_ORTHOGONAL:
        real = coefficient is not None and coefficient.imag == 0.0
        return kind == "VIOLATION" and (real or not real_pair)
    if verdict is Verdict.PARALLEL:
        return kind == "WITNESS_SYSTEM" and purpose == "parallel"
    return False


def test_proves_verdict_refuses_all_it_refused_with_three_kinds():
    # every (verdict, kind, purpose, field) the three-kind table refused
    # stays refused, and the two kinds left are read as before; the retired
    # kinds no longer decode at all
    from kyfanorth.cli import _proves_verdict
    from kyfanorth.model import Certificate, CertKind

    accepted = 0
    for verdict in Verdict:
        for kind in CertKind:
            for purpose in (None, "orthogonal", "real", "parallel", "other"):
                for coefficient in (None, 1.0 + 0j, 1j):
                    for real_pair in (False, True):
                        details = {} if purpose is None else {
                            "purpose": purpose}
                        cert = Certificate(kind=kind, coefficient=coefficient,
                                           details=details)
                        now = _proves_verdict(verdict, cert, real_pair)
                        assert now == _three_kind_proves_verdict(
                            verdict, kind.value, purpose, coefficient,
                            real_pair), (verdict, kind, purpose, coefficient,
                                         real_pair)
                        accepted += now
    assert accepted == 41
