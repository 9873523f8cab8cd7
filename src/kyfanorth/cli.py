"""Command line interface.

Subcommands: norm (print a Ky Fan norm and the singular values), check
(decide orthogonality or parallelism and optionally write a report), verify
(re-check a report's certificate against its problem and that it proves the
report's verdict), gen (write labeled random instances), and sweep-plot
(dump the support-function sweep as CSV).

The problem file is the whole question: check, verify and sweep-plot read
the matrices, k, the scalar field and the tolerances from it alone, so a
report that check writes is re-checked by verify against the problem it
decided. Only pair problems have a real-field criterion; check refuses a
real-field problem in subspace or parallel mode.

Exit codes for check: 0 orthogonal/parallel, 1 refuted, 3 boundary,
2 parse or usage error, 4 rank-degenerate input for a criterion that needs
s_k > 0. verify: 0 PASS, 1 FAIL, 2 parse or usage. Everything else:
0 success, 2 parse/usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .decide import _pair_setup, check_pair, check_parallel, check_subspace
from .errors import DegenerateRank, KyFanError, ParseError
from .generate import (
    make_nonorthogonal_pair,
    make_nonparallel_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_singular_pair,
    make_subspace_instance,
)
from .io import _save_json, encode_report, load_problem, load_report, save_problem
from .linalg import singular_values
from .model import COMPLEX_FIELD, REAL_FIELD, CertKind, Tolerances, Verdict
from .norms import ky_fan_norm, require_k
from .oracle import (
    oracle_check_pair,
    oracle_check_parallel,
    oracle_check_subspace,
    sample_range_points,
)
from .verify import verify_certificate

__all__ = ["main", "entry", "build_parser"]

_PASS_VERDICTS = (Verdict.ORTHOGONAL, Verdict.PARALLEL, Verdict.NO_COUNTEREXAMPLE)
_FAIL_VERDICTS = (Verdict.NOT_ORTHOGONAL, Verdict.NOT_PARALLEL)
# pair orthogonality is the one question check decides over the reals
_REAL_KINDS = ("orthogonal", "nonorthogonal", "singular")
_PAIR_MAKERS = {"nonorthogonal": make_nonorthogonal_pair,
                "parallel": make_parallel_pair,
                "nonparallel": make_nonparallel_pair,
                "singular": make_singular_pair}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kyfanorth",
        description="Birkhoff-James orthogonality of complex matrices "
                    "in Ky Fan k-norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="print a Ky Fan norm")
    p_norm.add_argument("problem", help="problem JSON file")
    p_norm.add_argument("--name", default="a", help="matrix name (default a)")
    p_norm.add_argument("--k", type=int, default=None,
                        help="override the problem's k")
    p_norm.set_defaults(func=cmd_norm)

    p_check = sub.add_parser("check", help="decide orthogonality/parallelism")
    p_check.add_argument("problem", help="problem JSON file")
    p_check.add_argument("--mode", default=None,
                         choices=["pair", "subspace", "parallel"],
                         help="criterion (default: subspace if the problem "
                              "lists one, else pair)")
    p_check.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    p_check.add_argument("--report", default=None, metavar="PATH",
                         help="write the report JSON to PATH")
    p_check.add_argument("--no-cert", action="store_true",
                         help="skip certificate construction")
    p_check.add_argument("--oracle", action="store_true",
                         help="use the norm-evaluation referee instead of "
                              "the frame engine")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="re-check a report certificate")
    p_verify.add_argument("problem", help="problem JSON file")
    p_verify.add_argument("report", help="report JSON file")
    p_verify.add_argument("--json", action="store_true",
                          help="print the clause table as JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a labeled random instance")
    p_gen.add_argument("--kind", required=True,
                       choices=["orthogonal", "nonorthogonal", "parallel",
                                "nonparallel", "subspace", "singular"])
    p_gen.add_argument("--out", required=True, help="output problem path")
    p_gen.add_argument("-n", type=int, default=5, help="matrix size")
    p_gen.add_argument("-k", type=int, default=2, help="norm index")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--q", type=int, default=1,
                       help="boundary cluster members at or before k")
    p_gen.add_argument("--r", type=int, default=0,
                       help="boundary cluster members after k")
    p_gen.add_argument("--m", type=int, default=2,
                       help="basis size for subspace instances")
    p_gen.add_argument("--degenerate", action="store_true",
                       help="put the boundary cluster at zero")
    p_gen.add_argument("--negative", action="store_true",
                       help="generate the refuted variant of subspace kind")
    p_gen.add_argument("--field", default=COMPLEX_FIELD,
                       choices=[COMPLEX_FIELD, REAL_FIELD])
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep-plot",
                             help="dump the support-function sweep as CSV")
    p_sweep.add_argument("problem", help="problem JSON file (pair)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--grid", type=int, default=720,
                         help="number of sweep angles")
    p_sweep.add_argument("--points", type=int, default=0,
                         help="also sample this many attainable pairing "
                              "points into OUT.points.csv")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep_plot)
    return parser


def _tolerances(problem) -> Tolerances:
    """The problem's own tolerances, or the defaults when it sets none."""
    return problem.tolerances or Tolerances()


def _require_field(problem, mode: str) -> None:
    """Refuse a real-field problem in a mode or command that reads complex
    scalars only: every one but the pair mode."""
    if mode != "pair" and problem.field == REAL_FIELD:
        raise ParseError(f"{mode} works over complex scalars only; "
                         "the problem is stored in the real field")


def cmd_norm(args) -> int:
    problem = load_problem(args.problem)
    k = args.k if args.k is not None else problem.k
    m = problem.matrix(args.name)
    value = ky_fan_norm(m, k)
    s = singular_values(m)
    print(f"ky_fan_norm(k={k}) = {value:.12g}")
    print("singular_values = " + " ".join(f"{x:.12g}" for x in s))
    return 0


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    tol = _tolerances(problem)
    mode = args.mode
    if mode is None:
        mode = "subspace" if problem.subspace is not None else "pair"
    if mode == "subspace" and problem.subspace is None:
        raise ParseError("subspace mode needs a subspace list in the problem")
    _require_field(problem, mode)
    t0 = time.perf_counter()
    if mode == "subspace":
        a = problem.matrix("a")
        basis = problem.basis()
        if args.oracle:
            decision = oracle_check_subspace(a, basis, problem.k, tol=tol)
        else:
            decision = check_subspace(a, basis, problem.k, tol=tol,
                                      want_certificate=not args.no_cert)
    else:
        a, b = problem.pair()
        if mode == "parallel":
            if args.oracle:
                decision = oracle_check_parallel(a, b, problem.k, tol=tol)
            else:
                decision = check_parallel(a, b, problem.k, tol=tol,
                                          want_certificate=not args.no_cert)
        elif args.oracle:
            decision = oracle_check_pair(a, b, problem.k, field=problem.field,
                                         tol=tol)
        else:
            decision = check_pair(a, b, problem.k, field=problem.field,
                                  tol=tol, want_certificate=not args.no_cert)
    timings = {"total_s": time.perf_counter() - t0}
    if args.json or args.report:
        report = encode_report(decision, timings=timings)
    if args.report:
        _save_json(args.report, report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(decision.summary())
        if problem.label.get("expected"):
            print(f"label_expected={problem.label['expected']}")
    if decision.verdict in _PASS_VERDICTS:
        return 0
    if decision.verdict in _FAIL_VERDICTS:
        return 1
    return 3


def cmd_verify(args) -> int:
    problem = load_problem(args.problem)
    report = load_report(args.report)
    a = problem.matrix("a")
    if problem.subspace is not None:
        mode, second = "subspace", problem.basis()
    else:
        parallel = report.verdict in (Verdict.PARALLEL, Verdict.NOT_PARALLEL)
        mode, second = "parallel" if parallel else "pair", problem.matrix("b")
    _require_field(problem, mode)
    if report.certificate is None:
        print("FAIL certificate=absent")
        return 1
    # never the report's tolerances: a report must not set its own bounds
    outcome = verify_certificate(report.certificate, a, second, problem.k,
                                 tol=_tolerances(problem))
    proves = _proves_verdict(report.verdict, report.certificate,
                             problem.field == REAL_FIELD)
    outcome["checks"].append({"name": "proves_verdict",
                              "value": 0.0 if proves else 1.0, "bound": 0.5,
                              "pass": proves})
    outcome["ok"] = outcome["ok"] and proves
    if args.json:
        print(json.dumps(outcome, indent=2))
    else:
        word = "PASS" if outcome["ok"] else "FAIL"
        print(f"{word} kind={outcome['kind']} clauses={len(outcome['checks'])}")
        for check in outcome["checks"]:
            status = "ok" if check["pass"] else "FAIL"
            print(f"  [{status}] {check['name']}: value={check['value']:.3e} "
                  f"bound={check['bound']:.3e}")
        if outcome["statement"] is not None:
            print(f"  statement: {outcome['statement']['bound']}")
    return 0 if outcome["ok"] else 1


def _proves_verdict(verdict: Verdict, cert, real_pair: bool) -> bool:
    """Whether a certificate of this kind and purpose, once it verifies,
    proves ``verdict``; ``real_pair`` marks a pair problem over the reals,
    the one real-field problem verify reads."""
    purpose = cert.details.get("purpose", "orthogonal")
    if verdict is Verdict.ORTHOGONAL:
        if cert.kind is not CertKind.WITNESS_SYSTEM:
            return False
        return real_pair if purpose == "real" else purpose == "orthogonal"
    if verdict is Verdict.NOT_ORTHOGONAL:
        real = cert.coefficient is not None and cert.coefficient.imag == 0.0
        return cert.kind is CertKind.VIOLATION and (real or not real_pair)
    if verdict is Verdict.PARALLEL:
        return cert.kind is CertKind.WITNESS_SYSTEM and purpose == "parallel"
    return False


def cmd_gen(args) -> int:
    if args.field == REAL_FIELD and args.kind not in _REAL_KINDS:
        raise ParseError(f"--kind {args.kind} builds complex instances only; "
                         f"--field real takes --kind {', '.join(_REAL_KINDS)}")
    n, k = args.n, args.k
    require_k(k, n)
    try:
        matrices, subspace, label = _generate(args, n, k)
    except ValueError as exc:  # a layout the spectrum cannot hold, or m < 1
        raise ParseError(str(exc)) from exc
    label["seed"] = args.seed
    save_problem(args.out, matrices, k, field_name=args.field,
                 subspace=subspace, label=label)
    print(f"wrote {args.out} kind={label['kind']} "
          f"expected={label.get('expected', 'n/a')}")
    return 0


def _generate(args, n: int, k: int) -> tuple:
    """The matrices, subspace names and label of the instance ``gen``
    asks for."""
    rng = np.random.default_rng(args.seed)
    if args.kind == "subspace":
        a, basis, label = make_subspace_instance(
            n, k, args.m, rng, orthogonal=not args.negative,
            q=args.q, r=args.r)
        names = [f"w{i}" for i in range(len(basis))]
        return {"a": a, **dict(zip(names, basis))}, names, label
    if args.kind == "orthogonal":
        a, b, label = make_orthogonal_pair(n, k, rng, q=args.q, r=args.r,
                                           degenerate=args.degenerate,
                                           field=args.field)
    else:
        a, b, label = _PAIR_MAKERS[args.kind](n, k, rng)
    return {"a": a, "b": b}, None, label


def cmd_sweep_plot(args) -> int:
    problem = load_problem(args.problem)
    # the sweep runs over every phase: its minimum is the complex margin
    _require_field(problem, "sweep-plot")
    a, b = problem.pair()
    if args.grid < 8:
        raise ParseError("--grid must be at least 8")
    if args.points < 0:
        raise ParseError("--points must be at least 0")
    model = _pair_setup(a, b, problem.k, _tolerances(problem)).model
    thetas = np.linspace(0.0, 2.0 * np.pi, args.grid, endpoint=False)
    h = model.support(thetas)
    fixed = complex(model.fixed[0])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("theta,h,fixed_re,fixed_im\n")
        for th, hv in zip(thetas, h):
            fh.write(f"{th:.17g},{hv:.17g},{fixed.real:.17g},{fixed.imag:.17g}\n")
    written = [args.out]
    if args.points > 0:
        pts = sample_range_points(a, b, problem.k, count=args.points,
                                  rng=np.random.default_rng(args.seed))
        companion = args.out + ".points.csv"
        with open(companion, "w", encoding="utf-8") as fh:
            fh.write("re,im\n")
            for z in pts:
                fh.write(f"{z.real:.17g},{z.imag:.17g}\n")
        written.append(companion)
    print("wrote " + " ".join(written))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except DegenerateRank as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KyFanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
