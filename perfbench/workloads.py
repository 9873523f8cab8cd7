"""Seeded corpora, the op each workload times, and the correctness gate.

Every input comes from the public generators of ``kyfanorth`` driven by a
``numpy`` generator seeded from ``--seed``, so one seed always gives the same
corpus; ``fingerprint`` hashes it so two commits can be shown to have run
identical inputs. Import this module only after the BLAS thread variables
are pinned: it imports numpy.

A timed corpus holds only inputs on which the engine is expected to get
every op right. Inputs that run into an already-diagnosed defect go into a
workload's probe instead (``build_probe``): the traced run decides them
with the same op and gate and reports how many hit the defect.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from kyfanorth import (
    check_pair,
    check_parallel,
    check_subspace,
    make_nonorthogonal_pair,
    make_orthogonal_pair,
    make_parallel_pair,
    make_subspace_instance,
    ky_fan_norm,
    oracle_check_pair,
    random_matrix,
    save_problem,
    swept_minimum,
    verify_certificate,
)
from kyfanorth.model import Verdict

# a sweep that reaches the engine's own default cap stopped before its
# tolerance; reading the default keeps the count honest if the cap changes
SWEEP_CAP = inspect.signature(swept_minimum).parameters["max_evals"].default

# the ways the small-scale cluster collapse shows; any other failure on a
# scaled-down instance is not explained by it
SCALE_DEFECT_REASONS = frozenset(
    {"wrong_verdict", "referee_disagree", "verify_failed"})

DECISIVE = (Verdict.ORTHOGONAL, Verdict.NOT_ORTHOGONAL, Verdict.PARALLEL,
            Verdict.NOT_PARALLEL)

CHECKS = {"pair": check_pair, "subspace": check_subspace,
          "parallel": check_parallel}

# (n, instances); n=16 and n=24 cost 30-40 s per decision today
TIED_SIZES = {"full": ((6, 1), (8, 5)), "smoke": ((5, 1),)}
# (n, copies of each of the four instance kinds). A corpus sorts into
# bands: the 24 n=64 ops (under 60 ms), the 8 n=200 parallel ones (~0.12 s),
# the 8 n=200 orthogonal subspace ones (~0.35 s), the 16 n=200 refutations
# (~0.4-0.5 s). So the median op is the middle of the n=200 parallel band
# and the p90 tail lies inside the refutation band
GINIBRE_SIZES = {"full": ((64, 6), (200, 8)), "smoke": ((8, 1), (20, 1))}
# weight of the random part of a refutation pair B = w G + A/||A||_(k), as in
# the generator's negative subspace instance: the pairing set sits near 1,
# far below the band, so the violation search always finds a deep dip
GINIBRE_REFUTATION_NOISE = 0.05
# (n, count) of the unlabelled Ginibre pairs in the ginibre probe
GINIBRE_PROBE_SIZES = {"full": ((64, 12), (200, 24)), "smoke": ((20, 2),)}
# 640 instances, more than the ~450 ops a 45-s run makes, so a run sees
# every op's input once and as many distinct sweeps as it can
MIXED4_PER_K = {"full": 160, "smoke": 10}
# share of mixed4 instances multiplied by 10^e, e in 1..12; verdicts are
# invariant under that scaling. The probe runs the same instances at 10^-e
MIXED4_SCALED_SHARE = 0.1
MIXED4_MAX_EXPONENT = 12
COLD_CLI_N, COLD_CLI_K = 5, 2

WORKLOAD_IDS = {"tied": 1, "ginibre": 2, "mixed4": 3, "cold_cli": 4}


@dataclass
class Instance:
    """One labelled input. ``second`` is B, or the basis list for subspace."""

    tag: str
    check: str
    a: np.ndarray
    second: object
    k: int
    expected: str | None
    referee: bool = False
    scale_exp: int = 0

    def matrices(self) -> list:
        rest = self.second if isinstance(self.second, list) else [self.second]
        return [self.a, *rest]


@dataclass
class Outcome:
    decision: object = None
    report: dict | None = None
    referee: object = None
    error: str | None = None

    def verdict(self) -> str:
        return "raised" if self.error is not None else self.decision.verdict.value


# ---------------------------------------------------------------------------
# corpora


def build(workload: str, seed: int, size: str = "full") -> list:
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    return _CORPORA[workload](rng, size)


def build_probe(workload: str, seed: int, traced: list,
                size: str = "full") -> list:
    """The seeded inputs that run into a diagnosed defect of the engine
    (see ``known_defect``); empty for a workload without one. They are
    never timed and never counted as ops. ``traced`` is the part of the
    corpus a traced run decides."""
    if workload == "ginibre":
        rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], 1])
        return _ginibre_random_pairs(rng, size)
    if workload == "mixed4":
        # each traced scaled instance again, at 10^-e instead of 10^e
        return [_scaled(inst, -2 * inst.scale_exp)
                for inst in traced if inst.scale_exp]
    return []


def visiting_order(corpus: list, seed: int) -> list:
    """A seeded order of the corpus indices in which every prefix holds
    each tag in proportion, give or take one instance.

    The timed loop cycles through it and may stop inside a cycle, so a
    prefix has to be a fair sample of the corpus. Member j of a tag with
    m members, in a seeded shuffle, gets the key (j + u) / m with u seeded
    per tag, and the order sorts by key: tags whose ops cost alike (the
    long sweeps sit in the ``orthogonal-r1`` tags) then come at an even
    rate in every run, whatever its length.
    """
    rng = np.random.default_rng([seed, len(corpus), 2])
    members = {}
    for i in rng.permutation(len(corpus)):
        members.setdefault(corpus[i].tag, []).append(int(i))
    keyed = []
    for tag in sorted(members):
        m, u = len(members[tag]), rng.random()
        keyed += [((j + u) / m, i) for j, i in enumerate(members[tag])]
    return [i for _, i in sorted(keyed)]


def _tied(rng, size):
    out = []
    for n, count in TIED_SIZES[size]:
        for _ in range(count):
            a, b, label = make_orthogonal_pair(n, 4, rng, q=4, r=n - 4)
            out.append(Instance(f"tied-n{n}", "pair", a, b, 4,
                                label["expected"]))
    return out


def _ginibre(rng, size):
    out = []
    for n, copies in GINIBRE_SIZES[size]:
        k = max(1, n // 10)
        for _ in range(copies):
            a = random_matrix(n, rng)
            b = (GINIBRE_REFUTATION_NOISE * random_matrix(n, rng)
                 + a / ky_fan_norm(a, k))
            out.append(Instance(f"ginibre-n{n}-refutation", "pair", a, b, k,
                                Verdict.NOT_ORTHOGONAL.value))
            for orthogonal in (True, False):
                a, basis, label = make_subspace_instance(
                    n, k, 2, rng, orthogonal=orthogonal)
                sign = "orthogonal" if orthogonal else "negative"
                out.append(Instance(f"ginibre-n{n}-subspace-{sign}",
                                    "subspace", a, basis, k,
                                    label["expected"]))
            a, b, label = make_parallel_pair(n, k, rng)
            out.append(Instance(f"ginibre-n{n}-parallel", "parallel", a, b,
                                k, label["expected"]))
    return out


def _ginibre_random_pairs(rng, size):
    """Unlabelled Ginibre pairs, k = n/10. About 1 in 80 at n=64 and 1 in 15
    at n=200 sits close enough to the band that the violation search finds
    no dip deep enough ("shallow_violation")."""
    out = []
    for n, count in GINIBRE_PROBE_SIZES[size]:
        k = max(1, n // 10)
        for _ in range(count):
            out.append(Instance(f"ginibre-n{n}-random", "pair",
                                random_matrix(n, rng), random_matrix(n, rng),
                                k, None))
    return out


def _complex_gauss(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _mixed4(rng, size):
    """The bucket mix of the c01 acceptance corpus at 4x4, k = 1..4."""
    n = 4
    out = []
    for k in (1, 2, 3, 4):
        for i in range(MIXED4_PER_K[size]):
            bucket = i % 10
            if bucket < 4:
                a, b = _complex_gauss(rng, n), _complex_gauss(rng, n)
                tag, expected = "random", None
            elif bucket < 7:
                q = 1 + (i // 10) % k
                r = 1 if (i % 20 < 10 and k + 1 <= n) else 0
                a, b, label = make_orthogonal_pair(n, k, rng, q=q, r=r)
                tag, expected = f"orthogonal-r{r}", label["expected"]
            elif bucket < 8 and k >= 2:
                q = 1 + (i // 10) % (k - 1)
                a, b, label = make_orthogonal_pair(n, k, rng, q=q,
                                                   degenerate=True)
                tag, expected = "degenerate", label["expected"]
            else:
                a, b, label = make_nonorthogonal_pair(n, k, rng)
                tag, expected = "nonorthogonal", label["expected"]
            out.append(Instance(f"mixed4-k{k}-{tag}", "pair", a, b, k,
                                expected, referee=True))
    count = round(MIXED4_SCALED_SHARE * len(out))
    scaled = rng.choice(len(out), size=count, replace=False)
    # one exponent from each of `count` equal strata of [1, hi + 1), so
    # every seed spreads its scales evenly over the range
    hi = MIXED4_MAX_EXPONENT
    strata = 1 + (np.arange(count) + rng.random(count)) * hi / count
    exponents = rng.permutation(np.floor(strata).astype(int))
    for j, e in zip(sorted(scaled), exponents):
        out[j] = _scaled(out[j], int(e))
    return out


def _scaled(inst: Instance, e: int) -> Instance:
    """The instance with A and B multiplied by 10^e, tagged with e."""
    return Instance(inst.tag, inst.check, 10.0 ** e * inst.a,
                    10.0 ** e * inst.second, inst.k, inst.expected,
                    referee=inst.referee, scale_exp=inst.scale_exp + e)


def _cold_cli(rng, size):
    n, k = COLD_CLI_N, COLD_CLI_K
    a, b, lab = make_orthogonal_pair(n, k, rng, q=1, r=0)
    out = [Instance("cli-orthogonal", "pair", a, b, k, lab["expected"])]
    a, b, lab = make_nonorthogonal_pair(n, k, rng)
    out.append(Instance("cli-nonorthogonal", "pair", a, b, k, lab["expected"]))
    a, basis, lab = make_subspace_instance(n, k, 2, rng)
    out.append(Instance("cli-subspace", "subspace", a, basis, k,
                        lab["expected"]))
    a, b, lab = make_parallel_pair(n, k, rng)
    out.append(Instance("cli-parallel", "parallel", a, b, k, lab["expected"]))
    return out


_CORPORA = {"tied": _tied, "ginibre": _ginibre, "mixed4": _mixed4,
             "cold_cli": _cold_cli}


def fingerprint(corpus: list) -> str:
    """sha256 over every instance's tag, k, label, scale and matrix bytes."""
    h = hashlib.sha256()
    for inst in corpus:
        h.update(json.dumps([inst.tag, inst.check, inst.k, inst.expected,
                             inst.referee, inst.scale_exp]).encode())
        for m in inst.matrices():
            h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def warm_up(corpus: list) -> None:
    """Run one tiny op per check kind the corpus uses, so lazy imports and
    first-call costs land in set-up rather than in the first timed op."""
    rng = np.random.default_rng(0)
    a, b, _ = make_orthogonal_pair(4, 2, rng)
    tiny = {"pair": (a, b),
            "subspace": make_subspace_instance(4, 2, 2, rng)[:2],
            "parallel": make_parallel_pair(4, 2, rng)[:2]}
    referee = any(inst.referee for inst in corpus)
    for check in sorted({inst.check for inst in corpus}):
        x, y = tiny[check]
        run_op(Instance("warm-up", check, x, y, 2, None,
                        referee=referee and check == "pair"))


# ---------------------------------------------------------------------------
# the op and its correctness gate


def decide(inst: Instance, want_certificate: bool = True):
    return CHECKS[inst.check](inst.a, inst.second, inst.k,
                              want_certificate=want_certificate)


def verify(inst: Instance, decision) -> dict:
    return verify_certificate(decision.certificate, inst.a, inst.second,
                              inst.k)


def referee(inst: Instance):
    return oracle_check_pair(inst.a, inst.second, inst.k)


def run_op(inst: Instance,
           span=lambda name: contextlib.nullcontext()) -> Outcome:
    """One decision with its certificate, the certificate's verification
    and, where the workload asks for it, the referee's verdict, each inside
    ``span("decide.full")``, ``span("decide.verify")`` and
    ``span("oracle.check")``."""
    report = ref = None
    try:
        with span("decide.full"):
            d = decide(inst)
        if d.certificate is not None:
            with span("decide.verify"):
                report = verify(inst, d)
        if inst.referee:
            with span("oracle.check"):
                ref = referee(inst)
    except Exception as exc:  # a raising op is a counted failure, not a stop
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(decision=d, report=report, referee=ref)


def failure_reasons(inst: Instance, out: Outcome) -> list:
    """Why an op failed; an empty list means its output checked out."""
    if out.error is not None:
        return ["raised"]
    d = out.decision
    reasons = []
    if inst.expected is not None and d.verdict.value != inst.expected:
        reasons.append("wrong_verdict")
    if d.verdict in DECISIVE and d.certificate is None:
        reasons.append("missing_certificate")
    if out.report is not None and not out.report["ok"]:
        reasons.append("verify_failed")
    if (out.referee is not None
            and Verdict.BOUNDARY not in (d.verdict, out.referee.verdict)
            and d.verdict is not out.referee.verdict):
        reasons.append("referee_disagree")
    return reasons


def judge(inst: Instance, out) -> list:
    """An op's failure reasons; an empty list means it checked out."""
    if isinstance(out, CliOutcome):
        return cli_failure_reasons(inst, out)
    return failure_reasons(inst, out)


def known_defect(inst: Instance, out, reasons: list) -> str | None:
    """The already-diagnosed defect a failed probe op comes from, or None.

    "scale": an instance shrunk by a power of ten gets a flipped verdict, a
    referee disagreement or a certificate that fails verification, because
    the clustering and certificate tolerances carry absolute floors of order
    1 (ROADMAP item 4); a raise or a missing certificate is not that defect.
    "shallow_violation": a refutation whose violation search found no dip as
    deep as the band needs (``violation_too_shallow``), so the decisive
    verdict carries no certificate (ROADMAP item 5).
    """
    if not reasons:
        return None
    if inst.scale_exp < 0 and set(reasons) <= SCALE_DEFECT_REASONS:
        return "scale"
    d = getattr(out, "decision", None)
    if (reasons == ["missing_certificate"] and d is not None
            and d.details.get("violation_too_shallow")):
        return "shallow_violation"
    return None


# ---------------------------------------------------------------------------
# the CLI as a subprocess


@dataclass
class CliOutcome:
    check_code: int
    verify_code: int
    verify_pass: bool

    def verdict(self) -> str:
        return f"exit {self.check_code}, verify {self.verify_code}"


def write_problem(inst: Instance, path) -> None:
    if inst.check == "subspace":
        names = [f"w{i}" for i in range(len(inst.second))]
        matrices = {"a": inst.a, **dict(zip(names, inst.second))}
        save_problem(path, matrices, inst.k, subspace=names,
                     label={"expected": inst.expected})
    else:
        save_problem(path, {"a": inst.a, "b": inst.second}, inst.k,
                     label={"expected": inst.expected})


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "kyfanorth.cli", *map(str, args)]


def check_argv(inst: Instance, problem, report) -> list:
    mode = ["--mode", "parallel"] if inst.check == "parallel" else []
    return cli_argv("check", problem, "--report", report, *mode)


def run_cli(inst: Instance, problem, report,
            span=lambda name: contextlib.nullcontext()) -> CliOutcome:
    """`check --report` then `verify` on one problem file, each child inside
    ``span("cli.check")`` and ``span("cli.verify")``."""
    with span("cli.check"):
        c = run_child(check_argv(inst, problem, report))
    with span("cli.verify"):
        v = run_child(cli_argv("verify", problem, report))
    return CliOutcome(c.returncode, v.returncode,
                      v.returncode == 0 and v.stdout.startswith("PASS"))


def run_child(argv, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run one child to completion, in this process's environment. A child
    past the timeout is killed and reads as exit code -1, which fails the op
    rather than the run."""
    try:
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(argv, -1, "", "timed out")


def cli_failure_reasons(inst: Instance, out: CliOutcome) -> list:
    want = 0 if inst.expected in (Verdict.ORTHOGONAL.value,
                                  Verdict.PARALLEL.value) else 1
    reasons = []
    if out.check_code != want:
        reasons.append("wrong_exit_code")
    if not out.verify_pass:
        reasons.append("verify_failed")
    return reasons
