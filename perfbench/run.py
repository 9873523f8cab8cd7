#!/usr/bin/env python3
"""Benchmark of certified decisions, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {tied,ginibre,mixed4,cold_cli} \
        --seed N --seconds S --trace {0,1}

One op is a decision with its certificate and ``verify_certificate`` on that
certificate (plus the referee's verdict in ``mixed4``); in ``cold_cli`` it is
one ``check --report`` subprocess followed by one ``verify`` subprocess. Ops
run in a closed loop from one process, one at a time, cycling through a
seeded order of a seeded corpus until ``--seconds`` have passed. Every op's
output is checked.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` one traced pass over the corpus runs
instead, then the workload's defect probe, and the object carries the
per-layer metrics; the spans are written to ``perfbench/out/``. The lines
before it give the environment, the corpus fingerprint, failures by reason
and the verdict histogram. See ``perfbench/README.md`` for the metric
definitions and predictions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("tied", "ginibre", "mixed4", "cold_cli")
SETUP_REPEATS = 3
PROBE_REPEATS = 3
# the tail percentile of each workload, fixed so that it does not move when
# a faster commit fits more ops into a run. In a 45-s run it leaves about
# 12 (mixed4) and 20 (ginibre) samples beyond it, inside the slowest band;
# cold_cli and tied hold too few ops per run for 10 beyond
TAIL_PERCENTILE = {"tied": 90, "ginibre": 90, "mixed4": 97, "cold_cli": 90}
# a traced run decides the first TRACE_OPS instances of the visiting order
# (all of them in every corpus but mixed4's), in corpus order
TRACE_OPS = 320

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

CERT_KINDS = ("WITNESS_SYSTEM", "BLOCK_COEFFICIENT", "DENSITY_SYSTEM",
              "VIOLATION")
PER_LAYER = {
    "subdiff.build_frame.calls": "count",
    "subdiff.build_frame.busy_s": "s",
    "decide.decide.busy_s": "s",
    "decide.decisions": "count",
    "decide.sweep.busy_s": "s",
    "decide.sweep.evals": "count",
    "decide.sweep.evals_max": "count",
    "decide.sweep.swept": "count",
    "decide.sweep.capped": "count",
    "decide.certificate.busy_s": "s",
    **{f"decide.certificate.{kind}.busy_s": "s" for kind in CERT_KINDS},
    "decide.certificate.decisive": "count",
    "decide.certificate.missing": "count",
    "decide.certificate.fallback": "count",
    "decide.subspace.fw_iters": "count",
    "decide.verify.busy_s": "s",
    "decide.verify.checked": "count",
    "decide.verify.failed": "count",
    "oracle.check.busy_s": "s",
    "oracle.checked": "count",
    "oracle.disagree": "count",
    "oracle.boundary": "count",
    "io.load_problem.busy_s": "s",
    "io.save_report.busy_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.check_ms": "ms",
    "cli.verify_ms": "ms",
    "generate.corpus.busy_s": "s",
    "failed_fraction": "ratio",
    "defect.scale.hits": "count",
    "defect.shallow_violation.hits": "count",
    "trace.pass_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny corpora, for checking the benchmark itself")
    return p.parse_args(argv)


def pin_environment() -> None:
    """Single-threaded BLAS for this process and its children, and the
    checkout's sources first on the import path. Must run before numpy is
    imported; children inherit the environment."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def environment_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_probe_ms() -> float:
    """Median time, in ms, of a fixed numpy loop that does not touch
    kyfanorth: small symmetric eigenproblems and mid-size SVDs, as the
    engine does. Taken before and after the timed loop, it shows how fast
    the host ran, so host drift can be told apart from a change in the
    code. It is recorded beside the metrics, never folded into them."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.normal(size=(4, 4))
    small = small + small.T
    mid = rng.normal(size=(64, 64))

    def once():
        t0 = time.perf_counter()
        for _ in range(2000):
            np.linalg.eigvalsh(small)
        for _ in range(40):
            np.linalg.svd(mid)
        return 1e3 * (time.perf_counter() - t0)
    return statistics.median(once() for _ in range(PROBE_REPEATS))


# ---------------------------------------------------------------------------
# statistics


def percentile(samples: list, pct: int) -> tuple:
    """The pct-th percentile (linear interpolation) and how many samples lie
    above it."""
    if len(samples) == 1:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return value, sum(x > value for x in samples)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# set-up


def set_up(wl, args, workdir):
    """Build the corpus SETUP_REPEATS times (checking each build hashes the
    same), write the CLI problem files, and warm up. Returns the corpus,
    its fingerprint, the median set-up time and the median generation
    time."""
    size = "smoke" if args.smoke else "full"
    total, gen, fp = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = wl.build(args.workload, args.seed, size)
        t1 = time.perf_counter()
        if args.workload == "cold_cli":
            for i, inst in enumerate(corpus):
                wl.write_problem(inst, workdir / f"p{i}.json")
        wl.warm_up(corpus)
        t2 = time.perf_counter()
        gen.append(t1 - t0)
        total.append(t2 - t0)
        this = wl.fingerprint(corpus)
        if fp is not None and this != fp:
            raise RuntimeError("the same seed built two different corpora")
        fp = this
    return corpus, fp, statistics.median(total), statistics.median(gen)


# ---------------------------------------------------------------------------
# timed (untraced) loop


def timed_loop(wl, corpus, order, op, seconds):
    """Ops in the seeded order, cycling, until `seconds` have passed; the
    loop stops at the first op to end past that. Returns the op latencies,
    the ops' (corpus index, failure reasons, verdict) and the wall time."""
    lat, done = [], []
    start = time.perf_counter()
    for i in itertools.cycle(order):
        t0 = time.perf_counter()
        out = op(i, corpus[i])
        now = time.perf_counter()
        lat.append(now - t0)
        done.append((i, wl.judge(corpus[i], out), out.verdict()))
        if now - start >= seconds:
            return lat, done, now - start


# ---------------------------------------------------------------------------
# traced pass


def traced_pass(wl, corpus, tracer, workdir, cli):
    """One pass with a span around each call into a layer. Returns the
    per-layer counts, the sweep and per-kind certificate time, and the ops'
    (corpus index, failure reasons, verdict)."""
    from kyfanorth import build_frame, load_problem, save_report

    outcomes, done = [], []
    for i, inst in enumerate(corpus):
        def span(name, i=i):
            return tracer.span(name, i)
        with span("op"):
            if cli:
                problem = workdir / f"p{i}.json"
                cli_out = wl.run_cli(inst, problem, workdir / f"r{i}.json",
                                     span)
                with span("io.load_problem"):
                    load_problem(problem)
            # the two calls an untraced op does not make, so the layers
            # below the full decision can be told apart
            try:
                with span("subdiff.build_frame"):
                    build_frame(inst.a, inst.k)
                with span("decide.decide"):
                    wl.decide(inst, want_certificate=False)
            except Exception as exc:  # the full call would raise too
                out = wl.Outcome(error=f"{type(exc).__name__}: {exc}")
            else:
                out = wl.run_op(inst, span)
            if cli and out.error is None:
                with span("io.save_report"):
                    save_report(workdir / f"s{i}.json", out.decision)
        outcomes.append(out)
        # judged as the untraced op is: in cold_cli by the two children
        done.append((i, wl.judge(inst, cli_out if cli else out),
                     out.verdict()
                     + (f" ({cli_out.verdict()})" if cli else "")))

    c = Counter()
    busy = Counter()
    per_op = tracer.per_op()
    for i, out in enumerate(outcomes):
        if out.error is not None:
            continue
        d, dur = out.decision, per_op[i]
        c["decisions"] += 1
        evals = d.details.get("sweep_evals")
        if evals is not None:
            c["sweep.evals"] += evals
            c["sweep.evals_max"] = max(c["sweep.evals_max"], evals)
            c["sweep.swept"] += evals > 0
            c["sweep.capped"] += evals >= wl.SWEEP_CAP
        if evals:
            busy["sweep"] += dur["decide.decide"] - dur["subdiff.build_frame"]
        if d.verdict in wl.DECISIVE:
            c["decisive"] += 1
            c["missing"] += d.certificate is None
        c["fallback"] += "witness_error" in d.details
        c["fw_iters"] += d.details.get("iterations", 0)
        if d.certificate is not None:
            busy[d.certificate.kind.value] += (dur["decide.full"]
                                               - dur["decide.decide"])
        if out.report is not None:
            c["verify.checked"] += 1
            c["verify.failed"] += not out.report["ok"]
        if out.referee is not None:
            c["oracle.checked"] += 1
            c["oracle.boundary"] += wl.Verdict.BOUNDARY in (
                d.verdict, out.referee.verdict)
            c["oracle.disagree"] += "referee_disagree" in done[i][1]
    return c, busy, done


def defect_probe(wl, probe) -> tuple:
    """Each probe input through the untimed op and the gate. Returns the
    hits per known defect and the failures no known defect explains."""
    hits, unexplained = Counter(), Counter()
    for inst in probe:
        out = wl.run_op(inst)
        reasons = wl.judge(inst, out)
        known = wl.known_defect(inst, out, reasons)
        if known is not None:
            hits[known] += 1
        elif reasons:
            unexplained.update(f"{inst.tag}: {r}" for r in reasons)
    return hits, unexplained


def startup_pass(wl, args, workdir, tracer) -> int:
    """The cold_cli problem files of this seed through the two CLI children,
    ``load_problem`` and ``save_report``, traced as a cold_cli pass is, so
    that every traced run measures the start-up and I/O layers. Returns how
    many of these ops failed."""
    files = wl.build("cold_cli", args.seed, "smoke" if args.smoke else "full")
    for i, inst in enumerate(files):
        wl.write_problem(inst, workdir / f"p{i}.json")
    _, _, done = traced_pass(wl, files, tracer, workdir, True)
    return sum(bool(reasons) for _, reasons, _ in done)


def child_ms(wl, code: str) -> float:
    """Median wall time, in ms, of PROBE_REPEATS fresh interpreters each
    running `code`."""
    def wall():
        t0 = time.perf_counter()
        wl.run_child([sys.executable, "-c", code])
        return 1e3 * (time.perf_counter() - t0)
    return statistics.median(wall() for _ in range(PROBE_REPEATS))


def startup_probes(wl) -> tuple:
    """Median wall time of a bare interpreter and of one importing the CLI
    module, in ms; the second is reported net of the first."""
    bare = child_ms(wl, "pass")
    return bare, child_ms(wl, "import kyfanorth.cli") - bare


def layer_values(wl, args, workdir, corpus, gen_s, record):
    from spans import Tracer

    cli = args.workload == "cold_cli"
    tracer = Tracer()
    p0 = time.perf_counter()
    c, busy, done = traced_pass(wl, corpus, tracer, workdir, cli)
    pass_s = time.perf_counter() - p0
    probe = wl.build_probe(args.workload, args.seed, corpus,
                           "smoke" if args.smoke else "full")
    hits, unexplained = defect_probe(wl, probe)
    io_tracer, startup_failed = tracer, 0
    if not cli:
        io_tracer = Tracer()
        startup_failed = startup_pass(wl, args, workdir, io_tracer)
    bare_ms, import_ms = startup_probes(wl)
    frame = tracer.busy("subdiff.build_frame")
    decide = tracer.busy("decide.decide")
    full = tracer.busy("decide.full")
    # the calls an untraced op makes; the rest of the pass is what tracing
    # added (the extra frame and no-certificate calls, and the spans)
    op_s = sum(tracer.busy(name) for name in (
        "decide.full", "decide.verify", "oracle.check", "cli.check",
        "cli.verify"))
    values = {
        "subdiff.build_frame.calls": len(tracer.durations("subdiff.build_frame")),
        "subdiff.build_frame.busy_s": frame,
        "decide.decide.busy_s": decide,
        "decide.decisions": c["decisions"],
        "decide.sweep.busy_s": busy["sweep"],
        "decide.sweep.evals": c["sweep.evals"],
        "decide.sweep.evals_max": c["sweep.evals_max"],
        "decide.sweep.swept": c["sweep.swept"],
        "decide.sweep.capped": c["sweep.capped"],
        "decide.certificate.busy_s": full - decide,
        **{f"decide.certificate.{kind}.busy_s": busy[kind]
           for kind in CERT_KINDS},
        "decide.certificate.decisive": c["decisive"],
        "decide.certificate.missing": c["missing"],
        "decide.certificate.fallback": c["fallback"],
        "decide.subspace.fw_iters": c["fw_iters"],
        "decide.verify.busy_s": tracer.busy("decide.verify"),
        "decide.verify.checked": c["verify.checked"],
        "decide.verify.failed": c["verify.failed"],
        "oracle.check.busy_s": tracer.busy("oracle.check"),
        "oracle.checked": c["oracle.checked"],
        "oracle.disagree": c["oracle.disagree"],
        "oracle.boundary": c["oracle.boundary"],
        "io.load_problem.busy_s": io_tracer.busy("io.load_problem"),
        "io.save_report.busy_s": io_tracer.busy("io.save_report"),
        "cli.interpreter_ms": bare_ms,
        "cli.import_ms": import_ms,
        "cli.check_ms": median_ms(io_tracer.durations("cli.check")),
        "cli.verify_ms": median_ms(io_tracer.durations("cli.verify")),
        "generate.corpus.busy_s": gen_s,
        "failed_fraction": failed_fraction(done),
        "defect.scale.hits": hits["scale"],
        "defect.shallow_violation.hits": hits["shallow_violation"],
        "trace.pass_s": pass_s,
        "trace.op_s": op_s,
        "trace.overhead_s": pass_s - op_s,
        "peak_rss_mb": peak_rss_mb(cli),
    }
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    record["spans"] = str(spans_path.relative_to(ROOT))
    record["bases"] = {
        "decide.sweep.capped": f"{c['sweep.capped']} of {c['sweep.swept']} swept",
        "decide.sweep.swept": f"{c['sweep.swept']} of {c['decisions']} decisions",
        "decide.certificate.missing":
            f"{c['missing']} of {c['decisive']} decisive",
        "oracle.disagree":
            f"{c['oracle.disagree']} of {c['oracle.checked']} refereed",
        "decide.verify.failed":
            f"{c['verify.failed']} of {c['verify.checked']} verified",
        "defect.scale.hits": f"{hits['scale']} of {len(probe)} probed",
        "defect.shallow_violation.hits":
            f"{hits['shallow_violation']} of {len(probe)} probed",
    }
    record["probe"] = {"instances": len(probe),
                       "sha256": wl.fingerprint(probe),
                       "unexplained": dict(unexplained)}
    record["startup_pass_failed"] = startup_failed
    return values, PER_LAYER, done, sum(unexplained.values()) + startup_failed


def end_to_end_values(wl, args, workdir, corpus, setup_s, record):
    cli = args.workload == "cold_cli"
    if cli:
        def op(i, inst):
            return wl.run_cli(inst, workdir / f"p{i}.json",
                              workdir / f"r{i}.json")
    else:
        def op(i, inst):
            return wl.run_op(inst)
    order = wl.visiting_order(corpus, args.seed)
    lat, done, wall = timed_loop(wl, corpus, order, op, args.seconds)
    pct = TAIL_PERCENTILE[args.workload]
    tail_s, beyond = percentile(lat, pct)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / wall,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
    }
    record["e2e"] = {
        **{name: metric(values[name], unit)
           for name, unit in END_TO_END.items()},
        "failed_fraction": metric(failed_fraction(done), "ratio"),
    }
    record["latency_tail"] = {"percentile": pct, "samples_beyond": beyond,
                              "samples": len(lat),
                              "corpus_cycles": len(lat) / len(corpus)}
    record["timed_wall_s"] = wall
    return values, END_TO_END, done, 0


def peak_rss_mb(cli: bool) -> float:
    """Peak resident memory of this process, or in cold_cli of its largest
    child, in MB."""
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_ms(seconds: list) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def failed_fraction(done) -> float:
    return sum(bool(reasons) for _, reasons, _ in done) / len(done)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kyfanorth" / "__init__.py").is_file():
        print(f"perfbench: no kyfanorth sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import workloads as wl
    import kyfanorth
    if Path(kyfanorth.__file__).resolve().parent != SRC / "kyfanorth":
        print(f"perfbench: kyfanorth imported from {kyfanorth.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(wl, args, workdir) -> int:
    # the import is timed in fresh interpreters, as the benchmark's own
    # import has already happened and a single cold timing is noisy
    import_s = child_ms(wl, "import kyfanorth") / 1e3
    corpus, fp, setup_rep_s, gen_s = set_up(wl, args, workdir)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": environment_record(),
        "corpus": {"instances": len(corpus), "sha256": fp,
                   "tags": dict(Counter(inst.tag for inst in corpus))},
        "sweep_cap": wl.SWEEP_CAP,
        "host_probe_ms": {"before": host_probe_ms()},
        "setup": {"import_s": import_s, "median_build_s": setup_rep_s,
                  "repeats": SETUP_REPEATS, "import_repeats": PROBE_REPEATS},
    }
    if args.trace:
        order = wl.visiting_order(corpus, args.seed)
        corpus = [corpus[i] for i in sorted(order[:TRACE_OPS])]
        record["traced_instances"] = len(corpus)
        values, units, done, probe_failures = layer_values(
            wl, args, workdir, corpus, gen_s, record)
    else:
        values, units, done, probe_failures = end_to_end_values(
            wl, args, workdir, corpus, import_s + setup_rep_s, record)
    record["host_probe_ms"]["after"] = host_probe_ms()
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}

    record["verdicts"] = dict(Counter(
        f"{corpus[i].tag}: {v}" for i, _, v in done))
    failed = [i for i, reasons, _ in done if reasons]
    record["failures"] = {
        "failed": len(failed),
        "by_reason": dict(Counter(x for _, reasons, _ in done
                                  for x in reasons)),
        "by_tag": dict(Counter(corpus[i].tag for i in failed)),
    }
    print(json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:40s} {m['value']:.6g} {m['unit']}")
    # every timed corpus is built to be decided right, so any failed op
    # clears `correct`, as does a probe failure outside the known defects
    print(json.dumps({"correct": not failed and not probe_failures,
                      "attempted": len(done), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
