#!/usr/bin/env python3
"""Fast self-check of the benchmark on tiny corpora (about two minutes).

    python3 perfbench/smoke.py

Runs every workload of run.py (``tied`` and ``cold_cli`` too, which
BENCHMARK.json leaves out) with ``--smoke`` untraced and traced and checks
that: the run exits 0; its last line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those BENCHMARK.json lists for that mode; every value is a finite number;
both runs of one seed built the same corpus. It also checks that the
benchmark refuses to run, printing no result, from a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (run.py only defines names on import)


def run(root: Path, workload: str, trace: int):
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300, check=False)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    if not isinstance(last["attempted"], int) or last["attempted"] < 1:
        problems.append(f"attempted {last['attempted']!r}")
    if not isinstance(last["failed"], int) or last["failed"] < 0:
        problems.append(f"failed {last['failed']!r}")
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(set(got) ^ set(expected))} "
                        "differ from BENCHMARK.json")
    for name, m in last["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            problems.append(f"{name} = {v!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in WORKLOADS:
        prints = set()
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            problems = check_result(proc, modes[trace])
            if not problems:
                record = json.loads(proc.stdout.splitlines()[0])
                prints.add(record["corpus"]["sha256"])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:9s} trace={trace} {status}", flush=True)
            failures += bool(problems)
        if len(prints) > 1:
            print(f"{workload:9s} FAIL one seed built two corpora")
            failures += 1

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for f in HERE.glob("*.py"):
            shutil.copy2(f, bare / "perfbench" / f.name)
        proc = run(bare, WORKLOADS[0], 0)
        refused = proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"no sources: {'ok, refused' if refused else 'FAIL, it ran'}")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
