"""The benchmark's own correctness gate, on its smoke corpora.

``perfbench/workloads.py`` builds the seeded corpora the timed benchmark
runs and judges every op it makes. Running its ``smoke`` corpora through
the same ``run_op`` and ``failure_reasons`` here means that a change which
would fail the benchmark's gate fails tier-1 first. The module is loaded
from its file and nothing in it is changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["mixed4", "ginibre"])
def test_smoke_corpus_passes_the_bench_gate(workloads, workload, seed):
    corpus = workloads.build(workload, seed, size="smoke")
    assert corpus
    failed = []
    for i, inst in enumerate(corpus):
        reasons = workloads.failure_reasons(inst, workloads.run_op(inst))
        if reasons:
            failed.append((i, inst.tag, reasons))
    assert failed == []


def test_full_ginibre_probe_passes_the_bench_gate(workloads):
    # 36 unlabelled Ginibre pairs at n = 64 and 200: near the band a
    # refutation's norm dips too little for any fixed depth, but a chord
    # rate still proves it, so each one carries a certificate that verifies
    probe = workloads.build_probe("ginibre", 2, [], size="full")
    assert len(probe) == 36
    failed = []
    for i, inst in enumerate(probe):
        reasons = workloads.failure_reasons(inst, workloads.run_op(inst))
        if reasons:
            failed.append((i, inst.tag, reasons))
    assert failed == []
