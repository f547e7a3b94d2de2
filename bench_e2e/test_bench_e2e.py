"""Self-test of the end-to-end benchmark at ``--quick`` scale.

    python -m pytest bench_e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SECONDS = "0.5"
#: Length of the alternating blocks of the injected-slowdown test.
BLOCK_S = 1.0
#: Units of metrics computed from the program's counters and outputs only.
COUNT_UNITS = {"count", "count/op", "bytes", "ratio"}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, output: Path, seed: int = 1) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--quick", "--output", str(output)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    return proc.returncode, last, json.loads(output.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict[tuple[str, int], tuple[int, dict, dict]]:
    out = tmp_path_factory.mktemp("reports")
    return {
        (w, t): run(w, t, out / f"{w}-{t}.json")
        for w in harness.WORKLOADS
        for t in (0, 1)
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_unit_and_n(results, trace):
    declared = DECLARED["end_to_end" if trace == 0 else "per_layer"]
    for workload in harness.WORKLOADS:
        _, last, report = results[(workload, trace)]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert list(last["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            emitted = last["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"], (workload, m["name"])
            assert isinstance(emitted["value"], (int, float)), (workload, m["name"])
        assert all(m["n"] >= 1 for m in report["workload_metrics"].values())


def test_end_to_end_metrics_are_never_zero(results):
    for workload in harness.WORKLOADS:
        _, last, _ = results[(workload, 0)]
        for name, m in last["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_no_op_fails(results):
    for (workload, trace), (code, last, report) in results.items():
        assert code == 0, (workload, trace, report["errors"])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert report["workload_metrics"]["fail_ratio"]["value"] == 0


def test_traced_residual_below_5_percent(results):
    for workload in harness.WORKLOADS:
        _, last, _ = results[(workload, 1)]
        assert last["metrics"]["bench.unattributed_pct"]["value"] < 5.0, workload


def test_wrong_expectation_counts_as_failure(monkeypatch, tmp_path):
    # Every citation query now asks for a page no record has.
    monkeypatch.setattr(
        workloads, "cite_query", lambda volume, page: f"volume = {volume} AND page = 99999"
    )
    _, report = workloads.run_workload(
        "lookup", workloads.QUICK, seed=1, seconds=0.2, trace=False, workdir=tmp_path
    )
    assert report["failed"] > 0
    assert not report["correct"]
    assert report["workload_metrics"]["fail_ratio"]["value"] > 0


def test_same_seed_same_ops():
    rows = [r.to_store_dict() for r in workloads.corpus(500, 7, 100)]
    again = [r.to_store_dict() for r in workloads.corpus(500, 7, 100)]
    assert rows == again
    ops = workloads.lookup_ops(rows, workloads.QUICK, 7)
    assert ops == workloads.lookup_ops(again, workloads.QUICK, 7)
    assert ops != workloads.lookup_ops(rows, workloads.QUICK, 8)


@pytest.mark.parametrize("workload", ["lookup_sharded", "update"])
def test_same_seed_same_counts(results, tmp_path, workload):
    _, first, _ = results[(workload, 1)]
    _, second, _ = run(workload, 1, tmp_path / "again.json")
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    counts = [name for name, unit in units.items() if unit in COUNT_UNITS]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def busy_cpu(n: int = 20_000) -> None:
    sum(i * i for i in range(n))


@functools.cache
def scattered() -> tuple[bytearray, tuple[int, ...]]:
    big = bytearray(64 << 20)
    return big, tuple(random.Random(0).randrange(len(big)) for _ in range(20_000))


def busy_memory(n: int = 20_000) -> None:
    """Reads scattered over 64 MB, more than the core's own caches."""
    big, offsets = scattered()
    sum(big[o] for o in offsets[:n])


_KEPT: list[list] = []


def busy_allocating() -> None:
    """Allocates objects that live a while, as a growing cache does, so
    the collector has work to do."""
    _KEPT.append([(i, str(i)) for i in range(5_000)])
    del _KEPT[:-20]


@pytest.mark.parametrize("work", [busy_cpu, busy_memory, busy_allocating])
def test_program_work_does_not_slow_the_probe(work):
    # Every time is scaled by the probe, so a probe that paid for the
    # program's work would scale part of a slower program back to the
    # old times.  Samples alternate between right after the work and
    # right after none, so the host's own speed changes cancel out.
    heap = [{"id": i, "title": str(i)} for i in range(100_000)]  # like a loaded store
    probe = harness.SpeedProbe()
    after: dict[bool, list[float]] = {True: [], False: []}
    for i in range(400):
        busy = i % 2 == 0
        if busy:
            work()
        after[busy].append(probe.sample())
    del heap
    ratio = statistics.median(after[True]) / statistics.median(after[False])
    assert 0.95 < ratio < 1.05, ratio


@pytest.mark.parametrize("work", [busy_cpu, busy_memory])
def test_injected_slowdown_survives_scaling(monkeypatch, tmp_path, work):
    # Point reads get extra work in every other block of BLOCK_S seconds.
    # A time is scaled by probe samples up to PROBE_WINDOW_S away, so only
    # reads whose window lies inside one block are compared.
    get = workloads.RecordStore.get

    def slowed(self, *args, **kwargs):
        result = get(self, *args, **kwargs)
        if int(perf_counter() / BLOCK_S) % 2:
            work(3_000)
        return result

    monkeypatch.setattr(workloads.RecordStore, "get", slowed)
    run, _ = workloads.run_workload(
        "lookup", workloads.QUICK, seed=1, seconds=6.0, trace=False, workdir=tmp_path
    )
    raw: dict[bool, list[float]] = {True: [], False: []}
    scaled: dict[bool, list[float]] = {True: [], False: []}
    for start, seconds, kind, _, _ in run.op_log:
        block = int((start - harness.PROBE_WINDOW_S) / BLOCK_S)
        if kind == "get" and block == int((start + seconds + harness.PROBE_WINDOW_S) / BLOCK_S):
            raw[block % 2 == 1].append(seconds)
            scaled[block % 2 == 1].append(run.scaled(start, seconds))

    def share(times: dict[bool, list[float]]) -> float:
        return statistics.median(times[True]) / statistics.median(times[False]) - 1

    assert share(raw) > 1.0  # well above the host's own swings
    assert 0.75 < share(scaled) / share(raw) < 1.33, (share(scaled), share(raw))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
