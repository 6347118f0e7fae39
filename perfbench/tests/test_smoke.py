"""Smoke tests of the benchmark at reduced size.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout.  One test per workload runs a shrunken
pass through the same runner the benchmark uses and requires every
operation to succeed and every check to hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import independent  # noqa: E402
import refkernel  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.05


@pytest.fixture(scope="module")
def sampler():
    s = refkernel.Sampler()
    s.start()
    yield s
    s.stop()


def _smoke_pass(sampler, name, seed=3, trace=None):
    wl = workloads.WORKLOADS[name][0](seed, SMOKE_SCALE)
    result = run.run_pass(wl, wl.make_inputs(), sampler, trace)
    assert result.failed == 0, result.errors
    assert result.attempted >= 1 and result.items >= 1
    assert all(t > 0 for t in result.call_s)
    return wl, result


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_workload_smoke(sampler, name):
    wl, first = _smoke_pass(sampler, name)
    again = run.run_pass(wl, wl.make_inputs(), sampler)
    assert again.digests == first.digests


def test_traced_pass_reports_every_layer_and_restores_the_program(sampler):
    import tensorgp.resolution as res

    original = res.check_c1
    tr = tracer.Tracer(sampler)
    tr.install()
    try:
        wl, result = _smoke_pass(sampler, "corpus-fp", trace=tr)
    finally:
        tr.uninstall()
    assert res.check_c1 is original
    values = tracer.layer_values(tr.snapshot(), 1.0, tracer.memo_entries(wl.rings))
    names = [n for n, _u, _b in tracer.LAYER_METRICS if n != "trace.overhead_pct"]
    assert set(names) <= set(values)
    assert values["resolution.positions"] > 0
    assert values["resolution.c1.calls"] >= values["resolution.positions"]
    assert values["formats.bytes_out"] > 0
    assert 0.0 < values["bimodule.memo.hit_ratio"] <= 1.0


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS) \
        == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == tracer.LAYER_METRICS
    assert {m["name"] for m in BENCH["end_to_end"]} \
        == {"items_per_s", "call_p50_ms", "setup_s", "peak_rss_mb"}


def test_independent_checks():
    import numpy as np

    one, zero = np.array([[1]]), np.array([[0]])
    # the corner bimodule of k x k squares to zero
    assert independent.tensor_power_dims([zero, one], [one, zero], 2, 2, 2) == [2, 1, 0]
    # the corner ring's hunt up to rank 1 has 1 + 2^3 candidates
    assert independent.hunt_total([2, 1, 0], 1, 1, 2) == 9
    assert independent.rank([[1, 2], [2, 4]], 3) == 1
    assert independent.rank([[1, 2], [2, 4]], None) == 1
    assert independent.rank([[1, 2], [2, 1]], 3) == 1
    assert independent.rank([[1, 2], [2, 1]], None) == 2
    assert independent.exact_pair([[0], [1]], [[1, 0]], 2, 5)
    assert not independent.exact_pair([[1], [1]], [[1, 0]], 2, 5)


def test_command_prints_the_result_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "hunt-fp", "--seed", "2",
           "--seconds", "1", "--trace", "0", "--scale", str(SMOKE_SCALE)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
