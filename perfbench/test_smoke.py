"""Smoke test of the benchmark itself, on a reduced pass of every workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

import run

assert run.use_checkout_sources()

import oracle  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Ops on the large fixtures or the top of a scale ladder take ~0.1-1.5 s
# each; the reduced pass leaves them out.
HEAVY = ("derham_t2", "kunneth_derham", "kunneth_minimal", "derham(1,4)",
         "derham(1,8)", "torus-suite", "@3/8", "@1/2", "@6", "@8")


def reduced(ops):
    return [op for op in ops if not any(h in op.item for h in HEAVY)]


def test_config_names_the_metrics_run_emits():
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == \
        [(name, run.per_layer_unit(name)) for name in run.PER_LAYER]
    assert {w["name"] for w in CONFIG["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_pass(workload, trace, tmp_path):
    result = run.run(workload, 5, 0, trace, tmp_path / "work",
                     start=perf_counter(), ops_filter=reduced)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]


def test_oracle_rejects_wrong_reports():
    dims = oracle.expect(0, oracle.torus_dims(2))
    good = json.dumps({"status": "PASS", "dims": {"0": 1, "1": 2, "2": 1}})
    wrong = json.dumps({"status": "PASS", "dims": {"0": 1, "1": 1, "2": 1}})
    assert dims(0, good) is None
    assert dims(0, wrong) is not None
    assert dims(1, good) is not None

    flipped = oracle.expect(1, oracle.caught)
    caught = json.dumps({"status": "FAIL", "counterexamples": [{"n": 2}]})
    assert flipped(1, caught) is None
    assert flipped(0, json.dumps({"status": "PASS", "counterexamples": []})) \
        is not None
    assert flipped(1, json.dumps({"status": "FAIL", "counterexamples": []})) \
        is not None


def test_loop_counts_exceptions_and_unstable_reports():
    calls = []

    def main(argv):
        calls.append(argv)
        if argv[0] == "raise":
            raise RuntimeError("boom")
        print(json.dumps({"status": "PASS", "call": len(calls)}))
        return 0

    ops = [workloads.Op(("raise",), "raise", oracle.expect(0)),
           workloads.Op(("drift",), "drift", oracle.expect(0))]
    loop = run.Loop(SimpleNamespace(main=main), ops)
    loop.run(0)
    assert loop.attempted == 4
    # Both raises fail; the drifting report fails on its second pass only.
    assert len(loop.failures) == 3
