"""A five-run smoke test of scripts/report_corpus.py on this checkout.

The script runs its list in-process on the ainfkit of the checkout it is
given, which here is the ainfkit the tests import. It reads the op lists of
perfbench/workloads.py without writing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def corpus(monkeypatch):
    """The script as a module; sys.path, the bytecode flag and the
    perfbench modules it imports are put back afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    perfbench = ("workloads", "oracle")
    for name in perfbench:
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location(
        "report_corpus", ROOT / "scripts" / "report_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in perfbench:
        sys.modules.pop(name, None)


SUBSET = [
    "check-ainf <fixtures>/derham_t1.json",
    "torus-suite --seed 3 --trials 50",
    "check-isotopy <fixtures>/isotopy_extend.json --mutate flip:im0:1/0:->z",
    "mutation-cohomology seed 21 op 0:",
    "edit 4:",
]


def test_five_runs_are_recorded_and_compared(corpus, tmp_path):
    cli = corpus.load_checkout(ROOT)
    ids = [run_id for run_id, _ in corpus.corpus(cli, ROOT, tmp_path)]
    assert len(ids) > 1500 and not any(str(ROOT) in i for i in ids)
    chosen = [next(i for i in ids if i.startswith(prefix)) for prefix in SUBSET]

    def record(name):
        work = tmp_path / name
        work.mkdir()
        return corpus.record(ROOT, work, only=chosen)

    first, second = record("first"), record("second")
    assert [r["id"] for r in first["runs"]] == chosen
    assert [r["exit"] for r in first["runs"]] == [0, 0, 1, 1, 2]
    assert all(len(r["sha256"]) == 64 for r in first["runs"])
    assert corpus.differences(first, second) == ([], [], [])

    second["runs"][1]["sha256"] = "0" * 64
    del second["runs"][4]
    assert corpus.differences(first, second) == ([chosen[1]], [chosen[4]], [])
