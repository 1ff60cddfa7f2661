"""A five-run smoke test of scripts/report_corpus.py on this checkout, and
its --compare summary on two made-up records.

The script runs its list in-process on the ainfkit of the checkout it is
given, which here is the ainfkit the tests import. It reads the op lists of
perfbench/workloads.py without writing there.
"""

import importlib.util
import json
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


def test_compare_counts_the_differing_runs_per_command(corpus, tmp_path,
                                                       monkeypatch, capsys):
    """After the id lists, --compare counts the ids that differ by their
    first word; an id only one side has is listed but not counted."""
    ids = ["check-ainf <fixtures>/a.json", "check-ainf <fixtures>/b.json",
           "edit 3: check-ainf derham_t1 ops.0 drop",
           "relations seed 1 op 0: check-ainf <work>/c.json",
           "hf <fixtures>/a.json", "cohomology <fixtures>/a.json"]
    a = {"checkout": "A", "runs": [{"id": i, "exit": 0, "sha256": "0" * 64}
                                   for i in ids]}
    b = {"checkout": "B", "runs": [{"id": i, "exit": 0, "sha256": "1" * 64}
                                   for i in ids[:4]] + [a["runs"][4]]}
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    monkeypatch.setattr(corpus, "first_difference", lambda *args: "(diff)")
    assert corpus.compare(*paths) == 1
    out = capsys.readouterr().out
    assert out.endswith("differ per command:\n  check-ainf: 2\n  edit: 1\n"
                        "  relations: 1\n"
                        f"first difference: {ids[0]}\n(diff)\n")
    assert "only in A: 1\n  cohomology <fixtures>/a.json\n" in out
    assert corpus.per_command([]) == {}
