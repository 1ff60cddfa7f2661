"""The report corpus: the digest of every report of a fixed list of ainfctl
runs, so that "the reports are byte-identical" is one command.

    python3 scripts/report_corpus.py --checkout DIR --out FILE
    python3 scripts/report_corpus.py --compare A.json B.json

--checkout runs the list below in-process on the ainfkit of DIR (DIR/src and
DIR/perfbench go first on sys.path) and writes, for each run, a readable id
and the sha256 of its exit code, stdout and stderr. Before hashing, the
fixture directory of DIR and the scratch directory of the generated
documents are replaced by <fixtures> and <work>, so that the same report
from two checkouts has the same digest. --compare lists the ids whose
digests differ or that only one file has, and shows the first difference: it
runs that id again in both recorded checkouts (--show ID prints one run).

The list, in this order:

- every spec command on every bundled fixture, and check-subalgebra
  --embedding B on each;
- torus-suite on seeds 0-9 at 50 trials;
- every im/ic flip of isotopy_extend and commuting_isotopy under
  check-isotopy, check-commuting-isotopy and extend, and every algebra flip
  of both under check-isotopy;
- the ops of both gated benchmark workloads, as perfbench/workloads.py lists
  them, on seeds 1 and 21;
- to_json of the derham_model ladder (1, 1), (1, 2), (1, 4), (2, 1), (2, 2);
- 1,500 structural edits of the fixtures drawn from random.Random(0): one
  value replaced by one of EDIT_VALUES, or one key or item dropped, at a
  drawn depth, then one of the commands of EDIT_COMMANDS for that fixture.

The list depends on the checkout only through its fixtures and its
perfbench op lists; a change that edits neither runs the same list on both
sides.
"""

import argparse
import contextlib
import copy
import difflib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

SPEC_COMMANDS = ["check-ainf", "check-unit", "check-subalgebra",
                 "check-commuting", "check-kunneth", "mc-defect",
                 "box-product", "cohomology", "hf", "barcode",
                 "check-hf-kunneth", "check-isotopy", "extend",
                 "check-commuting-isotopy"]
ISOTOPY_FIXTURES = ["isotopy_extend", "commuting_isotopy"]
ISOTOPY_COMMANDS = ["check-isotopy", "check-commuting-isotopy", "extend"]
WORKLOADS = ["relations", "mutation-cohomology"]
WORKLOAD_SEEDS = [1, 21]
MODELS = [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2)]
EDITS, EDIT_SEED = 1500, 0
EDIT_VALUES = [None, [], {}, "x", 1.5, True, -1, 0, "1/0", {"a": 1}, [[1]],
               "-3", 10 ** 6]
EDIT_COMMANDS = {
    "derham_t1": ["check-ainf", "check-unit", "cohomology", "hf", "barcode"],
    "derham_t2": ["check-ainf", "cohomology"],
    "kunneth_minimal": ["check-commuting", "check-subalgebra",
                        "check-kunneth"],
    "kunneth_derham": ["check-subalgebra", "check-kunneth"],
    "gapped_product": ["mc-defect", "box-product", "check-hf-kunneth"],
    "isotopy_extend": ["check-isotopy", "extend"],
    "isotopy_chain": ["check-isotopy", "extend"],
    "commuting_isotopy": ["check-commuting-isotopy", "check-isotopy"],
}


def load_checkout(checkout):
    """ainfkit.cli of the checkout; it must be the ainfkit this process
    imports."""
    src = (Path(checkout) / "src").resolve()
    sys.path[:0] = [str(src), str(Path(checkout, "perfbench").resolve())]
    sys.dont_write_bytecode = True  # nothing is written under the checkout
    import ainfkit.cli
    if Path(ainfkit.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"ainfkit is already imported from "
                         f"{ainfkit.cli.__file__}, not from {src}")
    return ainfkit.cli


def invoke(cli, argv):
    """(exit code, stdout, stderr) of one in-process run; an exception that
    escapes main is recorded as exit "traceback" with its last line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        except Exception:  # noqa: BLE001 - a traceback is an outcome
            code = "traceback"
            err.write(traceback.format_exc().splitlines()[-1])
    return code, out.getvalue(), err.getvalue()


def structural_edits(fixtures):
    """(id, fixture name, command, edit) of every edit; edit(doc) applies it
    to a copy of the fixture's document."""
    rng = random.Random(EDIT_SEED)
    names = sorted(EDIT_COMMANDS)
    docs = {name: json.loads((fixtures / f"{name}.json").read_text())
            for name in names}
    for i in range(EDITS):
        name = rng.choice(names)
        command = rng.choice(EDIT_COMMANDS[name])
        parent, node, path = None, docs[name], []
        while isinstance(node, (dict, list)) and node and (
                parent is None or rng.random() < 0.5):
            parent = node
            key = rng.choice(sorted(node) if isinstance(node, dict)
                             else range(len(node)))
            node = parent[key]
            path.append(key)
        drop = rng.random() < 0.5
        value = None if drop else rng.choice(EDIT_VALUES)

        def edit(path=path, drop=drop, value=value, doc=docs[name]):
            doc = copy.deepcopy(doc)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if drop:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            return doc

        change = "drop" if drop else f"= {json.dumps(value)}"
        yield f"edit {i}: {command} {name} {'.'.join(map(str, path))} " \
            f"{change}", name, command, edit


def corpus(cli, checkout, work):
    """The runs as (id, thunk), each thunk giving (exit code, stdout,
    stderr) with the checkout's paths replaced."""
    fixtures = (Path(checkout) / "src" / "ainfkit" / "fixtures").resolve()
    names = sorted(p.stem for p in fixtures.glob("*.json"))

    def fixture(name):
        return str(fixtures / f"{name}.json")

    def plain(text):
        return text.replace(str(fixtures), "<fixtures>").replace(
            str(work), "<work>")

    def command(argv):
        def run():
            code, out, err = invoke(cli, argv)
            return code, plain(out), plain(err)
        return plain(" ".join(argv)), run

    runs = [command([cmd, fixture(name)])
            for name in names for cmd in SPEC_COMMANDS]
    runs += [command(["check-subalgebra", fixture(name), "--embedding", "B"])
             for name in names]
    runs += [command(["torus-suite", "--seed", str(seed), "--trials", "50"])
             for seed in range(10)]

    from ainfkit.ainf import constant_ids
    from ainfkit.isotopy import isotopy_constant_ids
    from ainfkit.specio import dump_document, load_spec
    for name in ISOTOPY_FIXTURES:
        doc = load_spec(fixture(name))
        runs += [command([cmd, fixture(name), "--mutate", f"flip:{cid}"])
                 for cid in isotopy_constant_ids(doc.isotopy)
                 for cmd in ISOTOPY_COMMANDS]
        runs += [command(["check-isotopy", fixture(name), "--mutate",
                          f"flip:{cid}"])
                 for cid in constant_ids(doc.algebra)]

    import workloads
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            workdir = work / f"{workload}-{seed}"
            workdir.mkdir()
            for i, op in enumerate(workloads.WORKLOADS[workload](seed, workdir)):
                op_id, run = command(op.argv)
                runs.append((f"{workload} seed {seed} op {i}: {op_id}", run))

    from ainfkit.models import derham_model
    for n, w in MODELS:
        runs.append((f"to_json derham_model({n}, {w})",
                     lambda n=n, w=w: (0, dump_document(
                         derham_model(n, w).to_json()), "")))

    edited = work / "edit.json"
    for edit_id, name, cmd, edit in structural_edits(fixtures):
        def run(cmd=cmd, edit=edit):
            edited.write_text(json.dumps(edit()), encoding="utf-8")
            code, out, err = invoke(cli, [cmd, str(edited)])
            return code, plain(out), plain(err)
        runs.append((edit_id, run))
    if len({run_id for run_id, _ in runs}) != len(runs):
        raise SystemExit("the run ids are not unique")
    return runs


def digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def record(checkout, work, only=None):
    """{"checkout": DIR, "runs": [{"id", "sha256", "exit"}]} of the corpus,
    or of the runs whose ids are in only."""
    cli = load_checkout(checkout)
    runs = []
    for run_id, run in corpus(cli, checkout, work):
        if only is None or run_id in only:
            code, out, err = run()
            runs.append({"id": run_id, "exit": code,
                         "sha256": digest(code, out, err)})
    return {"checkout": str(Path(checkout).resolve()), "runs": runs}


def show(checkout, run_id):
    """One run of the corpus, as {"exit", "stdout", "stderr"}."""
    cli = load_checkout(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        for candidate, run in corpus(cli, checkout, Path(tmp).resolve()):
            if candidate == run_id:
                code, out, err = run()
                return {"exit": code, "stdout": out, "stderr": err}
    raise SystemExit(f"no run {run_id!r} in the corpus")


def differences(a, b):
    """The ids whose digests differ, then the ids that only one side has."""
    left = {r["id"]: r["sha256"] for r in a["runs"]}
    right = {r["id"]: r["sha256"] for r in b["runs"]}
    differ = [i for i in left if i in right and left[i] != right[i]]
    return differ, [i for i in left if i not in right], \
        [i for i in right if i not in left]


def first_difference(a, b, run_id):
    """A unified diff of one run in the two recorded checkouts."""
    shown = []
    for side in (a, b):
        got = subprocess.run(
            [sys.executable, __file__, "--checkout", side["checkout"],
             "--show", run_id], capture_output=True, text=True)
        if got.returncode:
            return f"(cannot run it again in {side['checkout']}: " \
                   f"{got.stderr.strip()})"
        shown.append(json.loads(got.stdout))
    lines = []
    for key in ("exit", "stdout", "stderr"):
        before, after = (str(s[key]).splitlines(keepends=True) for s in shown)
        lines += difflib.unified_diff(before, after, f"A {key}", f"B {key}")
    return "".join(lines)


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    differ, only_a, only_b = differences(a, b)
    print(f"A: {len(a['runs'])} runs ({a['checkout']})")
    print(f"B: {len(b['runs'])} runs ({b['checkout']})")
    for title, ids in (("differ", differ), ("only in A", only_a),
                       ("only in B", only_b)):
        print(f"{title}: {len(ids)}")
        for run_id in ids:
            print(f"  {run_id}")
    if differ:
        print(f"first difference: {differ[0]}")
        print(first_difference(a, b, differ[0]))
    return 1 if differ or only_a or only_b else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", metavar="DIR")
    ap.add_argument("--out", metavar="FILE")
    ap.add_argument("--show", metavar="ID")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.checkout and args.show:
        json.dump(show(args.checkout, args.show), sys.stdout)
        return 0
    if not (args.checkout and args.out):
        ap.error("give --checkout DIR --out FILE, --checkout DIR --show ID, "
                 "or --compare A B")
    with tempfile.TemporaryDirectory() as tmp:
        doc = record(args.checkout, Path(tmp).resolve())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(doc['runs'])} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
