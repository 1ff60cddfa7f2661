import contextlib
import copy
import io
import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import cli
from ainfkit.cli import main
from conftest import FIXTURES
from test_golden_reports import curved_line


def _parsed(parser, argv):
    """vars() of the namespace, or the exit code and stderr of a refusal."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, err.getvalue()


@pytest.fixture(autouse=True)
def parses_as_a_fresh_parser(monkeypatch):
    """Every argv that a test of this module passes to main parses the same
    with the process's one parser as with a newly built one."""
    shared, build = cli.build_parser(), cli.build_parser.__wrapped__

    class Checked:
        @staticmethod
        def parse_args(argv):
            assert _parsed(shared, argv) == _parsed(build(), argv)
            return shared.parse_args(argv)

    monkeypatch.setattr(cli, "build_parser", lambda: Checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_check_ainf_pass(fixture_path, capsys):
    code, report = run(capsys, "check-ainf", fixture_path("derham_t1.json"))
    assert code == 0
    assert report["status"] == "PASS"


def test_check_ainf_mutated_fails(fixture_path, capsys):
    code, report = run(capsys, "check-ainf", fixture_path("derham_t1.json"),
                       "--mutate", "flip:m1:0/0:f1;d->f1;d1")
    assert code == 1
    assert report["counterexamples"]


def test_unknown_mutation_id_is_input_error(fixture_path, capsys):
    code = main(["check-ainf", fixture_path("derham_t1.json"),
                 "--mutate", "flip:m1:0/0:nope->nope"])
    assert code == 2
    # Ids that do not split into arity, beta, inputs and output are named.
    for command, name, cid in (
            ("check-isotopy", "isotopy_extend.json", "im0"),
            ("check-isotopy", "isotopy_extend.json", "ic1:0"),
            ("check-ainf", "derham_t1.json", ""),
            ("check-ainf", "derham_t1.json", "m0:1"),
            ("check-ainf", "derham_t1.json", "m1:0:x->z"),
            ("check-ainf", "derham_t1.json", "mx:0/0:x->z"),
            ("check-ainf", "derham_t1.json", "q1:0/0:x->z"),
            ("check-ainf", "derham_t1.json", "m1:1/0/0:x->z")):
        err = _input_error(capsys, command, fixture_path(name),
                           "--mutate", f"flip:{cid}")
        assert f"malformed constant id {cid!r}" in err


def test_missing_file_is_input_error(capsys):
    assert main(["check-ainf", "/nonexistent.json"]) == 2


def test_bad_format_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "other/9"}')
    assert main(["check-ainf", str(p)]) == 2
    p.write_text("{not json")
    assert main(["check-ainf", str(p)]) == 2


def test_subalgebra_and_commuting(fixture_path, capsys):
    for emb in ("A", "B"):
        code, report = run(capsys, "check-subalgebra",
                           fixture_path("kunneth_derham.json"),
                           "--embedding", emb)
        assert code == 0 and report["status"] == "PASS"
    code, report = run(capsys, "check-commuting",
                       fixture_path("kunneth_derham.json"))
    assert code == 0 and report["status"] == "PASS"


def test_check_kunneth(fixture_path, capsys):
    code, report = run(capsys, "check-kunneth",
                       fixture_path("kunneth_derham.json"))
    assert code == 0 and report["status"] == "PASS"
    # m_2 is stored where one factor lies in its window (|frequency| <= 1);
    # the 16 pairs of frequency +-2 in both factors are out of scope.
    assert report["tensor_dim"] == report["K_rank"] == 84
    assert len(report["excluded_pairs"]) == 16
    assert all(na.startswith(("f-2;", "f2;")) and nb.startswith(("f-2;", "f2;"))
               for na, nb in report["excluded_pairs"])
    assert report["chain_map"] and report["cohomology_bijective"]
    code, report = run(capsys, "check-kunneth",
                       fixture_path("kunneth_minimal.json"))
    assert code == 0 and report["status"] == "PASS"
    assert (report["tensor_dim"], report["excluded_pairs"]) == (4, [])
    # K(f1;d (x) f1;d) is m_2(f1_0;d, f0_1;d) up to sign: negating it leaves
    # K injective but no longer a chain map.
    code, report = run(capsys, "check-kunneth",
                       fixture_path("kunneth_derham.json"),
                       "--mutate", "flip:m2:0/0:f1_0;d,f0_1;d->f1_1;d")
    assert code == 1 and report["status"] == "FAIL"
    assert report["injective"] and not report["chain_map"]
    err = _input_error(capsys, "check-kunneth", fixture_path("derham_t2.json"))
    assert "embeddings" in err


def test_mc_defect_and_box_product(fixture_path, capsys):
    code, report = run(capsys, "mc-defect", fixture_path("gapped_product.json"))
    assert code == 0
    assert report["remainder"] == {}
    code, report = run(capsys, "box-product",
                       fixture_path("gapped_product.json"))
    assert code == 0 and report["potential_additive"] is True


def test_cohomology_and_hf(fixture_path, capsys):
    code, report = run(capsys, "cohomology", fixture_path("derham_t2.json"))
    assert code == 0
    assert report["dims"] == {"0": 1, "1": 2, "2": 1}
    code, report = run(capsys, "hf", fixture_path("gapped_product.json"))
    assert code == 0 and report["dim"] == 1


def test_barcode_and_hf_kunneth(fixture_path, capsys):
    code, report = run(capsys, "barcode", fixture_path("barcode_simple.json"))
    assert code == 0 and report["bars"] == ["1"]
    code, report = run(capsys, "check-hf-kunneth",
                       fixture_path("gapped_product.json"))
    assert code == 0 and report["multiplicative"] is True


def test_isotopy_commands(fixture_path, capsys):
    code, report = run(capsys, "check-isotopy",
                       fixture_path("isotopy_extend.json"))
    assert code == 0 and report["status"] == "PASS"
    code, report = run(capsys, "extend", fixture_path("isotopy_extend.json"))
    assert code == 0
    assert report["new_constants"]["m1:2/0:x->z"] == "-7"
    code, report = run(capsys, "extend", fixture_path("isotopy_chain.json"))
    assert code == 0 and report["cutoff"] == "3"


def test_commuting_isotopy_command(fixture_path, capsys):
    code, report = run(capsys, "check-commuting-isotopy",
                       fixture_path("commuting_isotopy.json"))
    assert code == 0 and report["status"] == "PASS"
    code, _ = run(capsys, "check-commuting-isotopy",
                  fixture_path("commuting_isotopy.json"),
                  "--mutate", "flip:ic0:1/0:->xA|eB")
    assert code == 1


def test_torus_suite_command(capsys):
    code, report = run(capsys, "torus-suite", "--seed", "7", "--trials", "5")
    assert code == 0
    assert len(report["groups"]) == 8


def test_report_flag_writes_identical_bytes(fixture_path, tmp_path, capsys):
    outs = []
    for i in range(2):
        dest = tmp_path / f"r{i}.json"
        code, _ = run(capsys, "check-unit", fixture_path("derham_t1.json"),
                      "--report", str(dest))
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_parser_is_built_once_per_process(monkeypatch):
    monkeypatch.undo()
    assert cli.build_parser() is cli.build_parser()


def _alone(capsys, argv):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(argv)
    return (code, *capsys.readouterr())


def test_a_refused_argv_leaves_the_next_call_as_it_is_alone(fixture_path,
                                                             capsys):
    valid = ["hf", fixture_path("gapped_product.json"), "--bounding", "b"]
    expected = _alone(capsys, valid)
    for bad in (["hf"], ["hf", "x.json", "--bounding"], ["no-such-command"],
                ["torus-suite", "--trials", "many"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ainfctl")
        assert _alone(capsys, valid) == expected


def test_report_path_does_not_carry_over_to_the_next_call(fixture_path,
                                                          tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, report = run(capsys, "check-unit", fixture_path("derham_t1.json"),
                       "--report", str(dest))
    assert code == 0 and json.loads(dest.read_text()) == report
    dest.unlink()
    for argv in (["check-unit", fixture_path("derham_t1.json")],
                 ["torus-suite", "--trials", "1"]):
        assert run(capsys, *argv)[0] == 0
        assert not dest.exists()


def test_cutoff_flag(fixture_path, capsys):
    code, report = run(capsys, "check-ainf",
                       fixture_path("gapped_product.json"),
                       "--cutoff", "3/2")
    assert code == 0 and report["status"] == "PASS"


def _write_doc(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps({"format": "ainfctl/1", **document}))
    return str(path)


def _input_error(capsys, *argv):
    """Run a command that must reject its input: exit 2, one located
    message on stderr, nothing on stdout, no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ainfctl: error: ")
    assert "Traceback" not in captured.err
    return captured.err


def _non_square_zero_doc(tmp_path):
    # m1(a) = b, m1(b) = c, so m1 m1 (a) = c != 0; strict unit e.
    basis = [["e", 0], ["a", 0], ["b", 1], ["c", 2]]
    ops = [{"k": 1, "beta": ["0", 0], "inputs": [x], "output": y, "coeff": "1"}
           for x, y in (("a", "b"), ("b", "c"))]
    for nm, deg in basis:
        ops.append({"k": 2, "beta": ["0", 0], "inputs": ["e", nm],
                    "output": nm, "coeff": "1"})
        if nm != "e":
            ops.append({"k": 2, "beta": ["0", 0], "inputs": [nm, "e"],
                        "output": nm, "coeff": "-1" if deg % 2 else "1"})
    algebra = {"mode": "gapped", "monoid": [["1", 0]], "unit": "e",
               "space": {"basis": basis}, "ops": ops}
    return _write_doc(tmp_path, "d2.json",
                      {"algebra": algebra, "bounding": {"b": {}}})


def test_hf_and_barcode_reject_non_square_zero_differential(tmp_path, capsys):
    path = _non_square_zero_doc(tmp_path)
    for command in ("hf", "barcode"):
        err = _input_error(capsys, command, path)
        assert "deformed differential does not square to zero" in err
    err = _input_error(capsys, "cohomology", path)
    assert "differential does not square to zero" in err


def _barcode_simple_with(fixture_path, tmp_path, edit):
    with open(fixture_path("barcode_simple.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    edit(document["algebra"]["ops"][0])
    return _write_doc(tmp_path, "bad.json", document)


def test_malformed_beta_is_input_error(fixture_path, tmp_path, capsys):
    path = _barcode_simple_with(fixture_path, tmp_path,
                                lambda op: op.update(beta=["0"]))
    err = _input_error(capsys, "check-ainf", path)
    assert "algebra: ops[0]: beta: beta must be a pair" in err


def test_zero_denominator_is_input_error(fixture_path, tmp_path, capsys):
    path = _barcode_simple_with(fixture_path, tmp_path,
                                lambda op: op.update(coeff="1/0"))
    err = _input_error(capsys, "check-ainf", path)
    assert ": algebra: ops[0]: coeff: zero denominator in '1/0'" in err
    err = _input_error(capsys, "check-ainf", fixture_path("derham_t1.json"),
                       "--cutoff", "1/0")
    assert "--cutoff 1/0" in err


def test_dense_monoid_enumeration_is_input_error(tmp_path, capsys):
    # <(1/100000, 0)> has 100001 elements of energy <= 1, more than one
    # enumeration may produce; the scan must refuse it instead of running on.
    algebra = {"mode": "modulo", "cutoff": "1", "monoid": [["1/100000", 0]],
               "space": {"basis": [["x", 1], ["z", 2]]},
               "ops": [{"k": 1, "beta": ["0", 0], "inputs": ["x"],
                        "output": "z", "coeff": "1"}]}
    path = _write_doc(tmp_path, "dense.json", {"algebra": algebra})
    start = time.monotonic()
    err = _input_error(capsys, "check-ainf", path)
    assert "energy monoid has more than 100000 elements of energy <= 1" in err
    assert time.monotonic() - start < 20


def test_off_lattice_beta_is_refused_without_enumeration(tmp_path, capsys):
    # 1000000/3 is no multiple of 1/2, so it lies outside <(1/2, 0)> however
    # many elements lie below it; the membership test must say so at once
    # instead of enumerating up to it and running out of budget.
    algebra = {"mode": "gapped", "monoid": [["1/2", 0]],
               "space": {"basis": [["x", 1], ["z", 2]]},
               "ops": [{"k": 1, "beta": ["1000000/3", 0], "inputs": ["x"],
                        "output": "z", "coeff": "1"}]}
    path = _write_doc(tmp_path, "off_lattice.json", {"algebra": algebra})
    start = time.monotonic()
    err = _input_error(capsys, "check-ainf", path)
    assert "beta (Fraction(1000000, 3), 0) outside the energy monoid" in err
    assert "more than" not in err
    assert time.monotonic() - start < 1


def test_dense_monoid_isotopy_scans_only_its_stored_betas(tmp_path, capsys):
    """The same monoid under an isotopy that stores only beta = 0 entries:
    its relation and differential-equation scans visit the planned betas and
    enumerate no monoid, so the check passes at once."""
    isotopy = {"n": 0, "cutoff": "1", "monoid": [["1/100000", 0]],
               "space": {"basis": [["x", 1], ["z", 2]]},
               "mt": [{"k": 1, "beta": ["0", 0], "inputs": ["x"],
                       "output": "z", "poly": ["1"]}]}
    path = _write_doc(tmp_path, "dense_isotopy.json", {"isotopy": isotopy})
    start = time.monotonic()
    code, report = run(capsys, "check-isotopy", path)
    assert time.monotonic() - start < 1
    assert code == 0 and report == {"check": "pseudoisotopy",
                                     "status": "PASS", "violations": []}


def _isotopy_fixture_with(fixture_path, tmp_path, name, locate):
    """A copy of a fixture whose first m^t entry, in the isotopy that
    locate(document) picks, has the malformed beta ["0"]."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        document = json.load(fh)
    locate(document)["mt"][0]["beta"] = ["0"]
    return _write_doc(tmp_path, name, document)


@pytest.mark.parametrize("command,name,section,locate", [
    ("check-isotopy", "isotopy_extend.json", "isotopy",
     lambda doc: doc["isotopy"]),
    ("check-commuting-isotopy", "commuting_isotopy.json", "factor_isotopies.A",
     lambda doc: doc["factor_isotopies"]["A"]),
    ("extend", "isotopy_chain.json", "chain[1].isotopy",
     lambda doc: doc["chain"][1]["isotopy"]),
])
def test_malformed_isotopy_beta_is_input_error(command, name, section, locate,
                                               fixture_path, tmp_path, capsys):
    path = _isotopy_fixture_with(fixture_path, tmp_path, name, locate)
    err = _input_error(capsys, command, path)
    assert f": {section}: mt[0]: beta: beta must be a pair" in err


def _fixture_with(fixture_path, tmp_path, name, edit):
    with open(fixture_path(name), encoding="utf-8") as fh:
        document = json.load(fh)
    edit(document)
    return _write_doc(tmp_path, name, document)


@pytest.mark.parametrize("command,name,edit,message", [
    ("extend", "isotopy_extend.json",
     lambda doc: doc["extension"].update(m1="oops"),
     ": extension.m1: expected an object, got a string"),
    ("check-commuting-isotopy", "commuting_isotopy.json",
     lambda doc: doc["embeddings"]["A"]["iota"].update(xA=["xA|eB", "1"]),
     ": embeddings.A.iota.xA: expected an object, got an array"),
    ("check-commuting-isotopy", "commuting_isotopy.json",
     lambda doc: doc["embeddings"]["B"].update(source=7),
     ": embeddings.B.source: expected an object, got a number"),
    ("check-commuting-isotopy", "commuting_isotopy.json",
     lambda doc: doc.update(factor_isotopies=3),
     ": factor_isotopies: expected an object, got a number"),
    ("extend", "isotopy_chain.json",
     lambda doc: doc["chain"].append(None),
     ": chain[2]: expected an object, got null"),
])
def test_section_of_wrong_json_type_is_input_error(command, name, edit, message,
                                                   fixture_path, tmp_path,
                                                   capsys):
    path = _fixture_with(fixture_path, tmp_path, name, edit)
    assert message in _input_error(capsys, command, path)


# A JSON string is never read as an array: "7" is no polynomial [7], and
# "12" is no Novikov term [1, 2].
@pytest.mark.parametrize("command,name,edit,message", [
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"]["mt"][0].update(poly="7"),
     "isotopy: mt[0]: poly: polynomial must be an array of coefficients, "
     "got '7'"),
    ("mc-defect", "gapped_product.json",
     lambda doc: doc["bounding"]["b"].update({"eA|xB": ["12"]}),
     "bounding.b: Novikov term '12' is not an [energy, coefficient] pair"),
    ("mc-defect", "gapped_product.json",
     lambda doc: doc["bounding"]["b"].update({"eA|xB": "12"}),
     "bounding.b: Novikov element must be an array of [energy, coefficient] "
     "pairs, got '12'"),
])
def test_string_read_as_array_is_input_error(command, name, edit, message,
                                             fixture_path, tmp_path, capsys):
    path = _fixture_with(fixture_path, tmp_path, name, edit)
    err = _input_error(capsys, command, path)
    assert err.rstrip().endswith(f"{name}: {message}")


@pytest.mark.parametrize("command", ["box-product", "check-hf-kunneth"])
def test_unknown_name_in_factor_bounding_is_input_error(command, fixture_path,
                                                        tmp_path, capsys):
    path = _fixture_with(fixture_path, tmp_path, "gapped_product.json",
                         lambda doc: doc["bounding"]["b1"].update(
                             nope=[["1", "1"]]))
    err = _input_error(capsys, command, path)
    assert err.rstrip().endswith(
        "gapped_product.json: bounding.b1: unknown basis name 'nope'")


def _curved_line_doc(tmp_path, rewrite):
    """A check-ainf document on golden curved_line(1/2), rewritten in place."""
    doc = curved_line(Fraction(1, 2)).to_json()
    rewrite(doc)
    path = tmp_path / "curved.json"
    path.write_text(json.dumps({"format": "ainfctl/1", "algebra": doc}))
    return str(path)


def test_string_where_an_array_is_required_is_input_error(tmp_path, capsys):
    assert main(["check-ainf", _curved_line_doc(tmp_path, lambda d: None)]) == 0
    capsys.readouterr()

    def inputs_as_string(doc):
        for entry in doc["ops"]:
            if entry["inputs"] == ["e", "e"]:
                entry["inputs"] = "ee"

    err = _input_error(capsys, "check-ainf",
                       _curved_line_doc(tmp_path, inputs_as_string))
    assert "curved.json: algebra: ops[" in err
    assert "]: inputs must be an array of names, got 'ee'" in err

    def basis_entry_as_string(doc):
        doc["space"]["basis"][1] = "x1"

    err = _input_error(capsys, "check-ainf",
                       _curved_line_doc(tmp_path, basis_entry_as_string))
    assert "curved.json: algebra: basis entry 'x1' is not a [name, degree] " \
        "pair" in err

    def window_as_string(doc):
        doc["window"] = "ex"

    err = _input_error(capsys, "check-ainf",
                       _curved_line_doc(tmp_path, window_as_string))
    assert "curved.json: algebra: window must be an array of names" in err


# A window that repeats a name is refused wherever one is read: the main
# algebra, an embedding's source, the isotopy and a factor isotopy.
REPEATED_WINDOWS = [
    ("check-ainf", "derham_t1.json", ("algebra",), "algebra"),
    ("check-commuting", "kunneth_derham.json", ("embeddings", "A", "source"),
     "embeddings.A"),
    ("check-commuting-isotopy", "commuting_isotopy.json",
     ("embeddings", "B", "source"), "embeddings.B"),
    ("check-isotopy", "isotopy_extend.json", ("isotopy",), "isotopy"),
    ("check-commuting-isotopy", "commuting_isotopy.json",
     ("factor_isotopies", "A"), "factor_isotopies.A"),
]


@pytest.mark.parametrize("command,fixture,section,where", REPEATED_WINDOWS)
def test_window_that_repeats_a_name_is_input_error(
        fixture_path, tmp_path, capsys, command, fixture, section, where):
    raw = json.load(open(fixture_path(fixture)))
    doc = raw
    for key in section:
        doc = doc[key]
    window = doc.get("window", [nm for nm, _ in doc["space"]["basis"]])
    doc["window"] = window[::-1] + window[-1:]
    path = tmp_path / fixture
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, command, str(path))
    assert err.rstrip().endswith(
        f"{fixture}: {where}: window name {window[-1]!r} listed twice")


def test_isotopy_inputs_as_string_is_input_error(fixture_path, tmp_path,
                                                 capsys):
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    entry = next(e for e in raw["isotopy"]["mt"] if len(e["inputs"]) == 2)
    entry["inputs"] = "".join(entry["inputs"])
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-isotopy", str(path))
    assert "iso.json: isotopy: mt[" in err
    assert "inputs must be an array of names" in err


def test_zero_coefficient_with_unknown_output_is_input_error(tmp_path,
                                                            capsys):
    def ghost(doc):
        doc["ops"].append({"k": 1, "beta": ["0", 0], "inputs": ["x"],
                           "output": "ghost", "coeff": "0"})

    err = _input_error(capsys, "check-ainf", _curved_line_doc(tmp_path, ghost))
    assert err.rstrip().endswith(
        "curved.json: algebra: unknown output name 'ghost'")


def test_zero_isotopy_polynomial_with_unknown_output_is_input_error(
        fixture_path, tmp_path, capsys):
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    mt = raw["isotopy"]["mt"]
    mt.append(dict(mt[0], output="ghost", poly=[]))
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-isotopy", str(path))
    assert "iso.json: isotopy: m^t: unknown output name 'ghost'" in err


def _m1_entries(doc):
    return [e for e in doc["ops"] if e["k"] == 1]


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [e.update(k=1.9, beta=["0", 0.5]) for e in _m1_entries(doc)],
     "algebra: ops[{i}]: k must be an integer, got 1.9"),
    (lambda doc: [e.update(k="1") for e in _m1_entries(doc)],
     "algebra: ops[{i}]: k must be an integer, got '1'"),
    (lambda doc: [e.update(beta=["0", 0.5]) for e in _m1_entries(doc)],
     "algebra: ops[{i}]: beta: Maslov index must be an integer, got 0.5"),
    (lambda doc: doc["space"]["basis"][1].__setitem__(1, True),
     "algebra: degree of basis name 'x' must be an integer, got True"),
    (lambda doc: doc["monoid"][2].__setitem__(1, 2.0),
     "algebra: monoid Maslov index must be an integer, got 2.0"),
])
def test_non_integer_number_is_input_error(edit, message, tmp_path, capsys):
    doc = curved_line(Fraction(1, 2)).to_json()
    first_m1 = next(i for i, e in enumerate(doc["ops"]) if e["k"] == 1)
    path = _curved_line_doc(tmp_path, edit)
    err = _input_error(capsys, "check-ainf", path)
    assert f"curved.json: {message.format(i=first_m1)}" in err


def _drop(key):
    return lambda ops: ops[3].pop(key)


@pytest.mark.parametrize("edit,message", [
    *((_drop(key), f"ops[3]: missing field {key!r}")
      for key in ("k", "beta", "inputs", "output", "coeff")),
    (lambda ops: ops[3].__setitem__("output", {}),
     "ops[3]: output must be a name, got {}"),
    (lambda ops: ops[3].__setitem__("inputs", [{}]),
     "ops[3]: inputs must be an array of names, got [{}]"),
    (lambda ops: ops.__setitem__(3, [1]),
     "ops[3]: entry must be an object with fields k, beta, inputs, output "
     "and coeff, got [1]"),
    (lambda ops: ops[3].__setitem__("coeff", "x"),
     "ops[3]: coeff: Invalid literal for Fraction: 'x'"),
    (lambda ops: ops[3].__setitem__("coeff", 1.5),
     "ops[3]: coeff: cannot coerce 1.5 to an exact rational"),
    (lambda ops: ops[3].__setitem__("beta", ["0"]),
     "ops[3]: beta: beta must be a pair [energy, maslov], got ['0']"),
])
def test_malformed_op_entry_is_located_input_error(edit, message, fixture_path,
                                                   tmp_path, capsys):
    raw = json.load(open(fixture_path("derham_t1.json")))
    edit(raw["algebra"]["ops"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-ainf", str(path))
    assert err.rstrip().endswith(f"bad.json: algebra: {message}")


@pytest.mark.parametrize("ops", ["ab", {}, None])
def test_ops_that_are_no_array_are_input_error(ops, fixture_path, tmp_path,
                                               capsys):
    raw = json.load(open(fixture_path("derham_t1.json")))
    raw["algebra"]["ops"] = ops
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-ainf", str(path))
    assert err.rstrip().endswith(
        f"bad.json: algebra: ops must be an array of entries, got {ops!r}")


@pytest.mark.parametrize("edit,message", [
    (lambda iso: iso["mt"][0].pop("poly"), "mt[0]: missing field 'poly'"),
    (lambda iso: iso["mt"][1].__setitem__("output", []),
     "mt[1]: output must be a name, got []"),
    (lambda iso: iso.__setitem__("ct", {}),
     "ct must be an array of entries, got {}"),
    (lambda iso: iso["mt"][0].__setitem__("poly", {}),
     "mt[0]: poly: polynomial must be an array of coefficients, got {}"),
])
def test_malformed_isotopy_entry_is_located_input_error(
        edit, message, fixture_path, tmp_path, capsys):
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    edit(raw["isotopy"])
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-isotopy", str(path))
    assert err.rstrip().endswith(f"iso.json: isotopy: {message}")


def test_non_integer_isotopy_n_is_input_error(fixture_path, tmp_path, capsys):
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    raw["isotopy"]["n"] = 1.5
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-isotopy", str(path))
    assert "iso.json: isotopy: n must be an integer, got 1.5" in err


@pytest.mark.parametrize("window,message", [
    (["e", "ghost"], "window name 'ghost' not in basis"),
    ("ex", "window must be an array of names"),
])
def test_isotopy_window_is_checked(window, message, fixture_path, tmp_path,
                                   capsys):
    """The window is the scope of the m^t relation and the differential
    equation, so it must name basis elements, also without an algebra to
    compare the endpoint with."""
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    raw["isotopy"]["window"] = window
    for keep_algebra in (True, False):
        if not keep_algebra:
            del raw["algebra"], raw["extension"]
        path = tmp_path / "iso.json"
        path.write_text(json.dumps(raw))
        err = _input_error(capsys, "check-isotopy", str(path))
        assert f"iso.json: isotopy: {message}" in err


def test_duplicate_isotopy_basis_name_is_input_error(fixture_path, tmp_path,
                                                     capsys):
    raw = json.load(open(fixture_path("isotopy_extend.json")))
    basis = raw["isotopy"]["space"]["basis"]
    basis.append(basis[1])
    del raw["algebra"], raw["extension"]
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(raw))
    err = _input_error(capsys, "check-isotopy", str(path))
    assert "iso.json: isotopy: duplicate basis names" in err


@pytest.mark.parametrize("name,cid", [
    ("derham_t1.json", "m9:0/0:x->y"),
    ("isotopy_extend.json", "ic1:1/0:x->z"),
])
def test_flip_of_a_missing_constant_is_one_plain_line(name, cid, fixture_path,
                                                      capsys):
    command = "check-isotopy" if cid.startswith("i") else "check-ainf"
    err = _input_error(capsys, command, fixture_path(name),
                       "--mutate", f"flip:{cid}")
    assert err == f"ainfctl: error: no stored constant '{cid}'\n"


@pytest.mark.parametrize("command,name,edit,where", [
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"]["ops"][0].update(coeff=True),
     "algebra: ops[0]: coeff"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"]["ops"][0].update(coeff=False),
     "algebra: ops[0]: coeff"),
    ("box-product", "gapped_product.json",
     lambda doc: doc["bounding"].update(b1={"xA": [[True, "-3"]]}),
     "bounding.b1"),
    ("box-product", "gapped_product.json",
     lambda doc: doc["bounding"].update(b1={"xA": [["1", False]]}),
     "bounding.b1"),
])
def test_json_boolean_scalar_is_input_error(command, name, edit, where,
                                            fixture_path, tmp_path, capsys):
    path = _fixture_with(fixture_path, tmp_path, name, edit)
    err = _input_error(capsys, command, path)
    assert f"{name}: {where}: cannot coerce " in err
    assert err.rstrip().endswith("to an exact rational")


# A header value of the wrong JSON shape is named as its well-typed
# counterpart is, not by the Python error it would raise.
@pytest.mark.parametrize("command,name,edit,message", [
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].update(window=[[]]),
     "algebra: window name [] not in basis"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].update(unit={}),
     "algebra: unit {} not in basis"),
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"].update(unit=["e"]),
     "isotopy: unit must exist and have degree 0"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].update(monoid=1.5),
     "algebra: monoid must be an array of [energy, maslov] generators, "
     "got 1.5"),
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"]["monoid"].append(2),
     "isotopy: monoid must be an array of [energy, maslov] generators, "
     "got [['1', 0], ['1', 2], 2]"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].update(space=1.5),
     "algebra: space must be an object with a basis, got 1.5"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"]["space"].update(basis=None),
     "algebra: basis must be an array of [name, degree] pairs, got None"),
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"]["space"].update(basis=3),
     "isotopy: basis must be an array of [name, degree] pairs, got 3"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].pop("space"),
     "algebra: missing field 'space'"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].pop("monoid"),
     "algebra: missing field 'monoid'"),
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"].pop("n"),
     "isotopy: missing field 'n'"),
    ("check-subalgebra", "kunneth_derham.json",
     lambda doc: doc["embeddings"]["A"].pop("source"),
     "embeddings.A: missing field 'source'"),
    ("check-ainf", "derham_t1.json",
     lambda doc: doc["algebra"].update(cutoff="x"),
     "algebra: cutoff: Invalid literal for Fraction: 'x'"),
    ("check-isotopy", "isotopy_extend.json",
     lambda doc: doc["isotopy"].update(cutoff="1/0"),
     "isotopy: cutoff: zero denominator in '1/0'"),
    ("check-subalgebra", "kunneth_derham.json",
     lambda doc: doc["algebra"].update(monoid=[["x", 0]]),
     "algebra: monoid: Invalid literal for Fraction: 'x'"),
    ("check-subalgebra", "kunneth_derham.json",
     lambda doc: doc["embeddings"]["A"]["iota"]["f-1;d"].update(
         {"f-1_0;d": "y"}),
     "embeddings.A: iota.f-1;d.f-1_0;d: Invalid literal for Fraction: 'y'"),
])
def test_header_of_the_wrong_shape_is_located_input_error(
        command, name, edit, message, fixture_path, tmp_path, capsys):
    path = _fixture_with(fixture_path, tmp_path, name, edit)
    err = _input_error(capsys, command, path)
    assert err == f"ainfctl: error: {path}: {message}\n"


# -- structural fuzz ---------------------------------------------------------------
# Replace or drop one value of a bundled fixture and run one command on it:
# the exit-code contract holds for every input.  Derandomized, so that every
# run checks the same 300 edits.

FUZZ_COMMANDS = {
    "derham_t1.json": ["check-ainf", "check-unit"],
    "barcode_simple.json": ["cohomology", "hf", "barcode"],
    "kunneth_minimal.json": ["check-commuting", "check-subalgebra",
                             "check-kunneth"],
    "gapped_product.json": ["mc-defect", "box-product", "check-hf-kunneth"],
    "isotopy_extend.json": ["check-isotopy", "extend"],
    "isotopy_chain.json": ["check-isotopy", "extend"],
    "commuting_isotopy.json": ["check-commuting-isotopy"],
}
FUZZ_VALUES = [None, [], {}, "x", 1.5, True, -1, 0, "1/0", {"a": 1}, [[1]],
               "-3", 10 ** 6]


@pytest.fixture(scope="module")
def fuzz_docs():
    docs = {}
    for name in FUZZ_COMMANDS:
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_structural_edit_keeps_the_exit_code_contract(fuzz_docs, fuzz_dir,
                                                      data):
    name = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    command = data.draw(st.sampled_from(FUZZ_COMMANDS[name]))
    doc = copy.deepcopy(fuzz_docs[name])
    # Walk down from the top, one level at least, stopping at a drawn depth.
    parent, node = None, doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.booleans())):
        parent = node
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    path = fuzz_dir / name
    path.write_text(json.dumps(doc))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ainfctl: error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
    assert "unhashable type" not in err.getvalue()
    assert "cannot unpack" not in err.getvalue()
