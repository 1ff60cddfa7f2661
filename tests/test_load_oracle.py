"""The document load against the load it replaced.

`AInfAlgebra.from_json` and the family loop of `Pseudoisotopy.from_json`
share one entry-table parser that reads each distinct raw scalar and beta
once, and `AInfAlgebra.__init__` validates each (k, beta) key once and each
constant with a few dict lookups. The per-entry load before them is kept
here verbatim but for its names (`oracle_algebra`, `oracle_isotopy`). Both
must agree on every valid document (equal tables, equal `to_json` bytes) and
on every malformed one (same exception type and message).

The inputs on which they differ on purpose:

- a string where an array is required, `"inputs": "ee"` and a basis entry
  `"x1"`: the old load read them letter by letter; the new one refuses them;
- an arity, Maslov index, basis degree, monoid Maslov index or isotopy `n`
  that is not a JSON integer (`1.9`, `"2"`, `true`, `null`): the old load
  truncated or converted it with `int()`; the new one refuses it. The
  oracle reads beta and the monoid with the live `beta_from_json` and
  `EnergyMonoid.from_json`, so there the two agree; the fuzz draws only
  integer arities;
- a zero coefficient whose output is not a basis name: the old load dropped
  it unseen; the new one refuses the name. The algebra fuzz skips the
  documents whose entries for an unknown output sum to zero;
- an entry without one of its five fields, or whose output or an input is
  an array or an object: the old load raised a bare KeyError or TypeError;
  the new one raises a ValueError naming the list, the entry and the field;
- an entry whose beta or value its parser refuses: the old load raised the
  parser's error; the new one raises a ValueError with the same text after
  the list, the entry and the field (`located` turns the old outcome into
  the new one in both cases, and `shape_fault` finds the entry and the text
  independently of the live parser).

The isotopy family validator before `ainf.clean_tables` is kept as
`oracle_clean_family`, run after the live parser. It and the live load must
give equal m^t and c^t tables or refuse the same family; the live messages
start with "m^t: " or "c^t: " and follow the algebra's wording. One
difference is deliberate: a zero c^t value at beta = 0, or on inputs with
the unit, is now dropped like any zero value, where the old validator
refused the table or the input tuple before it read the values.

The shared parser reads an entry's fields in the algebra loop's order (k,
beta, inputs, output, value); the old isotopy loop parsed the polynomial
before inputs and output. An isotopy entry with two faults, one of them in
its polynomial, may therefore be refused with the other fault's message, so
the isotopy fuzz puts one fault into one entry.
"""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfkit import ainf
from ainfkit.ainf import (AInfAlgebra, assemble, basis_pairs, beta_from_json,
                          beta_norm, entry_tables)
from ainfkit.isotopy import Pseudoisotopy
from ainfkit.models import derham_model, two_factor_gapped
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, frac
from ainfkit.signs import shifted_parities
from ainfkit.specio import dump_document
from test_golden_reports import curved_line

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "ainfkit",
                        "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the replaced code, kept as the oracle ---------------------------------------

def oracle_beta_norm(beta):
    return (frac(beta[0]), int(beta[1]))


def oracle_init(basis, monoid, mode="gapped", cutoff=None, unit=None,
                ops=None, window=None):
    """AInfAlgebra.__init__ before the cheap validation pass."""
    if mode not in ("gapped", "modulo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "modulo":
        cutoff = frac(cutoff)
        if cutoff <= 0:
            raise ValueError("modulo mode needs a positive cutoff")
    elif cutoff is not None:
        raise ValueError("gapped mode takes no cutoff")
    basis = tuple((str(n), int(d)) for n, d in basis)
    names = [n for n, _ in basis]
    if len(set(names)) != len(names):
        raise ValueError("duplicate basis names")
    degrees = dict(basis)
    if unit is not None:
        if unit not in degrees:
            raise ValueError(f"unit {unit!r} not in basis")
        if degrees[unit] != 0:
            raise ValueError("unit must have degree 0")
    if window is None:
        window = tuple(names)
    else:
        window = tuple(window)
        for n in window:
            if n not in degrees:
                raise ValueError(f"window name {n!r} not in basis")
    clean_ops = {}
    for (k, beta), table in (ops or {}).items():
        k = int(k)
        beta = oracle_beta_norm(beta)
        if k < 0:
            raise ValueError("negative arity")
        if beta not in monoid:
            raise ValueError(f"beta {beta} outside the energy monoid")
        if mode == "modulo" and beta[0] > cutoff:
            raise ValueError(f"stored beta {beta} above cutoff {cutoff}")
        clean_table = {}
        for inputs, combo in table.items():
            inputs = tuple(inputs)
            if len(inputs) != k:
                raise ValueError(f"arity mismatch in inputs {inputs}")
            for nm in inputs:
                if nm not in degrees:
                    raise ValueError(f"unknown basis name {nm!r}")
            target = sum(degrees[nm] for nm in inputs) + 2 - k - beta[1]
            clean_combo = {}
            for out, coeff in combo.items():
                coeff = frac(coeff)
                if coeff == 0:
                    continue
                if out not in degrees:
                    raise ValueError(f"unknown output name {out!r}")
                if degrees[out] != target:
                    raise ValueError(
                        f"degree violation at m_{k},{beta}{inputs} -> {out}: "
                        f"expected degree {target}, got {degrees[out]}"
                    )
                clean_combo[out] = coeff
            if clean_combo:
                clean_table[inputs] = clean_combo
        if clean_table:
            if (k, beta) == (0, BETA_ZERO):
                raise ValueError("m_{0,0} must vanish")
            clean_ops[(k, beta)] = clean_table
    self = object.__new__(AInfAlgebra)
    object.__setattr__(self, "basis", basis)
    object.__setattr__(self, "monoid", monoid)
    object.__setattr__(self, "mode", mode)
    object.__setattr__(self, "cutoff", cutoff)
    object.__setattr__(self, "unit", unit)
    object.__setattr__(self, "ops", clean_ops)
    object.__setattr__(self, "window", window)
    object.__setattr__(self, "_degrees", degrees)
    object.__setattr__(self, "_names", tuple(names))
    object.__setattr__(self, "_parity", shifted_parities(degrees))
    return self


def oracle_algebra(doc):
    """AInfAlgebra.from_json before the memoized parser."""
    ops = {}
    for entry in doc.get("ops", []):
        key = (int(entry["k"]), beta_from_json(entry["beta"]))
        table = ops.setdefault(key, {})
        combo = table.setdefault(tuple(entry["inputs"]), {})
        out, coeff = entry["output"], frac(entry["coeff"])
        combo[out] = combo[out] + coeff if out in combo else coeff
    return oracle_init(
        basis=doc["space"]["basis"],
        monoid=EnergyMonoid.from_json(doc["monoid"]),
        mode=doc.get("mode", "gapped"),
        cutoff=frac(doc["cutoff"]) if "cutoff" in doc else None,
        unit=doc.get("unit"),
        ops=ops,
        window=tuple(doc["window"]) if "window" in doc else None,
    )


def oracle_isotopy(doc):
    """Pseudoisotopy.from_json before the shared entry-table parser."""
    def fam(entries):
        tables = {}
        for e in entries:
            key = (int(e["k"]), beta_from_json(e["beta"]))
            tables.setdefault(key, {}).setdefault(
                tuple(e["inputs"]), {})[e["output"]] = Poly.from_json(e["poly"])
        return tables

    return Pseudoisotopy(
        n=doc["n"],
        basis=doc["space"]["basis"],
        monoid=EnergyMonoid.from_json(doc["monoid"]),
        cutoff=frac(doc["cutoff"]),
        unit=doc.get("unit"),
        mT=fam(doc.get("mt", [])),
        cT=fam(doc.get("ct", [])),
        window=tuple(doc["window"]) if "window" in doc else None,
    )


def oracle_clean_family(name, basis_degrees, monoid, cutoff, tables,
                        degree_drop, unit=None, forbid_beta_zero=False,
                        t_independent_beta_zero=False):
    """The isotopy family validator before `ainf.clean_tables`."""
    clean = {}
    for (k, beta), table in (tables or {}).items():
        k = int(k)
        beta = beta_norm(beta)
        if k < 0:
            raise ValueError("negative arity")
        if beta not in monoid:
            raise ValueError(f"{name}: beta {beta} outside the energy monoid")
        if beta[0] > cutoff:
            raise ValueError(f"{name}: beta {beta} above cutoff {cutoff}")
        if forbid_beta_zero and beta == BETA_ZERO:
            raise ValueError(f"{name} must vanish at beta = 0")
        clean_table = {}
        for inputs, combo in table.items():
            inputs = tuple(inputs)
            if len(inputs) != k:
                raise ValueError(f"{name}: arity mismatch in {inputs}")
            for nm in inputs:
                if nm not in basis_degrees:
                    raise ValueError(f"{name}: unknown basis name {nm!r}")
            if unit is not None and unit in inputs:
                raise ValueError(f"{name} may not take the unit as input")
            target = sum(basis_degrees[nm] for nm in inputs) \
                + degree_drop - k - beta[1]
            clean_combo = {}
            for out, poly in combo.items():
                if not isinstance(poly, Poly):
                    poly = Poly.const(poly)
                if out not in basis_degrees:
                    raise ValueError(f"{name}: unknown output name {out!r}")
                if poly.is_zero():
                    continue
                if basis_degrees[out] != target:
                    raise ValueError(
                        f"{name}: degree violation at ({k}, {beta}){inputs} -> {out}"
                    )
                if t_independent_beta_zero and beta == BETA_ZERO \
                        and poly.degree() > 0:
                    raise ValueError(f"{name} must be t-independent at beta = 0")
                clean_combo[out] = poly
            if clean_combo:
                clean_table[inputs] = clean_combo
        if clean_table:
            if (k, beta) == (0, BETA_ZERO):
                raise ValueError(f"{name}_0 at beta = 0 must vanish")
            clean[(k, beta)] = clean_table
    return clean


def oracle_families(doc):
    """(m^t, c^t) of an isotopy document as `oracle_clean_family` cleans
    them after the live parser, or ("refused", family) when it refuses one
    of them with a ValueError."""
    monoid = EnergyMonoid.from_json(doc["monoid"])
    cutoff, unit = frac(doc["cutoff"]), doc.get("unit")
    mt, ct = (entry_tables(doc.get(f, []), "poly", Poly.from_json, f, add=False)
              for f in ("mt", "ct"))
    degrees = dict(basis_pairs(doc["space"]["basis"]))
    families = []
    for name, tables, drop, rules in (
            ("m^t", mt, 2, {"t_independent_beta_zero": True}),
            ("c^t", ct, 1, {"unit": unit, "forbid_beta_zero": True})):
        try:
            families.append(oracle_clean_family(name, degrees, monoid, cutoff,
                                                tables, drop, **rules))
        except ValueError:
            return "refused", name
    return tuple(families)


# -- comparison ------------------------------------------------------------------

def outcome(load, doc):
    """What loading doc gives: the object's tables and canonical bytes, or
    the exception's type and message."""
    try:
        obj = load(doc)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if isinstance(obj, AInfAlgebra):
        tables = (obj.ops,)
        for (k, beta), table in obj.ops.items():
            assert type(k) is int and type(beta) is tuple
            assert type(beta[0]) is Fraction and type(beta[1]) is int
            for inputs, combo in table.items():
                assert type(inputs) is tuple
                assert all(type(c) is Fraction for c in combo.values())
    else:
        tables = (obj.mT, obj.cT)
    return tables, obj.basis, obj.window, dump_document(obj.to_json())


def failed(got):
    """Whether an outcome is an exception's (type, message)."""
    return isinstance(got[0], type)


def shape_fault(doc, families):
    """The located message of the first fault of doc's op lists, read in
    the live parser's order: a missing field, a name that cannot be a key,
    or a beta or value that its parser refuses; None when there is none."""
    for family, field in families:
        parsers = {"beta": beta_from_json,
                   field: frac if field == "coeff" else Poly.from_json}
        for i, e in enumerate(doc.get(family, [])):
            for key in ("k", "beta", "inputs", "output", field):
                if key not in e:
                    return f"{family}[{i}]: missing field {key!r}"
                if key == "inputs" and any(isinstance(nm, (list, dict))
                                           for nm in e["inputs"]):
                    return (f"{family}[{i}]: inputs must be an array of "
                            f"names, got {e['inputs']!r}")
                try:
                    parsers.get(key, str)(e[key])
                except Exception as exc:  # noqa: BLE001 - a scalar's fault
                    return f"{family}[{i}]: {key}: {exc}"
            if isinstance(e["output"], (list, dict)):
                return (f"{family}[{i}]: output must be a name, "
                        f"got {e['output']!r}")
    return None


def located(expected, doc, families):
    """The oracle's outcome, its error at a malformed entry (a bare KeyError
    or TypeError, or a scalar parser's own error) replaced by the located
    ValueError that the live load raises."""
    if failed(expected) and expected[0] in (KeyError, TypeError, ValueError,
                                            ZeroDivisionError):
        fault = shape_fault(doc, families)
        if fault is not None:
            return ValueError, fault
    return expected


def assert_algebra_loads_agree(doc):
    got = outcome(AInfAlgebra.from_json, doc)
    assert got == located(outcome(oracle_algebra, doc), doc,
                          [("ops", "coeff")])
    return got


def assert_isotopy_loads_agree(doc):
    got = outcome(Pseudoisotopy.from_json, doc)
    assert got == located(outcome(oracle_isotopy, doc), doc,
                          [("mt", "poly"), ("ct", "poly")])
    return got


def live_families(doc):
    """(m^t, c^t) of the live load, or ("refused", family) when it refuses
    one family with a ValueError whose message starts with "m^t: " or
    "c^t: "."""
    try:
        P = Pseudoisotopy.from_json(doc)
    except ValueError as exc:
        if str(exc).startswith(("m^t: ", "c^t: ")):
            return "refused", str(exc)[:3]
        raise
    return P.mT, P.cT


def assert_isotopy_validators_agree(doc):
    """Equal tables, or the same family refused; an error of the parser or
    the header is the same exception in both."""
    try:
        want = oracle_families(doc)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        with pytest.raises(type(exc)) as got:
            live_families(doc)
        assert str(got.value) == str(exc)
        return None
    assert live_families(doc) == want
    return want


# -- valid documents -------------------------------------------------------------

FIXTURE_NAMES = sorted(name[:-5] for name in os.listdir(FIXTURES)
                       if name.endswith(".json"))


def document_sections(raw):
    """Every algebra and isotopy section of a document: (kind, section)."""
    if "algebra" in raw:
        yield "algebra", raw["algebra"]
    for emb in raw.get("embeddings", {}).values():
        yield "algebra", emb["source"]
    if "extension" in raw:
        yield "algebra", raw["extension"]["m1"]
    for step in raw.get("chain", []):
        yield "algebra", step["m"]
        yield "isotopy", step["isotopy"]
    if "isotopy" in raw:
        yield "isotopy", raw["isotopy"]
    for iso in raw.get("factor_isotopies", {}).values():
        yield "isotopy", iso


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_sections_load_as_before(name):
    kinds = []
    for kind, section in document_sections(fixture(name)):
        check = assert_algebra_loads_agree if kind == "algebra" \
            else assert_isotopy_loads_agree
        assert not failed(check(section))
        kinds.append(kind)
    assert "algebra" in kinds


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_isotopies_meet_the_family_validator_oracle(name):
    for kind, section in document_sections(fixture(name)):
        if kind == "isotopy":
            got = assert_isotopy_validators_agree(section)
            assert got[0] != "refused" and any(got)


def test_generated_models_load_as_before():
    docs = [derham_model(1, w).to_json() for w in (1, 2, 4, 8)]
    docs += [curved_line(Fraction(c)).to_json() for c in ("1/4", "3/8", "1/2")]
    two = two_factor_gapped()
    docs += [two[side].to_json() for side in ("A", "B", "C")]
    gapped = AInfAlgebra.from_json(fixture("gapped_product")["algebra"])
    docs += [assemble(gapped, c).to_json() for c in (2, 4, 6, 8)]
    for doc in docs:
        assert not failed(assert_algebra_loads_agree(doc))


# -- malformed documents ---------------------------------------------------------

ALGEBRA_BASES = [fixture(name)["algebra"] for name in
                 ("derham_t1", "gapped_product", "isotopy_extend",
                  "commuting_isotopy")]

BAD_SCALARS = [1, 0, -2, 1.0, 0.5, True, False, None, [1], {"p": 1}, "1/0",
               " 1", "1.5", "", "x", "0", "-0/3", "2/4"]

BAD_BETAS = [["0", 0], [0, 0], ["0"], ["0", 0, 0], "00", {"a": 1, "b": 2},
             [0.0, 0], ["0", 0.0], ["0", 1.5], ["0", "2"], ["0", True],
             [None, 0], [["0"], 0], ["1", 2], ["1/2", 0], ["1/0", 0],
             ["-1", 0], ["100", 0], ["1", 1]]


def mutation(base):
    """One change to one entry of an op list: a retyped coefficient or k, a
    reshaped beta, an unknown name, a degree violation, or a duplicate entry
    whose coefficient cancels or repeats the original."""
    names = [nm for nm, _ in base["space"]["basis"]]
    index = st.integers(0, len(base["ops"]) - 1)
    return st.one_of(
        st.tuples(st.just("coeff"), index, st.sampled_from(BAD_SCALARS)),
        st.tuples(st.just("beta"), index, st.sampled_from(BAD_BETAS)),
        st.tuples(st.just("k"), index, st.sampled_from([-1, 0, 1, 3])),
        st.tuples(st.just("output"), index,
                  st.sampled_from(names + ["ghost", 7, None])),
        st.tuples(st.just("input"), index,
                  st.sampled_from(names + ["ghost", 7, None, ["x"]])),
        st.tuples(st.just("drop"), index,
                  st.sampled_from(["k", "beta", "inputs", "output", "coeff"])),
        st.tuples(st.just("duplicate"), index,
                  st.sampled_from(["cancel", "repeat", "1.0", "True"])),
    )


def apply_mutations(base, changes):
    doc = json.loads(json.dumps(base))
    ops = doc["ops"]
    for kind, i, value in changes:
        entry = ops[i]
        if kind in ("coeff", "beta", "k", "output"):
            entry[kind] = value
        elif kind == "input":
            inputs = entry.get("inputs") or [None]
            entry["inputs"] = inputs[1:] + [value]
        elif kind == "drop":
            entry.pop(value, None)
        else:
            twin = dict(entry)
            coeff = entry.get("coeff")
            twin["coeff"] = {"cancel": f"-{coeff}" if isinstance(coeff, str)
                             and not coeff.startswith("-") else coeff,
                             "repeat": coeff, "1.0": 1.0,
                             "True": True}[value]
            ops.append(twin)
    return doc


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(range(len(ALGEBRA_BASES))).flatmap(
    lambda b: st.tuples(st.just(b), st.lists(
        mutation(ALGEBRA_BASES[b]), min_size=1, max_size=3))))
def test_malformed_algebras_fail_as_before(case):
    base, changes = case
    doc = apply_mutations(ALGEBRA_BASES[base], changes)
    assume(not zero_sum_to_unknown_output(doc))
    assert_algebra_loads_agree(doc)


def zero_sum_to_unknown_output(doc):
    """Whether the entries of some (k, beta, inputs, output) whose output is
    not a basis name have coefficients that sum to zero."""
    names = {entry[0] for entry in doc["space"]["basis"]}
    sums = {}
    for entry in doc["ops"]:
        try:
            if entry["output"] in names:
                continue
            key = (entry["k"], beta_from_json(entry["beta"]),
                   tuple(entry["inputs"]), entry["output"])
            sums[key] = sums.get(key, 0) + frac(entry["coeff"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            continue  # an entry that cannot load
    return 0 in sums.values()


ISOTOPY_BASES = [fixture(name)["isotopy"] for name in
                 ("isotopy_extend", "commuting_isotopy")]

BAD_POLYS = [["1"], [], ["0", "1"], "1", 1, None, [1.0], [True], ["1/0"],
             [[1]], {"a": "1"}]


def malformed_isotopy(base, family, data):
    """One fault in one entry of a family of a fixture isotopy, or None when
    the family is empty."""
    doc = json.loads(json.dumps(ISOTOPY_BASES[base]))
    entries = doc[family]
    if not entries:
        return None
    names = [nm for nm, _ in doc["space"]["basis"]]
    i = data.draw(st.integers(0, len(entries) - 1))
    kind = data.draw(st.sampled_from(["poly", "beta", "k", "output", "input",
                                      "duplicate"]))
    entry = entries[i]
    if kind == "poly":
        entry["poly"] = data.draw(st.sampled_from(BAD_POLYS))
    elif kind == "beta":
        entry["beta"] = data.draw(st.sampled_from(BAD_BETAS))
    elif kind == "k":
        entry["k"] = data.draw(st.sampled_from([-1, 0, 3]))
    elif kind == "output":
        entry["output"] = data.draw(st.sampled_from(names + ["ghost"]))
    elif kind == "input":
        entry["inputs"] = entry["inputs"][1:] + [
            data.draw(st.sampled_from(names + ["ghost"]))]
    else:
        entries.append(dict(entry, poly=data.draw(st.sampled_from(BAD_POLYS))))
    return doc


malformed_isotopies = given(st.sampled_from(range(len(ISOTOPY_BASES))),
                            st.sampled_from(["mt", "ct"]), st.data())


@settings(max_examples=100, deadline=None)
@malformed_isotopies
def test_malformed_isotopies_fail_as_before(base, family, data):
    doc = malformed_isotopy(base, family, data)
    if doc is not None:
        assert_isotopy_loads_agree(doc)


@settings(max_examples=100, deadline=None)
@malformed_isotopies
def test_malformed_isotopies_meet_the_family_validator_oracle(base, family,
                                                              data):
    doc = malformed_isotopy(base, family, data)
    if doc is not None:
        assert_isotopy_validators_agree(doc)


# -- cases that share a memo entry -----------------------------------------------

def two_entry_doc(first, second):
    """curved_line's m_{1,0}(x) -> z stored as two entries: one with the
    coefficient and beta of `first`, one with those of `second`."""
    doc = curved_line(Fraction(1, 2)).to_json()
    doc["ops"] = [e for e in doc["ops"] if e["k"] != 1]
    for n, (coeff, beta) in enumerate((first, second)):
        doc["ops"].append({"k": 2 - n, "beta": beta,
                           "inputs": ["x"] if n else ["e", "x"],
                           "output": "z" if n else "x", "coeff": coeff})
    return doc


@pytest.mark.parametrize("first, second, fails", [
    ((1, ["0", 0]), (1.0, ["0", 0]), True),
    ((1, ["0", 0]), (True, ["0", 0]), True),
    ((True, ["0", 0]), (1, ["0", 0]), True),
    (("1", ["0", 0]), (1, ["0", 0]), False),
    (("1", ["0", 0]), ("1", [0.0, 0]), True),
    (("1", [0, 0]), ("1", ["0", 0]), False),
    (("1", ["0", 0]), ("1", ["0", 0.0]), True),
    (("1", ["0", 0]), ("1", ["0", True]), True),
])
def test_memo_keys_keep_types_apart(first, second, fails):
    got = assert_algebra_loads_agree(two_entry_doc(first, second))
    assert failed(got) == fails


# -- the deliberate differences --------------------------------------------------

def test_string_inputs_and_basis_entries_are_refused():
    doc = curved_line(Fraction(1, 2)).to_json()
    for entry in doc["ops"]:
        if entry["inputs"] == ["e", "e"]:
            entry["inputs"] = "ee"
    assert not failed(outcome(oracle_algebra, doc))
    with pytest.raises(ValueError, match=r"inputs must be an array"):
        AInfAlgebra.from_json(doc)

    doc = curved_line(Fraction(1, 2)).to_json()
    doc["space"]["basis"] = [["e", 0], "x1", ["z", 2]]
    assert not failed(outcome(oracle_algebra, doc))
    with pytest.raises(ValueError, match=r"basis entry 'x1' is not"):
        AInfAlgebra.from_json(doc)

    iso = fixture("isotopy_extend")["isotopy"]
    iso["mt"][0]["inputs"] = "".join(iso["mt"][0]["inputs"]) or "e"
    with pytest.raises(ValueError, match=r"inputs must be an array"):
        Pseudoisotopy.from_json(iso)


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True, None])
def test_non_integer_arity_is_refused(value):
    doc = curved_line(Fraction(1, 2)).to_json()
    i = next(i for i, e in enumerate(doc["ops"]) if e["k"] == 1)
    doc["ops"][i]["k"] = value
    if value is not None:
        assert not failed(outcome(oracle_algebra, doc))
    with pytest.raises(ValueError,
                       match=rf"^ops\[{i}\]: k must be an integer, got "):
        AInfAlgebra.from_json(doc)


@pytest.mark.parametrize("value", [0.5, 0.0, "0", False])
def test_non_integer_numbers_are_refused(value):
    def refused(edit, load, message):
        doc = curved_line(Fraction(1, 2)).to_json()
        edit(doc)
        with pytest.raises(ValueError, match=rf"^{message} must be an integer"):
            load(doc)

    def beta(doc):
        for e in doc["ops"]:
            if e["beta"] == ["0", 0]:
                e["beta"] = ["0", value]

    refused(beta, AInfAlgebra.from_json, r"ops\[\d+\]: beta: Maslov index")
    refused(lambda doc: doc["space"]["basis"][0].__setitem__(1, value),
            AInfAlgebra.from_json, "degree of basis name 'e'")
    refused(lambda doc: doc["monoid"][0].__setitem__(1, value),
            AInfAlgebra.from_json, "monoid Maslov index")

    iso = fixture("isotopy_extend")["isotopy"]
    iso["n"] = value
    assert not failed(outcome(oracle_isotopy, iso))
    with pytest.raises(ValueError, match="^n must be an integer"):
        Pseudoisotopy.from_json(iso)


def test_zero_coefficient_with_unknown_output_is_refused():
    doc = curved_line(Fraction(1, 2)).to_json()
    doc["ops"].append({"k": 1, "beta": ["0", 0], "inputs": ["x"],
                       "output": "ghost", "coeff": "0"})
    assert zero_sum_to_unknown_output(doc)
    assert not failed(outcome(oracle_algebra, doc))
    with pytest.raises(ValueError, match="^unknown output name 'ghost'$"):
        AInfAlgebra.from_json(doc)

    # The isotopy oracle validates with the live constructor, so only the
    # new load is asked.
    iso = fixture("isotopy_extend")["isotopy"]
    iso["mt"].append(dict(iso["mt"][0], output="ghost", poly=[]))
    with pytest.raises(ValueError,
                       match=r"^m\^t: unknown output name 'ghost'$"):
        Pseudoisotopy.from_json(iso)


def test_zero_correction_at_beta_zero_or_on_the_unit_is_dropped():
    """The old validator refused a c^t table at beta = 0 and a c^t input
    tuple with the unit before it looked at the values; a zero value there is
    now dropped like any zero value, and the family rules see nothing."""
    iso = fixture("isotopy_extend")["isotopy"]
    want = live_families(iso)
    for beta, inputs in ((["0", 0], ["x"]), (["1", 0], ["e"])):
        doc = dict(iso, ct=iso["ct"] + [{"k": 1, "beta": beta, "inputs": inputs,
                                          "output": "x", "poly": []}])
        assert oracle_families(doc) == ("refused", "c^t")
        assert live_families(doc) == want
        doc["ct"][-1]["poly"] = ["1"]
        assert live_families(doc) == ("refused", "c^t")


# -- the work a load does --------------------------------------------------------

def test_load_parses_each_distinct_raw_value_once(monkeypatch):
    doc = fixture("derham_t2")["algebra"]
    calls = {"frac": 0, "beta": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(ainf, "frac", counted("frac", ainf.frac))
    monkeypatch.setattr(ainf, "beta_from_json",
                        counted("beta", ainf.beta_from_json))
    alg = AInfAlgebra.from_json(doc)
    assert sum(len(c) for t in alg.ops.values() for c in t.values()) > 2000
    raw_scalars = {(type(e["coeff"]), e["coeff"]) for e in doc["ops"]}
    raw_scalars |= {(type(e["beta"][0]), e["beta"][0]) for e in doc["ops"]}
    raw_betas = {json.dumps(e["beta"]) for e in doc["ops"]}
    header = int("cutoff" in doc)
    assert calls["frac"] <= len(raw_scalars) + header
    assert calls["beta"] <= len(raw_betas)
