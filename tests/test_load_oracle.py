"""The document load against the loads it replaced.

`AInfAlgebra.from_json` and `Pseudoisotopy.from_json` read the header first
and then validate every entry as `entry_tables` inserts it, in one pass. The
two-pass load before it (`entry_tables` parsed every entry before the header
was read, and the constructor's `clean_tables` validated every entry again
and copied each table) is kept here verbatim but for its names
(`two_pass_algebra`, `two_pass_isotopy`). Both must give equal tables, in
equal insertion order, with equal `to_json` bytes on every valid document,
and refuse every malformed one, with the same message wherever the document
has one fault.

A document with two faults may now be refused for the other one. The
classes, each pinned by a test below:

- a fault of the header and a fault of an entry: the header's is named;
- a fault of a rule (arity, monoid, cutoff, a name, the degree rule,
  m_{0,0}) and a parse fault of a later entry: the rule's is named;
- faults of two rules: the entry named first is the first in the document,
  not the first of the tables' order; a wrong degree is named after every
  other fault of an entry, since entries that sum to zero may cancel it,
  and m_{0,0} after every wrong degree;
- for an isotopy, the window is checked before the families, and an m^t
  rule before any fault of c^t.

`one_pass_order` reads this order off the two-pass load, entry by entry, and
the malformed-document fuzz holds the live load to it.

The header messages are located now: a missing `space`, `monoid`, `cutoff`
or `n`, a `space` that is no object and a `basis` that is no array are
refused by field name where the two-pass load raised a bare KeyError or
TypeError (`test_header_faults_are_named_by_field`), and a `cutoff` that its
parser refuses is named too.

The per-entry load before the memoized parser is kept as well
(`oracle_algebra`, `oracle_isotopy`), for the inputs on which it differs on
purpose from both later loads:

- a string where an array is required, `"inputs": "ee"` and a basis entry
  `"x1"`: the old load read them letter by letter; the new one refuses them;
- an arity, Maslov index, basis degree, monoid Maslov index or isotopy `n`
  that is not a JSON integer (`1.9`, `"2"`, `true`, `null`): the old load
  truncated or converted it with `int()`; the new one refuses it;
- a zero coefficient whose output is not a basis name: the old load dropped
  it unseen; the new one refuses the name.

The isotopy family validator before `ainf.clean_tables` is kept as
`oracle_clean_family`, run after the two-pass parser. It and the live load
must give equal m^t and c^t tables or refuse the same family; the live
messages start with "m^t: " or "c^t: " and follow the algebra's wording. One
difference is deliberate: a zero c^t value at beta = 0, or on inputs with
the unit, is now dropped like any zero value, where the old validator
refused the table or the input tuple before it read the values.
"""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import ainf
from ainfkit.ainf import (AInfAlgebra, _parse_once, assemble, beta_from_json,
                          beta_norm, window_names)
from ainfkit.isotopy import Pseudoisotopy
from ainfkit.models import derham_model, two_factor_gapped
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, frac, json_int
from ainfkit.signs import shifted_parities
from ainfkit.specio import dump_document
from test_golden_reports import curved_line

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "ainfkit",
                        "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the two-pass load, the oracle of the one-pass load ---------------------------

def two_pass_entry_tables(entries, field, parse, where, add=True):
    """The op tables {(k, beta): {inputs: {output: value}}} of a document's
    list of stored entries, value = parse(entry[field]), keys in the stored
    form, nothing validated beyond the parse."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{where} must be an array of entries, "
                         f"got {entries!r}")
    tables, betas, values = {}, {}, {}
    by_raw = {}  # {(k, raw beta key): table}, so no Fraction is hashed
    try:
        for i, entry in enumerate(entries):
            try:
                k = entry["k"]
            except TypeError:
                raise ValueError(f"{where}[{i}]: entry must be an object with "
                                 f"fields k, beta, inputs, output and {field}, "
                                 f"got {entry!r}") from None
            if type(k) is not int:  # json_int, without a message per entry
                raise ValueError(
                    f"{where}[{i}]: k must be an integer, got {k!r}")
            raw = entry["beta"]
            raw_key = (type(raw[0]), raw[0], type(raw[1]), raw[1]) \
                if type(raw) is list and len(raw) == 2 else (type(raw), raw)
            try:
                table = by_raw.get((k, raw_key))
            except TypeError:  # a part that cannot be a key is no scalar
                table = None
            if table is None:
                try:
                    beta = _parse_once(betas, raw_key, beta_from_json, raw)
                except (ValueError, TypeError, ZeroDivisionError) as exc:
                    raise ValueError(f"{where}[{i}]: beta: {exc}") from None
                table = by_raw[(k, raw_key)] = tables.setdefault((k, beta), {})
            inputs = entry["inputs"]
            if not isinstance(inputs, (list, tuple)):
                raise ValueError(f"{where}[{i}]: inputs must be an array of "
                                 f"names, got {inputs!r}")
            inputs = tuple(inputs)
            try:
                combo = table.get(inputs)
            except TypeError:
                raise ValueError(f"{where}[{i}]: inputs must be an array of "
                                 f"names, got {entry['inputs']!r}") from None
            if combo is None:
                combo = table[inputs] = {}
            out, raw = entry["output"], entry[field]
            try:
                value = _parse_once(values, (type(raw), raw), parse, raw)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"{where}[{i}]: {field}: {exc}") from None
            try:
                combo[out] = combo[out] + value if add and out in combo \
                    else value
            except TypeError:
                raise ValueError(f"{where}[{i}]: output must be a name, "
                                 f"got {out!r}") from None
    except KeyError as exc:  # only a missing field raises it
        raise ValueError(f"{where}[{i}]: missing field {exc}") from None
    return tables


def two_pass_basis_pairs(basis) -> tuple:
    pairs = []
    for entry in basis:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(
                f"basis entry {entry!r} is not a [name, degree] pair")
        name, degree = entry
        what = f"degree of basis name {name!r}"
        pairs.append((str(name), json_int(degree, what)))
    if len({name for name, _ in pairs}) != len(pairs):
        raise ValueError("duplicate basis names")
    return tuple(pairs)


def two_pass_clean_tables(tables, degrees, monoid, cutoff, drop, kind, coerce,
                          where):
    clean = {}
    for (k, beta), table in tables.items():
        k = int(k)
        beta = beta_norm(beta)
        if k < 0:
            raise ValueError(f"{where}negative arity")
        if beta not in monoid:
            raise ValueError(f"{where}beta {beta} outside the energy monoid")
        if cutoff is not None and beta[0] > cutoff:
            raise ValueError(f"{where}stored beta {beta} above cutoff {cutoff}")
        clean_table = {}
        for inputs, combo in table.items():
            inputs = tuple(inputs)
            if len(inputs) != k:
                raise ValueError(f"{where}arity mismatch in inputs {inputs}")
            target = drop - k - beta[1]
            for nm in inputs:
                degree = degrees.get(nm)
                if degree is None:
                    raise ValueError(f"{where}unknown basis name {nm!r}")
                target += degree
            clean_combo = {}
            for out, value in combo.items():
                if type(value) is not kind:
                    value = coerce(value)
                if not value:
                    if out not in degrees:
                        raise ValueError(f"{where}unknown output name {out!r}")
                    continue
                if degrees.get(out) != target:
                    if out not in degrees:
                        raise ValueError(f"{where}unknown output name {out!r}")
                    raise ValueError(
                        f"{where}degree violation at m_{k},{beta}{inputs} -> "
                        f"{out}: expected degree {target}, got {degrees[out]}")
                clean_combo[out] = value
            if clean_combo:
                clean_table[inputs] = clean_combo
        if clean_table:
            if (k, beta) == (0, BETA_ZERO):
                raise ValueError(f"{where}m_{{0,0}} must vanish")
            clean[(k, beta)] = clean_table
    return clean


def _built(cls, **slots):
    obj = object.__new__(cls)
    for slot, value in slots.items():
        object.__setattr__(obj, slot, value)
    return obj


def two_pass_init_algebra(basis, monoid, mode="gapped", cutoff=None,
                          unit=None, ops=None, window=None):
    if mode not in ("gapped", "modulo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "modulo":
        cutoff = frac(cutoff)
        if cutoff <= 0:
            raise ValueError("modulo mode needs a positive cutoff")
    elif cutoff is not None:
        raise ValueError("gapped mode takes no cutoff")
    basis = two_pass_basis_pairs(basis)
    names = [n for n, _ in basis]
    degrees = dict(basis)
    if unit is not None:
        if unit not in names:  # not degrees: an array is unhashable
            raise ValueError(f"unit {unit!r} not in basis")
        if degrees[unit] != 0:
            raise ValueError("unit must have degree 0")
    window = window_names(window, names)
    clean_ops = two_pass_clean_tables(ops or {}, degrees, monoid, cutoff, 2,
                                      Fraction, frac, "")
    return _built(AInfAlgebra, basis=basis, monoid=monoid, mode=mode,
                  cutoff=cutoff, unit=unit, ops=clean_ops, window=window,
                  _degrees=degrees, _names=tuple(names),
                  _parity=shifted_parities(degrees))


def two_pass_algebra(doc):
    # The entries are read before the header: a bad entry is named first.
    return two_pass_init_algebra(
        ops=two_pass_entry_tables(doc.get("ops", []), "coeff", frac, "ops"),
        basis=doc["space"]["basis"],
        monoid=EnergyMonoid.from_json(doc["monoid"]),
        mode=doc.get("mode", "gapped"),
        cutoff=frac(doc["cutoff"]) if "cutoff" in doc else None,
        unit=doc.get("unit"),
        window=doc.get("window"),
    )


def two_pass_init_isotopy(n, basis, monoid, cutoff, unit, mT, cT, window=None):
    n = int(n)
    cutoff = frac(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    basis = two_pass_basis_pairs(basis)
    names = tuple(nm for nm, _ in basis)
    degrees = dict(basis)
    if unit is not None and (unit not in names or degrees[unit] != 0):
        raise ValueError("unit must exist and have degree 0")
    mT = two_pass_clean_tables(mT or {}, degrees, monoid, cutoff, 2, Poly,
                               Poly.const, "m^t: ")
    for (_, beta), table in mT.items():
        if beta == BETA_ZERO and any(poly.degree() > 0 for combo in
                                     table.values() for poly in combo.values()):
            raise ValueError("m^t: must be t-independent at beta = 0")
    cT = two_pass_clean_tables(cT or {}, degrees, monoid, cutoff, 1, Poly,
                               Poly.const, "c^t: ")
    if any(beta == BETA_ZERO for _, beta in cT):
        raise ValueError("c^t: must vanish at beta = 0")
    if unit is not None and any(unit in inputs for table in cT.values()
                                for inputs in table):
        raise ValueError("c^t: may not take the unit as input")
    window = window_names(window, names)
    return _built(Pseudoisotopy, n=n, basis=basis, monoid=monoid,
                  cutoff=cutoff, unit=unit, mT=mT, cT=cT, _degrees=degrees,
                  _names=names, _parity=shifted_parities(degrees),
                  window=window)


def two_pass_isotopy(doc):
    return two_pass_init_isotopy(
        n=json_int(doc["n"], "n"),
        basis=doc["space"]["basis"],
        monoid=EnergyMonoid.from_json(doc["monoid"]),
        cutoff=frac(doc["cutoff"]),
        unit=doc.get("unit"),
        mT=two_pass_entry_tables(doc.get("mt", []), "poly", Poly.from_json,
                                 "mt", add=False),
        cT=two_pass_entry_tables(doc.get("ct", []), "poly", Poly.from_json,
                                 "ct", add=False),
        window=doc.get("window"),
    )


# -- the per-entry load before the memoized parser ---------------------------------

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
    them after the two-pass parser, or ("refused", family) when it refuses
    one of them with a ValueError."""
    monoid = EnergyMonoid.from_json(doc["monoid"])
    cutoff, unit = frac(doc["cutoff"]), doc.get("unit")
    mt, ct = (two_pass_entry_tables(doc.get(f, []), "poly", Poly.from_json, f,
                                    add=False)
              for f in ("mt", "ct"))
    degrees = dict(two_pass_basis_pairs(doc["space"]["basis"]))
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

def ordered(tables):
    """Op tables as nested lists, so that insertion order is compared."""
    return [(key, [(inputs, [*combo.items()]) for inputs, combo in table.items()])
            for key, table in tables.items()]


def outcome(load, doc):
    """What loading doc gives: the object's tables, in insertion order, and
    canonical bytes, or the exception's type and message."""
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
    return [*map(ordered, tables)], obj.basis, obj.window, \
        dump_document(obj.to_json())


def failed(got):
    """Whether an outcome is an exception's (type, message)."""
    return isinstance(got[0], type)


DEFERRED = ("degree violation at ", "m_{0,0} must vanish")


def one_pass_order(doc):
    """The two-pass load's outcome on an algebra document, refused for the
    fault that the one-pass load names first: a fault of the header; else
    that of the first entry which the two-pass load refuses on its own, for
    a parse fault (located at the entry's index) or for a rule of its key,
    its row or its output name; else the first wrong degree, in the order of
    the entries, of a (k, beta, inputs, output) whose entries sum to a
    nonzero value; else m_{0,0}."""
    want = outcome(two_pass_algebra, doc)
    entries = doc.get("ops")
    if not failed(want) or not isinstance(entries, list):
        return want
    header = outcome(two_pass_algebra, dict(doc, ops=[]))
    if failed(header):
        return header
    for i, entry in enumerate(entries):
        alone = outcome(two_pass_algebra, dict(doc, ops=[entry]))
        if not failed(alone):
            continue
        kind, message = alone
        if message.startswith("ops[0]: "):
            return kind, f"ops[{i}]: {message[len('ops[0]: '):]}"
        if not message.startswith(DEFERRED):
            return alone
    cells = {}  # every entry parses now
    for entry in entries:
        [(key, table)] = two_pass_entry_tables([entry], "coeff", frac,
                                               "ops").items()
        [(inputs, [out])] = table.items()
        cells.setdefault((key, inputs, out), []).append(entry)
    for cell in cells.values():
        alone = outcome(two_pass_algebra, dict(doc, ops=cell))
        if failed(alone) and alone[1].startswith(DEFERRED[0]):
            return alone
    return want


def assert_algebra_loads_agree(doc):
    got = outcome(AInfAlgebra.from_json, doc)
    assert got == one_pass_order(doc)
    return got


def assert_isotopy_loads_agree(doc):
    """Equal outcomes, for isotopies with at most one fault."""
    got = outcome(Pseudoisotopy.from_json, doc)
    assert got == outcome(two_pass_isotopy, doc)
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


# -- documents with two faults --------------------------------------------------

def refusals(doc, load=AInfAlgebra.from_json, old=two_pass_algebra):
    """The messages of the live load and of the two-pass load on doc."""
    got, want = outcome(load, doc), outcome(old, doc)
    assert failed(got) and failed(want)
    if load is AInfAlgebra.from_json:
        assert got == one_pass_order(doc)
    return got[1], want[1]


def curved_doc():
    """curved_line's entries: m_0 at two energies, m_1(x) = z (entry 2) and
    the unit products m_2 (entries 3 to 7)."""
    return curved_line(Fraction(1, 2)).to_json()


def test_a_header_fault_is_named_before_an_entry_fault():
    doc = curved_doc()
    doc["space"]["basis"][1] = ["x", 0.5]
    doc["ops"][3]["coeff"] = "x"
    assert refusals(doc) == (
        "degree of basis name 'x' must be an integer, got 0.5",
        "ops[3]: coeff: Invalid literal for Fraction: 'x'")


def test_a_rule_fault_is_named_before_a_later_parse_fault():
    doc = curved_doc()
    doc["ops"][2]["inputs"] = ["ghost"]
    doc["ops"][6]["coeff"] = "x"
    assert refusals(doc) == (
        "unknown basis name 'ghost'",
        "ops[6]: coeff: Invalid literal for Fraction: 'x'")


def test_rule_faults_are_named_in_document_order():
    """The new m_1 entry joins the m_1 table, which comes before the m_2
    table of entry 4."""
    doc = curved_doc()
    doc["ops"][4]["inputs"] = ["e", "ghost"]
    doc["ops"].append({"k": 1, "beta": ["0", 0], "inputs": ["y"],
                       "output": "z", "coeff": "1"})
    assert refusals(doc) == ("unknown basis name 'ghost'",
                             "unknown basis name 'y'")


def test_a_wrong_degree_is_named_after_the_other_rules():
    doc = curved_doc()
    doc["ops"][2]["output"] = "x"
    doc["ops"][6]["inputs"] = ["x", "ghost"]
    assert refusals(doc) == (
        "unknown basis name 'ghost'",
        "degree violation at m_1,(Fraction(0, 1), 0)('x',) -> x: "
        "expected degree 2, got 1")
    # Entries that sum to zero cancel a wrong degree in both loads.
    doc["ops"][6]["inputs"] = ["x", "e"]
    doc["ops"].append(dict(doc["ops"][2], coeff="-1"))
    assert not failed(assert_algebra_loads_agree(doc))


def test_m00_is_named_after_a_wrong_degree():
    doc = curved_doc()
    doc["ops"].insert(0, {"k": 0, "beta": ["0", 0], "inputs": [],
                          "output": "z", "coeff": "1"})
    doc["ops"][6]["output"] = "x"
    assert refusals(doc) == (
        "degree violation at m_2,(Fraction(0, 1), 0)('e', 'z') -> x: "
        "expected degree 2, got 1",
        "m_{0,0} must vanish")


def test_isotopy_window_and_m_family_come_first():
    iso = fixture("isotopy_extend")["isotopy"]
    iso["mt"][2]["inputs"] = ["ghost"]
    live = dict(load=Pseudoisotopy.from_json, old=two_pass_isotopy)
    assert refusals(dict(iso, window=["e", "ghost"]), **live) == (
        "window name 'ghost' not in basis", "m^t: unknown basis name 'ghost'")
    iso["ct"][0]["poly"] = "1"
    assert refusals(iso, **live) == (
        "m^t: unknown basis name 'ghost'",
        "ct[0]: poly: polynomial must be an array of coefficients, got '1'")


# -- header messages -------------------------------------------------------------

def header_edits():
    def drop(*path):
        def edit(doc):
            for key in path[:-1]:
                doc = doc[key]
            del doc[path[-1]]
        return edit

    def put(key, value):
        return lambda doc: doc.__setitem__(key, value)

    def basis(value):
        return lambda doc: doc["space"].__setitem__("basis", value)

    return [
        (drop("space"), "missing field 'space'"),
        (drop("space", "basis"), "missing field 'space.basis'"),
        (drop("monoid"), "missing field 'monoid'"),
        (put("space", 1.5), "space must be an object with a basis, got 1.5"),
        (put("space", ["e"]),
         "space must be an object with a basis, got ['e']"),
        (basis(None), "basis must be an array of [name, degree] pairs, "
                      "got None"),
        (basis(3), "basis must be an array of [name, degree] pairs, got 3"),
    ]


@pytest.mark.parametrize("edit, message", header_edits())
def test_header_faults_are_named_by_field(edit, message):
    """The two-pass load raised a bare KeyError or TypeError for these."""
    for doc, load, old in ((curved_doc(), AInfAlgebra.from_json,
                            two_pass_algebra),
                           (fixture("isotopy_extend")["isotopy"],
                            Pseudoisotopy.from_json, two_pass_isotopy)):
        edit(doc)
        assert outcome(load, doc) == (ValueError, message)
        assert outcome(old, doc)[0] in (KeyError, TypeError)


@pytest.mark.parametrize("key", ["n", "cutoff"])
def test_missing_isotopy_fields_are_named(key):
    iso = fixture("isotopy_extend")["isotopy"]
    del iso[key]
    assert outcome(Pseudoisotopy.from_json, iso) == (
        ValueError, f"missing field {key!r}")
    assert outcome(two_pass_isotopy, iso) == (KeyError, repr(key))


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


def test_isotopy_load_parses_each_distinct_polynomial_once(monkeypatch):
    doc = fixture("commuting_isotopy")["isotopy"]
    calls = []
    parse = Poly.from_json
    monkeypatch.setattr(Poly, "from_json",
                        staticmethod(lambda raw: calls.append(raw) or parse(raw)))
    P = Pseudoisotopy.from_json(doc)
    entries = doc["mt"] + doc["ct"]
    assert sum(len(c) for fam in (P.mT, P.cT) for t in fam.values()
               for c in t.values()) == len(entries)
    raw_polys = {json.dumps(e["poly"]) for e in entries}
    assert len(calls) == len(raw_polys) < len(entries)
