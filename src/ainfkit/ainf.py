"""Filtered A-infinity algebras with exact structure constants.

An algebra stores sparse operations m_{k,beta} on a finite graded basis,
indexed by arity k and an element beta = (E, mu) of an energy monoid.  Two
modes exist: "gapped" (finitely many beta, exact Novikov coefficients, no
truncation) and "modulo" (all data truncated at a cutoff energy E).

The quadratic relations are checked as exact identities: for every beta,
every n and every input tuple the double sum

    sum_{beta1+beta2=beta} sum_{0<=j<=n} sum_{1<=i<=n-j+1}
        (-1)^{||a_1||+...+||a_{i-1}||}
        m_{n-j+1,beta2}(a_1, ..., m_{j,beta1}(a_i, ..., a_{i+j-1}), ..., a_n)

must vanish.  Relation instances with n >= 2*maxArity are skipped: every
term then contains an operation of arity larger than maxArity, hence
vanishes identically (structural fact, not a checked approximation).  Only
a sum of two stored betas carries a term, so the scan enumerates no monoid
and the report lists those betas, the rest being structurally zero.  A
defect is the scan's own sum over the integers D*c, divided by D^2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, groupby, islice, product
from math import lcm, prod
from operator import itemgetter, mul

from ainfkit.scalars import (
    BETA_ZERO,
    EnergyMonoid,
    NovikovElement,
    frac,
    frac_str,
    json_int,
    located,
)
from ainfkit.signs import shifted_parities, sign_pow


def beta_norm(beta):
    """beta in the stored form (Fraction energy, int Maslov index)."""
    if type(beta) is tuple and len(beta) == 2 and type(beta[0]) is Fraction \
            and type(beta[1]) is int:
        return beta
    return (frac(beta[0]), int(beta[1]))


def beta_json(beta):
    return [frac_str(beta[0]), beta[1]]


def beta_from_json(data):
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"beta must be a pair [energy, maslov], got {data!r}")
    return (frac(data[0]), json_int(data[1], "Maslov index"))


def _parse_once(memo, key, parse, raw):
    """memo[key], set to parse(raw) the first time.  A raw value that cannot
    be a key is parsed every time, so its error is the parser's own."""
    try:
        hit = memo.get(key)
    except TypeError:
        return parse(raw)
    if hit is None:
        hit = memo[key] = parse(raw)
    return hit


def entry_tables(entries, field, parse, where, rules, add=True):
    """The op tables {(k, beta): {inputs: {output: value}}} of a document's
    list of stored entries, value = parse(entry[field]), validated and in the
    stored form as they are read, in one pass.

    rules = (degrees, monoid, cutoff, drop, prefix) are the rules of
    clean_tables, and each entry is checked as it is inserted: each new
    (k, beta) by check_key, each new inputs row by row_target, each output
    by name and degree.  Rules are checked once the entry has been read, so
    a malformed entry is named by its own fault first.  An output of the
    wrong degree is refused after the pass, and only if its sum is nonzero;
    zeros and the rows and tables they leave empty are dropped then, if a
    zero was met, and m_{0,0} must vanish.

    Each distinct raw beta and raw value is parsed once, a list-valued one
    (a t-polynomial) too.  The memo keys hold the type of each raw part next
    to its value, so 1, 1.0 and True never share an entry.  Entries that
    repeat (k, beta, inputs, output) are summed when add is set; otherwise
    the last one counts.  `k` must be a JSON integer and `inputs` an array,
    so that 1.9 is not truncated and a string is not read letter by letter.
    An entry that is no object, lacks a field, has a name that cannot be a
    key or a beta or value that its parser refuses is refused where it
    fails, the entry and the field named; the try blocks cost a valid entry
    nothing.
    """
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{where} must be an array of entries, "
                         f"got {entries!r}")
    degrees, monoid, cutoff, drop, prefix = rules
    tables, betas, values = {}, {}, {}
    by_raw = {}  # {(k, raw beta key): (table, beta)}, so no Fraction is hashed
    last = None  # the row of the last entry
    faults, zero = [], False  # (row, output, message) of wrong degrees

    def parsed(raw):  # a zero is seen where a value is parsed or summed
        nonlocal zero
        value = parse(raw)
        if not value:
            zero = True
        return value
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
                hit = by_raw.get((k, raw_key))
            except TypeError:  # a part that cannot be a key is no scalar
                hit = None
            new_key = False
            if hit is None:
                try:
                    beta = _parse_once(betas, raw_key, beta_from_json, raw)
                except (ValueError, TypeError, ZeroDivisionError) as exc:
                    raise ValueError(f"{where}[{i}]: beta: {exc}") from None
                table = tables.get((k, beta))
                if table is None:
                    table, new_key = tables.setdefault((k, beta), {}), True
                hit = by_raw[(k, raw_key)] = table, beta
            table, beta = hit
            inputs = entry["inputs"]
            if not isinstance(inputs, (list, tuple)):
                raise ValueError(f"{where}[{i}]: inputs must be an array of "
                                 f"names, got {inputs!r}")
            inputs = tuple(inputs)
            try:
                row = table.get(inputs)
            except TypeError:
                raise ValueError(f"{where}[{i}]: inputs must be an array of "
                                 f"names, got {entry['inputs']!r}") from None
            if row is None:
                row = table[inputs] = {}
            out, raw = entry["output"], entry[field]
            try:
                value = _parse_once(values, (tuple(map(type, raw)), tuple(raw))
                                    if type(raw) is list else (type(raw), raw),
                                    parsed, raw)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"{where}[{i}]: {field}: {exc}") from None
            try:
                if add and out in row:
                    value = row[out] + value
                    if not value:
                        zero = True
                row[out] = value
            except TypeError:
                raise ValueError(f"{where}[{i}]: output must be a name, "
                                 f"got {out!r}") from None
            if new_key:
                check_key(k, beta, monoid, cutoff, prefix)
            if row is not last:  # an entry of a new row, or of an earlier one
                target = row_target(k, beta, inputs, degrees, drop, prefix)
                last = row
            if degrees.get(out) != target:
                faults.append((row, out, degree_fault(
                    k, beta, inputs, out, target, degrees, prefix)))
    except KeyError as exc:  # only a missing field raises it
        raise ValueError(f"{where}[{i}]: missing field {exc}") from None
    for row, out, fault in faults:
        if row[out]:
            raise ValueError(fault)
    if zero:
        tables = map_tables(tables, lambda v: v)
    no_m00(tables, prefix)
    return tables


def required(doc, key, where=None):
    """doc[key] of a document object; a missing key is refused by name."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"missing field {where or key!r}") from None


def space_basis(doc):
    """The raw basis of a document's space section."""
    space = required(doc, "space")
    if not isinstance(space, dict):
        raise ValueError(f"space must be an object with a basis, got {space!r}")
    return required(space, "basis", "space.basis")


def basis_pairs(basis) -> tuple:
    """The basis as ((name, degree), ...); the basis must be an array of
    [name, degree] pairs, so that a string is not read letter by letter, and
    no name may repeat."""
    if not isinstance(basis, (list, tuple)):
        raise ValueError(
            f"basis must be an array of [name, degree] pairs, got {basis!r}")
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


def window_names(window, names) -> tuple:
    """The window as a tuple of basis names, None meaning all of names; it
    must be an array, so that a string is not read letter by letter, and no
    name may repeat."""
    if window is None:
        return tuple(names)
    if not isinstance(window, (list, tuple)):
        raise ValueError("window must be an array of names")
    unseen = set(names)
    for name in window:
        if type(name) is not str or name not in unseen:
            raise ValueError(f"window name {name!r} " + (
                "listed twice" if name in names else "not in basis"))
        unseen.remove(name)
    return tuple(window)


# The rules of stored op tables, shared by clean_tables and entry_tables.
# Each message starts with a prefix that names the family.

def check_key(k, beta, monoid, cutoff, prefix):
    """A stored (k, beta): k >= 0, beta in the monoid and not above the
    cutoff (None: no cutoff)."""
    if k < 0:
        raise ValueError(f"{prefix}negative arity")
    if beta not in monoid:
        raise ValueError(f"{prefix}beta {beta} outside the energy monoid")
    if cutoff is not None and beta[0] > cutoff:
        raise ValueError(f"{prefix}stored beta {beta} above cutoff {cutoff}")


def row_target(k, beta, inputs, degrees, drop, prefix) -> int:
    """The degree sum(input degrees) + drop - k - mu of every output of a
    stored inputs row of m_{k,beta}, whose k inputs must be basis names."""
    if len(inputs) != k:
        raise ValueError(f"{prefix}arity mismatch in inputs {inputs}")
    target = drop - k - beta[1]
    for nm in inputs:
        degree = degrees.get(nm)
        if degree is None:
            raise ValueError(f"{prefix}unknown basis name {nm!r}")
        target += degree
    return target


def degree_fault(k, beta, inputs, out, target, degrees, prefix) -> str:
    """The message for an output not of the target degree; an output that
    is no basis name is refused at once, whatever its value."""
    if out not in degrees:
        raise ValueError(f"{prefix}unknown output name {out!r}")
    return (f"{prefix}degree violation at m_{k},{beta}{inputs} -> {out}: "
            f"expected degree {target}, got {degrees[out]}")


def no_m00(tables, prefix):
    """m_{0,0} of clean tables must vanish."""
    if tables.get((0, BETA_ZERO)):
        raise ValueError(f"{prefix}m_{{0,0}} must vanish")


def clean_tables(tables, rules, kind, coerce):
    """Op tables {(k, beta): {inputs: {output: value}}} built in Python,
    validated and copied into the stored form under rules = (degrees,
    monoid, cutoff, drop, prefix): beta in the monoid and not above the
    cutoff (None: no cutoff), known names, arity k inputs, every output of
    degree sum(input degrees) + drop - k - mu, values of type kind (else
    coerce them), zero values and empty tables dropped, nothing at (0, 0).
    Each message starts with prefix.  A document's entries are validated as
    they are read, by entry_tables."""
    degrees, monoid, cutoff, drop, prefix = rules
    clean = {}
    for (k, beta), table in tables.items():
        k = int(k)
        beta = beta_norm(beta)
        check_key(k, beta, monoid, cutoff, prefix)
        clean_table = {}
        for inputs, combo in table.items():
            inputs = tuple(inputs)
            target = row_target(k, beta, inputs, degrees, drop, prefix)
            clean_combo = {}
            for out, value in combo.items():
                if type(value) is not kind:
                    value = coerce(value)
                if degrees.get(out) != target:
                    fault = degree_fault(k, beta, inputs, out, target,
                                         degrees, prefix)
                    if value:
                        raise ValueError(fault)
                elif value:
                    clean_combo[out] = value
            if clean_combo:
                clean_table[inputs] = clean_combo
        if clean_table:
            clean[(k, beta)] = clean_table
    no_m00(clean, prefix)
    return clean


def map_tables(tables, f):
    """Op tables with each stored value v read as f(v); a falsy f(v) is
    dropped, and so is an inputs row or a table left empty."""
    mapped = {}
    for key, table in tables.items():
        rows = {}
        for inputs, combo in table.items():
            row = {out: w for out, v in combo.items() if (w := f(v))}
            if row:
                rows[inputs] = row
        if rows:
            mapped[key] = rows
    return mapped


def stored_values(tables):
    """Every stored value of op tables, in their order."""
    return chain.from_iterable(map(dict.values, chain.from_iterable(
        map(dict.values, tables.values()))))


def stored_entries(tables):
    """Every stored (k, beta, inputs, output, value) of op tables, in the
    canonical order: sorted by (k, beta), then inputs, then output."""
    for key in sorted(tables):
        table = tables[key]
        for inputs in sorted(table):
            combo = table[inputs]
            for out in sorted(combo):
                yield key[0], key[1], inputs, out, combo[out]


def entries_json(tables, field, write):
    """The document entries of op tables in the canonical order, each value
    written as write(value) under field and each table's energy once."""
    energy = {id(beta): frac_str(beta[0]) for _, beta in tables}
    return [{"k": k, "beta": [energy[id(beta)], beta[1]], "inputs": list(inputs),
             "output": out, field: write(value)}
            for k, beta, inputs, out, value in stored_entries(tables)]


def stored_ids(tables, family):
    """The id '<family><k>:<E>/<mu>:<inputs>-><output>' of every stored
    entry of op tables in the canonical order, each table's energy once."""
    energy = {id(beta): frac_str(beta[0]) for _, beta in tables}
    return [f"{family}{k}:{energy[id(beta)]}/{beta[1]}:{','.join(inputs)}->{out}"
            for k, beta, inputs, out, _ in stored_entries(tables)]


class AlgElement:
    """Linear combination of basis names with Novikov coefficients."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs=None, truncation=None):
        clean = {}
        for name, val in (coeffs or {}).items():
            if not isinstance(val, NovikovElement):
                val = NovikovElement.scalar(frac(val), truncation)
            if val.truncation != truncation:
                val = val.retruncate(truncation)
            if not val.is_zero():
                clean[name] = val
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, *a):
        raise AttributeError("AlgElement is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgElement") -> "AlgElement":
        if self.truncation != other.truncation:
            raise ValueError("mismatched truncations in AlgElement addition")
        out = dict(self.coeffs)
        for name, val in other.coeffs.items():
            out[name] = out[name] + val if name in out else val
        return AlgElement(out, self.truncation)

    def __neg__(self) -> "AlgElement":
        return AlgElement({n: -v for n, v in self.coeffs.items()}, self.truncation)

    def __eq__(self, other):
        return (
            isinstance(other, AlgElement)
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.truncation, tuple(sorted(
            (n, v) for n, v in self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "AlgElement(0)"
        return "AlgElement(" + " + ".join(
            f"({v!r})*{n}" for n, v in sorted(self.coeffs.items())) + ")"

    def to_json(self):
        return {n: v.to_json() for n, v in sorted(self.coeffs.items())}

    @staticmethod
    def from_json(data, truncation=None) -> "AlgElement":
        return AlgElement(
            {n: NovikovElement.from_json(v, truncation) for n, v in data.items()},
            truncation,
        )


class OpFamilies:
    """The header of stored op tables: a basis of (name, degree) pairs, an
    energy monoid, a cutoff and a unit (None: none) and a window, the names
    over which relation instances with n >= 2 inputs are enumerated (default:
    the basis).  AInfAlgebra and Pseudoisotopy add their tables and rules."""

    __slots__ = ("basis", "monoid", "cutoff", "unit", "window", "_degrees",
                 "_names", "_parity")

    def _header(self, basis, monoid, cutoff, unit, window) -> dict:
        """Validate and set the header; returns the degrees, which the rules
        of the tables read."""
        basis = basis_pairs(basis)
        names = tuple(nm for nm, _ in basis)
        degrees = dict(basis)
        if unit is not None and (unit not in names  # an array is unhashable
                                 or degrees[unit] != 0):
            raise ValueError(self.unit_fault(unit, names))
        for slot, value in zip(OpFamilies.__slots__, (
                basis, monoid, cutoff, unit, window_names(window, names),
                degrees, names, shifted_parities(degrees))):
            object.__setattr__(self, slot, value)
        return degrees

    @staticmethod
    def unit_fault(unit, names) -> str:  # for a unit not in names or not of degree 0
        return (f"unit {unit!r} not in basis" if unit not in names
                else "unit must have degree 0")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def names(self):
        return self._names

    def degree(self, name) -> int:
        return self._degrees[name]

    def header_json(self) -> dict:
        """The header fields of the document form; None is left out."""
        doc = {"space": {"basis": [[nm, d] for nm, d in self.basis]},
               "monoid": self.monoid.to_json(), "unit": self.unit,
               "cutoff": None if self.cutoff is None else frac_str(self.cutoff),
               "window": None if self.window == self._names else list(self.window)}
        return {key: value for key, value in doc.items() if value is not None}


class AInfAlgebra(OpFamilies):
    """Finite-basis filtered A-infinity algebra with sparse exact operations.

    ops: dict {(k, beta): {input-name-tuple: {output-name: Fraction}}}.
    A truncated multiplication table generally cannot close on its whole
    basis, so the window declares where the table is exact; the relation
    with a single input is always scanned over the full basis.
    """

    __slots__ = ("mode", "ops")

    def __init__(self, basis, monoid, mode="gapped", cutoff=None, unit=None,
                 ops=None, window=None):
        self._load(basis, monoid, mode, cutoff, unit, window,
                   lambda rules: clean_tables(ops or {}, rules, Fraction, frac))

    def _load(self, basis, monoid, mode, cutoff, unit, window, tables):
        """Validate and set the mode and the header, then the ops as
        tables(rules) reads them under the header's rules."""
        if mode not in ("gapped", "modulo"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "modulo":
            cutoff = frac(cutoff)
            if cutoff <= 0:
                raise ValueError("modulo mode needs a positive cutoff")
        elif cutoff is not None:
            raise ValueError("gapped mode takes no cutoff")
        degrees = self._header(basis, monoid, cutoff, unit, window)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "ops", tables((degrees, monoid, cutoff, 2, "")))

    # -- queries -------------------------------------------------------------
    @property
    def truncation(self):
        return self.cutoff if self.mode == "modulo" else None

    @property
    def top_energy(self):
        """The cutoff, or twice the largest stored energy when gapped."""
        return self.cutoff if self.mode == "modulo" else 2 * max(
            (beta[0] for _, beta in self.ops), default=Fraction(0))

    def max_arity(self) -> int:
        return max((k for k, _ in self.ops), default=0)

    def op_table(self, k, beta):
        return self.ops.get((int(k), beta_norm(beta)), {})

    def op_on_names(self, k, beta, names):
        return self.op_table(k, beta).get(tuple(names), {})

    def beta_range(self):
        """Every monoid element up to top_energy, sorted.  Nothing in
        ainfkit calls it or beta_splits; both are kept for the benchmark's
        trace targets and go when it stops tracing them (ROADMAP item 2)."""
        return self.monoid.enumerate(self.top_energy)

    def beta_splits(self, beta):
        """Every (beta1, beta2) of the monoid summing to beta; uncalled too."""
        beta = beta_norm(beta)
        if beta not in self.monoid:
            raise ValueError(f"beta {beta} outside the energy monoid")
        return [(b1, rest) for b1 in self.monoid.enumerate(beta[0])
                if (rest := (beta[0] - b1[0], beta[1] - b1[1])) in self.monoid]

    # -- serialization ---------------------------------------------------------
    def to_json(self):
        return {**self.header_json(), "mode": self.mode,
                "ops": entries_json(self.ops, "coeff", frac_str)}

    @staticmethod
    def from_json(doc) -> "AInfAlgebra":
        """The algebra of a document: the header is read and checked first,
        then every entry is validated as it is read (entry_tables)."""
        alg = object.__new__(AInfAlgebra)
        alg._load(space_basis(doc),
                  EnergyMonoid.from_json(required(doc, "monoid")),
                  doc.get("mode", "gapped"),
                  located("cutoff", frac, doc["cutoff"]) if "cutoff" in doc
                  else None,
                  doc.get("unit"), doc.get("window"),
                  lambda rules: entry_tables(doc.get("ops", []), "coeff", frac,
                                             "ops", rules))
        return alg


# -- evaluation ----------------------------------------------------------------

def eval_op(alg: AInfAlgebra, k: int, beta, inputs) -> AlgElement:
    """Multilinear extension of m_{k,beta} to Novikov-coefficient elements."""
    k = int(k)
    beta = beta_norm(beta)
    inputs = tuple(inputs)
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs, got {len(inputs)}")
    if beta not in alg.monoid:
        raise ValueError(f"beta {beta} outside the energy monoid")
    if alg.mode == "modulo" and beta[0] > alg.cutoff:
        raise ValueError(f"beta {beta} above cutoff {alg.cutoff}")
    return evaluate(alg.op_table(k, beta), inputs, alg.truncation)


def evaluate(table, inputs, truncation) -> AlgElement:
    """A stored table {names: {output: coefficient}} applied to elements."""
    columns = [inverse_index({i: inp.coeffs}) for i, inp in enumerate(inputs)]
    return AlgElement(pull_back(table, columns).get(
        tuple(range(len(inputs))), {}), truncation)


def inverse_index(images: dict) -> dict:
    """{target name: [(label, coefficient)]} over the supports of images,
    with None for a coefficient 1 (no product to form)."""
    inverse = {}
    for label, image in images.items():
        for out, c in image.items():
            inverse.setdefault(out, []).append((label, None if c == 1 else c))
    return inverse


def pull_back(table, columns) -> dict:
    """A stored table read along sparse linear maps, in one pass: columns[j]
    is the inverse index {name: [(label, coefficient, None for 1)]} of the
    map on input j.  Returns {label tuple: {output: coefficient}} where
    m(image(l_1), ..., image(l_k)) has terms.  The pass goes over the stored
    keys with every input in its column, or over the column products that
    are stored keys, whichever is fewer."""
    if prod(map(len, columns)) < len(table):
        keys = [key for key in product(*columns) if key in table]
    else:
        keys = [key for key in table if all(map(dict.__contains__, columns, key))]
    out = {}
    for key in keys:
        for picks in product(*map(dict.__getitem__, columns, key)):
            factor = None
            for _, c in picks:
                if c is not None:
                    factor = c if factor is None else factor * c
            add_into(out.setdefault(tuple(label for label, _ in picks), {}),
                     table[key], factor)
    return out


def add_into(acc: dict, vec: dict, scale=None):
    """acc += scale * vec on sparse elements; no scale means 1."""
    for out, c in vec.items():
        term = c if scale is None else scale * c
        acc[out] = acc[out] + term if out in acc else term


def linear_image(images: dict, elem: dict) -> dict:
    """The image of a sparse element under the linear map that sends each
    basis name to images[name] (a sparse element), zeros dropped."""
    acc = {}
    for nm, c in elem.items():
        add_into(acc, images[nm], c)
    return {out: v for out, v in acc.items() if v}


def differential_matrix(alg: AInfAlgebra) -> dict:
    """mu_{1,0} over the basis as {row: {column: Fraction}}, zeros absent:
    column j holds the image of basis name j."""
    idx = {nm: i for i, nm in enumerate(alg.names)}
    mat = {}
    for j, nm in enumerate(alg.names):
        for out, cf in alg.op_on_names(1, BETA_ZERO, (nm,)).items():
            mat.setdefault(idx[out], {})[j] = cf
    return mat


def insertion_plans(inner_ops, outer_ops, n_bound: int) -> dict:
    """The insertion terms of a quadratic sum at every (beta, n) with
    n <= n_bound, for any inputs, as {(beta, n): plan}: one term
    (i - 1, i - 1 + j, inner_{j,beta1}, outer_{k,beta2}) per pair of stored
    tables with beta1 + beta2 = beta and j + k - 1 = n, and slot i.  Each pair
    is visited once; a plan lists its terms in the inner tables' order, then
    by slot.  A (beta, n) without a plan is structurally zero.

    inner_ops and outer_ops are op tables {(k, beta): {inputs: {output:
    coefficient}}}; the coefficients may be integers, Fractions or
    t-polynomials.  With both the same table this is the A-infinity relation
    of that table.
    """
    outers = [(k, b_outer, table) for (k, b_outer), table in outer_ops.items()
              if k and table]
    plans = {}
    for (j, b_inner), inner_table in inner_ops.items():
        for k, b_outer, outer_table in outers:
            n = j + k - 1
            if n > n_bound:
                continue
            beta = (b_inner[0] + b_outer[0] if b_inner[0] and b_outer[0]
                    else b_inner[0] or b_outer[0], b_inner[1] + b_outer[1])
            plans.setdefault((beta, n), []).extend(
                (start, start + j, inner_table, outer_table)
                for start in range(k))
    return plans


def joined_sums(n, terms, names, index, linear=None, scale=None):
    """Quadratic sums on the tuples xi of names^n: over the (plan, parity, sign)
    of terms and the terms (i - 1, i - 1 + j, inner, outer) of each plan, sign
    (+1 or -1) times (-1)^{p(xi_1) + ... + p(xi_{i-1})} (p = parity) times
    inner[xi_i..xi_{i+j-1}][mid] * outer[xi_1..xi_{i-1}, mid, xi_{i+j}..xi_n],
    summed over mid, plus linear[xi] if a linear table is given, each c of the
    plans' tables read as scale(c) if a scale is given.  Yields, for each
    leading name in scan order, every tuple with a nonzero sum in product
    order, as (xi, {output: coefficient}), zeros dropped.  The tables are
    joined on the name at the insertion slot, so only tuples with a term are
    formed; a tuple's code has its names' positions in names as base-|names|
    digits, so product order is integer order, and a (tuple, output) sum is one
    key of a flat dict.  index, kept by the caller for its calls on the same
    tables and scale (one check, one extension), holds per scan order a number
    for each name met and, built at first use, a row (key, code, position of
    its one name outside the scan or -1, output number, scale(c), code of
    key[1:]) per stored entry whose key has at most one name outside the scan,
    and the groupings of these rows.  The rows are built in one loop over the
    stored entries, each distinct value object scaled once; the names outside
    the scan are numbered first, column by column, and a sum lists its outputs
    by number."""
    f = (lambda c: c) if scale is None else scale
    if n == 0:  # m_1(m_0) on the empty tuple, with no Koszul sign
        acc = dict(linear.get((), {})) if linear else {}
        for plan, _, sign in terms:
            for _, _, inner_table, outer_table in plan:
                for mid, c_in in inner_table.get((), {}).items():
                    add_into(acc, {o: f(c) for o, c in outer_table.get(
                        (mid,), {}).items()}, sign * f(c_in))
        if any(acc.values()):
            yield (), {o: c for o, c in acc.items() if c}
        return
    width, scan = len(names), index.setdefault(names, {})
    if not scan:  # ids numbers the scanned names by their digits
        scan[None] = (dict(zip(names, range(width))), dict(zip(names, range(width))))
    digit, ids = scan[None]

    def grouped(table, p, slot=None):
        """By the number of key[p], the rows whose one name outside the scan,
        if any, sits at slot; for p None, by output, the (code, value) of the
        rows inside it."""
        got = scan.get((id(table), p, slot))
        if got is None:
            rows = scan.get(id(table))
            if rows is None:  # one pass over the stored entries
                k = len(next(iter(table), ()))
                outside = {*chain.from_iterable(table)}.difference(digit)
                for j in range(k if outside else 0):  # before the outputs,
                    for key in table:                 # column by column
                        if key[j] in outside:
                            ids.setdefault(key[j], len(ids))
                rows = scan[id(table)] = []
                scaled, last = {}, width ** (k - 1) if k else 1
                for key, combo in table.items():
                    code, stray = 0, -1
                    for j, nm in enumerate(key):
                        at = digit.get(nm)
                        if at is None:
                            if stray >= 0:  # a key with two names outside has no row
                                break
                            at, stray = 0, j
                        code = code * width + at
                    else:
                        for out, c in combo.items():
                            v = c if scale is None else scaled.get(id(c))
                            if v is None:  # once per distinct value object
                                v = scaled[id(c)] = f(c)
                            rows.append((key, code, stray,
                                         ids.setdefault(out, len(ids)), v, code % last))
            got = scan[id(table), p, slot] = {}
            if p is None:
                for _, code, stray, out, c, _ in rows:
                    if stray < 0:
                        got.setdefault(out, []).append((code, c))
            else:
                for row in rows:
                    if row[2] < 0 or row[2] == slot:
                        got.setdefault(ids[row[0][p]], []).append(row)
        return got

    joins = []  # per insertion term, the groupings it reads
    for plan, parity, sign in terms:
        for start, stop, inner_table, outer_table in plan:
            leads = start == 0 < stop  # else the outer key, from key[1] after m_0
            tail = width ** (n - stop)  # the codes of the names after the inner key
            joins.append((sign < 0, parity, start, leads,
                          grouped(inner_table, 0 if leads else None, 0),
                          grouped(outer_table, int(start == stop == 0), start),
                          tail, width ** (stop - start) * tail))
    leading, powers = {}, [width ** e for e in range(n - 1, -1, -1)]
    for key, vec in (linear or {}).items():  # added as given
        digits = [*map(digit.get, key)]
        if None not in digits:
            leading.setdefault(digits[0], []).append((sum(map(mul, digits, powers)), [
                (ids.setdefault(out, len(ids)), c) for out, c in vec.items()]))
    numbered = [*ids]  # the names by number; a sum's key is code*size+number
    size = len(numbered)
    for lead in range(width):
        sums = {}
        for code, vec in leading.get(lead, ()):
            for out, c in vec:
                sums[code * size + out] = c
        for flip, parity, start, leads, inner, outer, tail, widen in joins:
            if leads:
                for _, code, _, mid, c_in, _ in inner.get(lead, ()):
                    head = code * tail
                    c_in = -c_in if flip else c_in
                    for _, _, _, out, c_out, rest in outer.get(mid, ()):
                        cell = (head + rest) * size + out
                        sums[cell] = sums[cell] + c_in * c_out \
                            if cell in sums else c_in * c_out
                continue
            step, odds = tail * size, {}  # the sign of each prefix met
            for key, code, _, out, c_out, _ in outer.get(lead, ()):
                mids = inner.get(ids[key[start]])
                if mids is None:
                    continue
                prefix = code // (tail * width)
                if prefix not in odds:
                    odds[prefix] = sum(map(parity.__getitem__, key[:start])) & 1 != flip
                odd, at = odds[prefix], (prefix * widen + code % tail) * size + out
                for inner_code, c_in in mids:
                    cell = at + inner_code * step
                    c = -c_in * c_out if odd else c_in * c_out
                    sums[cell] = sums[cell] + c if cell in sums else c
        live = sorted(cell for cell, c in sums.items() if c)
        for code, cells in groupby(live, lambda cell: cell // size):
            yield tuple(names[code // w % width] for w in powers), \
                {numbered[cell % size]: sums[cell] for cell in cells}


def relation_violations(plans, parity, cutoff, order, scale):
    """The A-infinity relation of an op table, scanned in order: for each
    (beta, n) of plans = insertion_plans(ops, ops, n_bound), beta not above
    the cutoff (None: no cutoff), the first tuple of order(n)^n, in product
    order, on which it fails, as (beta, n, names, {output: sum}): the scan
    joins the tables on the slot names (joined_sums), each c read as the
    integer scale(c), and yields the failing tuple's sums as the join
    computed them.  A planned beta is a sum of two stored ones and lies in
    the monoid, so no monoid is enumerated; a (beta, n) without a plan is
    structurally zero."""
    index = {}
    for beta, n in sorted(plans):
        if cutoff is not None and beta[0] > cutoff:
            continue
        for found in joined_sums(n, [(plans[beta, n], parity, 1)], order(n),
                                 index, scale=scale):
            yield beta, n, *found
            break


def ainf_defect(alg: AInfAlgebra, beta, names) -> AlgElement:
    """The quadratic-relation sum at (beta, input tuple), as an element;
    zero iff the relation holds on this instance: the join over the tuple's
    distinct names of its own entries, at each slot the inner key and the
    outer keys its outputs make."""
    beta, names = beta_norm(beta), tuple(names)
    if beta not in alg.monoid:
        raise ValueError(f"beta {beta} outside the energy monoid")
    plan = []
    for start, stop, inner_table, outer_table in insertion_plans(
            alg.ops, alg.ops, len(names)).get((beta, len(names)), ()):
        inner = inner_table.get(names[start:stop])
        if inner:
            keys = [names[:start] + (mid,) + names[stop:] for mid in inner]
            plan.append((start, stop, {names[start:stop]: inner},
                         {key: outer_table[key] for key in keys if key in outer_table}))
    sums = dict(joined_sums(len(names), [(plan, alg._parity, 1)],
                            tuple(dict.fromkeys(names)), {}))
    return AlgElement(sums.get(names), alg.truncation)


def check_ainf(alg: AInfAlgebra, max_counterexamples=None) -> dict:
    """Scan all relation instances; report the first counterexample per
    (beta, n), at most max_counterexamples of them, and the scope: the
    generators, the top energy (the cutoff, or twice the largest stored
    energy when gapped) and each planned beta up to it with its arities n.
    Every other beta up to the top has no pair of stored tables, and every
    n above relation_arity_bound no term: both are structurally zero.  The
    scan joins the stored table with itself, each c read as the integer D*c
    (D the lcm of the denominators), so a counterexample's sums are D^2
    times its defect, which is written as sum / D^2."""
    max_a = alg.max_arity()
    n_bound = max(2 * max_a - 1, 0)
    top = alg.top_energy
    plans = insertion_plans(alg.ops, alg.ops, n_bound)
    planned = groupby(sorted(key for key in plans if key[0][0] <= top), itemgetter(0))
    values = [*stored_values(alg.ops)]  # each distinct object read once
    d = lcm(*{c.denominator for c in dict(zip(map(id, values), values)).values()})
    found = relation_violations(
        plans, alg._parity, alg.cutoff,
        lambda n: alg.names if n == 1 else alg.window,
        lambda c: c.numerator * (d // c.denominator))
    counterexamples = [{
        "beta": beta_json(beta),
        "n": n,
        "inputs": list(names),
        "defect": AlgElement({o: Fraction(s, d * d) for o, s in sums.items()},
                             alg.truncation).to_json(),
    } for beta, n, names, sums in islice(found, max_counterexamples)]
    return {
        "check": "ainf",
        "status": "PASS" if not counterexamples else "FAIL",
        "max_arity": max_a,
        "relation_arity_bound": n_bound,
        "scope": {"generators": alg.monoid.to_json(),
                  "top_energy": frac_str(top),
                  "planned": [{"beta": beta_json(beta), "n": [n for _, n in keys]}
                              for beta, keys in planned]},
        "counterexamples": counterexamples,
    }


def check_unit(alg: AInfAlgebra) -> dict:
    """Verify the unit identities and the vanishing of other unit insertions."""
    if alg.unit is None:
        raise ValueError("algebra has no unit set")
    e = alg.unit
    violations = []
    for name in alg.names:
        left = alg.op_on_names(2, BETA_ZERO, (e, name))
        if left != {name: Fraction(1)}:
            violations.append({
                "clause": "left-unit", "element": name,
                "got": {o: frac_str(c) for o, c in sorted(left.items())},
            })
        right = alg.op_on_names(2, BETA_ZERO, (name, e))
        expected = {name: Fraction(sign_pow(alg.degree(name)))}
        if right != expected:
            violations.append({
                "clause": "right-unit", "element": name,
                "got": {o: frac_str(c) for o, c in sorted(right.items())},
            })
    for (k, beta) in sorted(alg.ops):
        if (k, beta) == (2, BETA_ZERO):
            continue
        for inputs in sorted(alg.ops[(k, beta)]):
            if e in inputs:
                violations.append({
                    "clause": "vanishing", "k": k, "beta": beta_json(beta),
                    "inputs": list(inputs),
                })
    return {
        "check": "unit",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


# -- deformation by bounding cochains -------------------------------------------

def validate_bounding_candidate(alg: AInfAlgebra, b: AlgElement):
    """Odd homogeneous degree and strictly positive energy valuation."""
    if b.truncation != alg.truncation:
        raise ValueError("bounding-cochain truncation differs from the algebra's")
    degs = {alg.degree(nm) for nm in b.coeffs}
    if len(degs) > 1:
        raise ValueError("bounding cochain must be homogeneous")
    if degs and next(iter(degs)) % 2 == 0:
        raise ValueError("bounding cochain must have odd degree")
    for nm, nov in b.coeffs.items():
        if nov.valuation() is not None and nov.valuation() <= 0:
            raise ValueError(
                f"coefficient of {nm} has a zero-energy component; "
                "insertion sums would not terminate"
            )


def deformed_table(alg: AInfAlgebra, b: AlgElement, k: int) -> dict:
    """m^b_k on basis names, {inputs: {output: NovikovElement}}, zeros
    dropped, in one pass over the stored entries of arity K >= k.

    Filling K - k slots of a stored m_{K,beta}(n_1..n_K) = c * out whose
    names lie in the support of b adds T^{E(beta)} c prod b-coefficients to
    m^b_k at the k names left; no Koszul sign arises, since ||b|| is even.
    """
    table_b = {}
    for (big_k, beta), table in alg.ops.items():
        extra = big_k - k
        if extra < 0 or (extra and not b.coeffs):
            continue
        energy = NovikovElement.monomial(1, beta[0], alg.truncation)
        for key, combo in table.items():
            slots = [i for i, nm in enumerate(key) if nm in b.coeffs]
            for filled in combinations(slots, extra):
                factor = energy
                for i in filled:
                    factor = factor * b.coeffs[key[i]]
                add_into(table_b.setdefault(tuple(
                    nm for i, nm in enumerate(key) if i not in filled), {}),
                    combo, factor)
    out = {}
    for key, row in table_b.items():
        row = {o: v for o, v in row.items() if v.terms}
        if row:
            out[key] = row
    return out


def deformed_eval(alg: AInfAlgebra, b: AlgElement, k: int, inputs) -> AlgElement:
    """m^b_k(a_1..a_k): the table of m^b_k read along the inputs."""
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs, got {len(inputs)}")
    return evaluate(deformed_table(alg, b, k), inputs, alg.truncation)


def deform(alg: AInfAlgebra, b: AlgElement) -> AInfAlgebra:
    """The b-deformed algebra m^b, presented with exact per-energy constants.

    Requires modulo mode (assemble gapped algebras first).  Each deformed
    operation splits by total energy; the Maslov index of each contribution
    is recovered from the degree rule, and is even because ||b|| is even.
    """
    if alg.mode != "modulo":
        raise ValueError("deform needs a truncated algebra; use assemble() first")
    validate_bounding_candidate(alg, b)
    new_ops = {}
    for k in range(alg.max_arity() + 1):
        for names, row in deformed_table(alg, b, k).items():
            in_deg = sum(alg.degree(nm) for nm in names)
            for out, nov in row.items():
                mu = in_deg + 2 - k - alg.degree(out)
                for energy, coeff in nov.terms:
                    table = new_ops.setdefault((k, (energy, mu)), {})
                    table.setdefault(names, {})[out] = coeff
    monoid = EnergyMonoid(sorted({beta for _, beta in new_ops} - {BETA_ZERO}))
    return AInfAlgebra(alg.basis, monoid, "modulo", alg.cutoff, alg.unit,
                       new_ops, alg.window)


def mc_defect(alg: AInfAlgebra, b: AlgElement, validated=False):
    """(P, remainder) with sum_k m_k(b,..,b) = P * e + remainder; validated
    says that b has passed validate_bounding_candidate already."""
    if alg.unit is None:
        raise ValueError("mc_defect needs a unit")
    if not validated:
        validate_bounding_candidate(alg, b)
    total = deformed_table(alg, b, 0).get((), {})
    p = total.pop(alg.unit, NovikovElement.zero(alg.truncation))
    return p, AlgElement(total, alg.truncation)


def assemble(alg: AInfAlgebra, cutoff) -> AInfAlgebra:
    """Truncate a gapped algebra at a cutoff energy (modulo mode).

    Operations at boundary energy E(beta) = cutoff are kept as families but
    contribute zero to assembled Novikov elements after truncation.
    """
    cutoff = frac(cutoff)
    if alg.mode != "gapped":
        raise ValueError("assemble starts from a gapped algebra")
    ops = {key: tbl for key, tbl in alg.ops.items() if key[1][0] <= cutoff}
    return AInfAlgebra(alg.basis, alg.monoid, "modulo", cutoff, alg.unit,
                       ops, alg.window)


# -- mutation harness ------------------------------------------------------------

def constant_ids(alg: AInfAlgebra):
    """Deterministic list of every stored structure constant's identifier."""
    return stored_ids(alg.ops, "m")


def parse_constant_id(cid: str, family: str = "m"):
    """Split '<family><k>:<E>/<mu>:<inputs>-><output>' into (k, beta,
    inputs, output); a ValueError naming the id for any other shape."""
    try:
        kpart, betapart, rest = cid.split(":", 2)
        e_str, mu_str = betapart.rsplit("/", 1)
        ins_str, out = rest.split("->")
        if not kpart.startswith(family):
            raise ValueError
        return (int(kpart[len(family):]), (frac(e_str), int(mu_str)),
                tuple(s for s in ins_str.split(",") if s), out)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed constant id {cid!r}") from None


def replaced(obj, **slots):
    """A copy of an immutable slotted object with some slots replaced by
    values known to be valid, skipping the constructor's validation."""
    new = object.__new__(type(obj))
    for slot in chain.from_iterable(getattr(cls, "__slots__", ())
                                    for cls in type(obj).__mro__):
        object.__setattr__(new, slot,
                           slots[slot] if slot in slots else getattr(obj, slot))
    return new


def flip_stored(tables, cid: str, family: str) -> dict:
    """A copy of op tables with the stored constant cid of the given family
    negated.  Only the touched table is copied and nothing is re-validated:
    negating one stored nonzero constant keeps every rule of the tables."""
    k, beta, inputs, out = parse_constant_id(cid, family)
    table = tables.get((k, beta))
    if table is None or out not in table.get(inputs, {}):
        raise ValueError(f"no stored constant {cid!r}")
    combo = dict(table[inputs])
    combo[out] = -combo[out]
    return {**tables, (k, beta): {**table, inputs: combo}}


def flip_constant(alg: AInfAlgebra, cid: str) -> AInfAlgebra:
    """Return a copy of the algebra with one structure constant negated."""
    return replaced(alg, ops=flip_stored(alg.ops, cid, "m"))
