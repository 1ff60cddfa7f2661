"""The joined relation scan and the kept monoid enumeration, against the
code they replaced.

`check_ainf` plans every (beta, n) at once from the pairs of stored tables
(`insertion_plans`) and joins the stored tables on the name at each
insertion slot, so only tuples that have a term are formed, and
`EnergyMonoid` enumerates on integer energies and answers every
enumeration and membership query from one kept enumeration, which it
extends; the split query it answered from the same enumeration
(`kept_splits`) is now the oracle of `AInfAlgebra.beta_splits`. The per-(beta, n) planner `insertion_plan` and the breadth-first
search over Fraction energies (`FractionMonoid`) stay here as the oracles of
the planner and of the monoid. Four older scans stay here as differential
oracles, and reports must agree exactly, down to which counterexample comes
first:

- the scan over the enumerated beta list (`listed_relation_violations`),
  which found each planned beta in the list and yielded the scaled joined
  sums; `relation_violations` skips a planned beta only above the cutoff and
  yields the same sums;
- the join on name tuples over the integer copy `integer_ops` of the
  stored table (`tuple_relation_violations`), which the join on integer
  tuple codes replaced;
- the planned per-tuple scan, which ran every tuple of window^n through
  `insertion_sum`, the sum of a plan on one tuple, which also replayed each
  failing tuple for the report (`oracle_relation_violations`);
- the per-tuple scan before that, which builds the beta-splits from a fresh
  enumeration and the stored terms once per (beta, n), and the Koszul signs
  and the defect element on every tuple (`oracle_check_ainf`).

The scan itself reads the stored Fraction table and scales each constant to
an integer as it indexes the table, and a failing tuple's integer sums,
divided by D^2, are its defects; the same scan without the scaling is its
oracle.
"""

import json
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, compress, groupby, product, repeat
from math import lcm
from operator import add, is_, itemgetter, mul

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import scalars
from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    add_into,
    ainf_defect,
    beta_json,
    check_ainf,
    constant_ids,
    flip_constant,
    insertion_plans,
    joined_sums,
    map_tables,
    relation_violations,
)
from ainfkit.cli import main
from ainfkit.isotopy import Pseudoisotopy, flip_isotopy_constant, \
    isotopy_constant_ids, isotopy_sums, kronecker_reading, slots
from ainfkit.models import (
    commuting_isotopy_fixture,
    derham_model,
    extension_fixture,
    two_factor_gapped,
)
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, NovikovElement
from ainfkit.signs import koszul_prefix_sign, shifted_parities
from ainfkit.specio import load_spec


# -- the replaced code, kept as the oracle ---------------------------------------
# The per-(beta, n) planner, copied verbatim: `insertion_plans` builds every
# plan at once from the pairs of stored tables.

def insertion_plan(inner_ops, outer_ops, beta, n: int):
    """The insertion terms of a quadratic sum at one (beta, n), for any
    inputs: one (i - 1, i - 1 + j, inner_{j,beta1}, outer_{n-j+1,beta2})
    per beta1 + beta2 = beta, inner arity j and slot i with both tables
    stored.  Empty when structurally zero.

    inner_ops and outer_ops are op tables {(k, beta): {inputs: {output:
    coefficient}}}; the coefficients may be Fractions or t-polynomials.  With
    both the same table this is the A-infinity relation of that table.
    """
    plan = []
    for (j, b_inner), inner_table in inner_ops.items():
        if j > n:
            continue
        b_outer = (beta[0] - b_inner[0], beta[1] - b_inner[1])
        outer_table = outer_ops.get((n - j + 1, b_outer))
        if outer_table:
            plan.extend((start, start + j, inner_table, outer_table)
                        for start in range(n - j + 1))
    return plan


# The sum of a plan on one tuple, copied verbatim: it replayed each failing
# tuple over the stored values; the scans now report the joined sums.

def insertion_sum(plan, parity, names) -> dict:
    """The sum of a plan's insertion terms on one input tuple: {output:
    coefficient}, zero coefficients dropped.  The term at slot i carries the
    sign (-1)^{p(a_1) + ... + p(a_{i-1})} with p = parity; the shifted-degree
    parities give the Koszul sign, an all-zero map gives no sign."""
    acc = {}
    for start, stop, inner_table, outer_table in plan:
        inner = inner_table.get(names[start:stop])
        if not inner:
            continue
        prefix, suffix = names[:start], names[stop:]
        odd = 0
        for nm in prefix:
            odd ^= parity[nm]
        for mid, c_in in inner.items():
            outer = outer_table.get(prefix + (mid,) + suffix)
            if not outer:
                continue
            c_in = -c_in if odd else c_in
            for out, c_out in outer.items():
                acc[out] = acc[out] + c_in * c_out if out in acc else c_in * c_out
    return {out: c for out, c in acc.items() if c}


# The planned per-tuple scan, copied verbatim but for its name.

def oracle_relation_violations(ops, parity, betas, n_bound, tuples):
    """The A-infinity relation of an op table, scanned in order: for each
    beta and n <= n_bound, the first input tuple of tuples(n) on which it
    fails, as (beta, n, names, {output: coefficient}).  Each (beta, n) is
    planned once for all its tuples; an empty plan is structurally zero."""
    for beta in betas:
        for n in range(n_bound + 1):
            plan = insertion_plan(ops, ops, beta, n)
            if not plan:
                continue
            for names in tuples(n):
                terms = insertion_sum(plan, parity, names)
                if terms:
                    yield beta, n, names, terms
                    break


def _relation_tuples(alg: AInfAlgebra, n: int):
    if n == 0:
        return [()]
    if n == 1:
        return [(nm,) for nm in alg.names]
    return product(alg.window, repeat=n)


# The join on name tuples and the integer copy it scanned, copied verbatim
# but for their names: `joined_sums` now codes each tuple as an integer and
# scales the stored constants to integers while it indexes the tables.

def tuple_joined_sums(n, terms, names, index, linear=None):
    """Quadratic sums on the tuples xi of names^n: the sum over the (plan,
    parity, sign) of terms of sign (+1 or -1) times insertion_sum(plan,
    parity, xi), plus linear[xi] when a linear table is given.  Yields, for
    each leading name in scan order, every tuple with a nonzero sum in
    product order, as (xi, {output: coefficient}), zeros dropped.  The
    plans' tables are joined on the name at the insertion slot, so only
    tuples with a term are formed.  index, a dict the caller keeps across
    calls on the same tables, holds each table grouped once per scanned
    name set.  Coefficients may be integers, Fractions or t-polynomials."""
    if not (linear or any(plan for plan, _, _ in terms)):
        return
    if n == 0:
        acc = dict(linear.get((), {})) if linear else {}
        for plan, parity, sign in terms:
            add_into(acc, insertion_sum(plan, parity, ()), sign)
        acc = {o: c for o, c in acc.items() if c}
        if acc:
            yield (), acc
        return
    inside = frozenset(names)
    index = index.setdefault(inside, {})

    def grouped(table, p):
        """The keys of a table with at most one name outside the scan as
        {key[p]: [(key, combo, position of that name or -1)]}, or for
        p = None the keys inside it as {output: [(key, coefficient)]}."""
        got = index.get((id(table), p))
        if got is None:
            if id(table) not in index:
                index[id(table)] = rows = []
                for key, combo in table.items():
                    strays = () if inside.issuperset(key) else [
                        i for i, nm in enumerate(key) if nm not in inside]
                    if len(strays) < 2:
                        rows.append((key, combo, strays[0] if strays else -1))
            got = index[(id(table), p)] = {}
            for key, combo, stray in index[id(table)]:
                if p is not None:
                    got.setdefault(key[p], []).append((key, combo, stray))
                elif stray < 0:
                    for out, c in combo.items():
                        got.setdefault(out, []).append((key, c))
        return got

    position = {nm: i for i, nm in enumerate(names)}
    leading = {}
    for key, vec in (linear or {}).items():
        if inside.issuperset(key):
            leading.setdefault(key[0], []).append((key, vec))
    for lead in names:
        sums = {key: dict(vec) for key, vec in leading.get(lead, ())}
        for plan, parity, sign in terms:
            flip = sign < 0
            for start, stop, inner_table, outer_table in plan:
                if start == 0 < stop:  # the inner key leads the tuple
                    outer_first = grouped(outer_table, 0)
                    for inner_key, inner, stray in grouped(
                            inner_table, 0).get(lead, ()):
                        for mid, c_in in () if stray >= 0 else inner.items():
                            c_in = -c_in if flip else c_in
                            for outer_key, outer, stray in outer_first.get(mid, ()):
                                if stray > 0:
                                    continue
                                acc = sums.setdefault(inner_key + outer_key[1:], {})
                                for out, c_out in outer.items():
                                    acc[out] = acc[out] + c_in * c_out \
                                        if out in acc else c_in * c_out
                    continue
                # The outer key leads; after a slot-0 curvature, its second name.
                inner_out = grouped(inner_table, None)
                for outer_key, outer, stray in grouped(
                        outer_table, 0 if start else 1).get(lead, ()):
                    if stray >= 0 and stray != start or \
                            outer_key[start] not in inner_out:
                        continue
                    prefix, suffix = outer_key[:start], outer_key[start + 1:]
                    odd = sum(parity[nm] for nm in prefix) & 1 != flip
                    for inner_key, c_in in inner_out[outer_key[start]]:
                        c_in = -c_in if odd else c_in
                        acc = sums.setdefault(prefix + inner_key + suffix, {})
                        for out, c_out in outer.items():
                            acc[out] = acc[out] + c_in * c_out \
                                if out in acc else c_in * c_out
        for key in sorted((key for key, acc in sums.items() if any(acc.values())),
                          key=lambda h: [position[nm] for nm in h]):
            yield key, {o: c for o, c in sums[key].items() if c}


# The coded join with one row per stored key, [(output number, scale(c))]
# its outputs, copied verbatim but for its name and docstring: the join now
# holds one row per stored entry, built in one loop over the entries.
def per_key_joined_sums(n, terms, names, index, linear=None, scale=None):
    """joined_sums with one row per stored key, its outputs in a list."""
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
        if any, sits at slot; for p None, by output, the rows inside it."""
        got = scan.get((id(table), p, slot))
        if got is None:
            rows = scan.get(id(table))
            if rows is None:  # the codes digit by digit, over all keys at once
                keys, k = [*table], len(next(iter(table), ()))
                codes, strays = [0] * len(keys), [-1] * len(keys)
                for j in range(k):
                    col = [*map(digit.get, map(itemgetter(j), keys))]
                    for i in compress(range(len(keys)), map(is_, col, repeat(None))):
                        strays[i], col[i] = j if strays[i] < 0 else k, 0
                        ids.setdefault(keys[i][j], len(ids))
                    codes = [*map(add, map(mul, codes, repeat(width)), col)]
                last = width ** (k - 1) if k else 1
                rows = scan[id(table)] = [(key, code, stray, [
                    (ids.setdefault(out, len(ids)), f(c)) for out, c in combo.items()],
                    code % last) for key, code, stray, combo in zip(
                    keys, codes, strays, table.values()) if stray < k]
            got = scan[id(table), p, slot] = {}
            for row in rows:
                if p is None:
                    for out, c in row[3] if row[2] < 0 else ():
                        got.setdefault(out, []).append((row[1], c))
                elif row[2] < 0 or row[2] == slot:
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
                for _, code, _, outs, _ in inner.get(lead, ()):
                    head = code * tail
                    for mid, c_in in outs:
                        c_in = -c_in if flip else c_in
                        for _, _, _, outs_out, rest in outer.get(mid, ()):
                            at = (head + rest) * size
                            for out, c_out in outs_out:
                                cell = at + out
                                sums[cell] = sums[cell] + c_in * c_out \
                                    if cell in sums else c_in * c_out
                continue
            step, odds = tail * size, {}  # the sign of each prefix met
            for key, code, _, outs_out, _ in outer.get(lead, ()):
                mids = inner.get(ids[key[start]])
                if mids is None:
                    continue
                prefix = code // (tail * width)
                if prefix not in odds:
                    odds[prefix] = sum(map(parity.__getitem__, key[:start])) & 1 != flip
                odd, base = odds[prefix], (prefix * widen + code % tail) * size
                for inner_code, c_in in mids:
                    c_in = -c_in if odd else c_in
                    at = base + inner_code * step
                    for out, c_out in outs_out:
                        cell = at + out
                        sums[cell] = sums[cell] + c_in * c_out \
                            if cell in sums else c_in * c_out
        live = sorted(cell for cell, c in sums.items() if c)
        for code, cells in groupby(live, lambda cell: cell // size):
            yield tuple(names[code // w % width] for w in powers), \
                {numbered[cell % size]: sums[cell] for cell in cells}


def tuple_relation_violations(ops, parity, betas, n_bound, order):
    """The A-infinity relation of an op table, scanned in order: for each
    beta of the sorted list betas and n <= n_bound, the first tuple of
    order(n)^n, in product order, on which it fails, as (beta, n, names,
    {output: coefficient}): the first joined sum of its plan.  Every plan is
    built at once from the pairs of stored tables (insertion_plans); a
    (beta, n) without one is structurally zero, and a plan at a beta not in
    betas is out of range."""
    index = {}
    plans = insertion_plans(ops, ops, n_bound)
    for beta, n in sorted(plans):
        at = bisect_left(betas, beta)
        if at == len(betas) or betas[at] != beta:
            continue
        for names, terms in tuple_joined_sums(
                n, [(plans[beta, n], parity, 1)], order(n), index):
            yield beta, n, names, terms
            break


# The scan over a sorted beta list, copied verbatim but for its name: it found
# each planned beta in the enumerated list with a bisection and yielded the
# joined sums, scaled.  `relation_violations` now skips a planned beta only
# above the cutoff.

def listed_relation_violations(ops, parity, betas, n_bound, order, scale=None):
    """The A-infinity relation of an op table, scanned in order: for each
    beta of the sorted list betas and n <= n_bound, the first tuple of
    order(n)^n, in product order, on which it fails, as (beta, n, names,
    {output: coefficient}): the first joined sum of its plan, each c read as
    scale(c) when a scale is given.  Every plan is built at once from the
    pairs of stored tables (insertion_plans); a (beta, n) without one is
    structurally zero, and a plan at a beta not in betas is out of range."""
    index = {}
    plans = insertion_plans(ops, ops, n_bound)
    for beta, n in sorted(plans):
        at = bisect_left(betas, beta)
        if at == len(betas) or betas[at] != beta:
            continue
        for names, terms in joined_sums(n, [(plans[beta, n], parity, 1)],
                                        order(n), index, scale=scale):
            yield beta, n, names, terms
            break


def integer_ops(ops) -> dict:
    """The op table D*m, with D the lcm of every coefficient's denominator:
    the same keys, integer coefficients.  A quadratic sum over it is D^2
    times the rational one, so it vanishes exactly when that does."""
    scale = lcm(*(c.denominator for table in ops.values()
                  for combo in table.values() for c in combo.values()))
    return {key: {inputs: {out: c.numerator * (scale // c.denominator)
                           for out, c in combo.items()}
                  for inputs, combo in table.items()}
            for key, table in ops.items()}


# The per-tuple scan before it was planned.

def oracle_enumerate(generators, cutoff):
    """Breadth-first generator sums of energy <= cutoff, sorted."""
    seen = {(Fraction(0), 0)}
    frontier = [(Fraction(0), 0)]
    while frontier:
        nxt = []
        for e, mu in frontier:
            for ge, gmu in generators:
                cand = (e + ge, mu + gmu)
                if cand[0] <= cutoff and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen)


class FractionMonoid:
    """The enumeration of `EnergyMonoid` before it ran on integers: a
    breadth-first search over Fraction energies that starts again from zero
    whenever a larger energy is asked for, copied verbatim but for the class
    around `_reach`, `enumerate` and `__contains__`, and for the lattice test
    `__contains__` has since gained: an energy that is no multiple of 1/L,
    L the lcm of the generator denominators, is no sum of generators, and is
    answered False before any enumeration could be refused."""

    def __init__(self, generators):
        self.generators = EnergyMonoid(generators).generators
        self._cutoff = None

    def _reach(self, cutoff: Fraction):
        """Make the kept enumeration cover every element of energy <= cutoff."""
        if self._cutoff is not None and cutoff <= self._cutoff:
            return
        seen = {BETA_ZERO}
        frontier = [BETA_ZERO]
        while frontier:
            nxt = []
            for e, mu in frontier:
                for ge, gmu in self.generators:
                    cand = (e + ge, mu + gmu)
                    if cand[0] <= cutoff and cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                if len(seen) > scalars.ENUMERATION_BUDGET:
                    raise ValueError(
                        f"energy monoid has more than {scalars.ENUMERATION_BUDGET} "
                        f"elements of energy <= {scalars.frac_str(cutoff)}")
            frontier = nxt
        elements = sorted(seen)
        self._cutoff = cutoff
        self._elements = elements
        self._members = seen

    def enumerate(self, cutoff) -> list:
        """All distinct generator sums with total energy <= cutoff, sorted."""
        cutoff = scalars.frac(cutoff)
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self._reach(cutoff)
        return self._elements[:bisect_right(self._elements, cutoff,
                                            key=lambda b: b[0])]

    def __contains__(self, beta) -> bool:
        e, mu = scalars.frac(beta[0]), int(beta[1])
        if e < 0 or (e * lcm(*(g.denominator for g, _ in self.generators))
                     ).denominator != 1:
            return False
        self._reach(e)
        return (e, mu) in self._members


def kept_splits(monoid, beta):
    """`EnergyMonoid.splits` as it was, but for its cache: every
    (beta1, beta2) in the monoid with beta1 + beta2 = beta, sorted by beta1,
    read off the kept enumeration; empty when beta is not in the monoid.
    `AInfAlgebra.beta_splits` computes them from `enumerate` and membership
    alone."""
    beta = (scalars.frac(beta[0]), int(beta[1]))
    splits = []
    if beta in monoid:
        top = int(beta[0] * monoid._scale)
        members = monoid._members
        for b1, (e1, mu1) in zip(monoid.enumerate(beta[0]), monoid._pairs):
            if (top - e1, beta[1] - mu1) in members:
                splits.append((b1, (beta[0] - b1[0], beta[1] - b1[1])))
    return splits


def oracle_splits(alg, beta):
    members = set(oracle_enumerate(alg.monoid.generators, beta[0]))
    if beta not in members:
        raise ValueError(f"beta {beta} outside the energy monoid")
    return [(b1, (beta[0] - b1[0], beta[1] - b1[1])) for b1 in sorted(members)
            if (beta[0] - b1[0], beta[1] - b1[1]) in members]


def oracle_terms(alg, splits, n):
    """(j, inner table, outer table) for every beta-split and inner arity j
    with both tables stored: the terms of the relation on n inputs, the same
    for every input tuple.  None stored means the relation is zero."""
    terms = []
    for b_inner, b_outer in splits:
        for j in range(n + 1):
            inner_table = alg.ops.get((j, b_inner))
            if not inner_table:
                continue
            outer_table = alg.ops.get((n - j + 1, b_outer))
            if not outer_table:
                continue
            terms.append((j, inner_table, outer_table))
    return terms


def oracle_defect(alg, beta, names, terms=None):
    """The relation at (beta, names), one tuple at a time; the terms of
    (beta, len(names)) are found here unless the caller has them."""
    n = len(names)
    if terms is None:
        terms = oracle_terms(alg, oracle_splits(alg, beta), n)
    degs = [alg.degree(nm) for nm in names]
    acc = {}
    for j, inner_table, outer_table in terms:
        for i in range(1, n - j + 2):
            inner = inner_table.get(names[i - 1:i - 1 + j])
            if not inner:
                continue
            sign = koszul_prefix_sign(degs, i)
            prefix = names[:i - 1]
            suffix = names[i - 1 + j:]
            for mid, c_in in inner.items():
                outer = outer_table.get(prefix + (mid,) + suffix)
                if not outer:
                    continue
                for out, c_out in outer.items():
                    acc[out] = acc.get(out, Fraction(0)) + sign * c_in * c_out
    trunc = alg.truncation
    return AlgElement(
        {o: NovikovElement.scalar(c, trunc) for o, c in acc.items() if c != 0},
        trunc,
    )


def oracle_check_ainf(alg, max_counterexamples=None):
    max_a = alg.max_arity()
    n_bound = max(2 * max_a - 1, 0)
    if alg.mode == "modulo":
        top = alg.cutoff
    else:
        top = 2 * max((b[0] for _, b in alg.ops), default=Fraction(0))
    betas = oracle_enumerate(alg.monoid.generators, top)
    # The scope: every enumerated beta with a split into two stored tables,
    # with the arities n of those pairs.
    planned = [{"beta": beta_json(beta), "n": ns} for beta in betas
               if (ns := [n for n in range(n_bound + 1)
                          if oracle_terms(alg, oracle_splits(alg, beta), n)])]
    counterexamples = []
    for beta in betas:
        splits = oracle_splits(alg, beta)
        for n in range(n_bound + 1):
            # The splits and the stored terms are found once per (beta, n);
            # each tuple is still summed on its own.
            terms = oracle_terms(alg, splits, n)
            if not terms:
                continue
            if n == 0:
                tuples = [()]
            elif n == 1:
                tuples = [(nm,) for nm in alg.names]
            else:
                tuples = product(alg.window, repeat=n)
            for names in tuples:
                defect = oracle_defect(alg, beta, names, terms)
                if not defect.is_zero():
                    counterexamples.append({
                        "beta": beta_json(beta), "n": n,
                        "inputs": list(names), "defect": defect.to_json(),
                    })
                    break
            if max_counterexamples is not None and \
                    len(counterexamples) >= max_counterexamples:
                break
        if max_counterexamples is not None and \
                len(counterexamples) >= max_counterexamples:
            break
    return {
        "check": "ainf",
        "status": "PASS" if not counterexamples else "FAIL",
        "max_arity": max_a,
        "relation_arity_bound": n_bound,
        "scope": {"generators": [[scalars.frac_str(e), mu]
                                 for e, mu in alg.monoid.generators],
                  "top_energy": scalars.frac_str(top), "planned": planned},
        "counterexamples": counterexamples,
    }


# -- random sparse algebras --------------------------------------------------------

ENERGIES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
            Fraction(1)]
generators = st.lists(
    st.tuples(st.sampled_from(ENERGIES), st.sampled_from([-2, 0, 2])),
    max_size=3)


@st.composite
def sparse_algebras(draw, denominators=st.sampled_from([1, 1, 2])):
    """Degree-consistent sparse tables over a rich monoid, gapped or
    truncated, with curvature m_0, an optional window, and no promise that
    the relations hold."""
    size = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
    basis = [(f"a{i}", d) for i, d in enumerate(degrees)]
    names = [nm for nm, _ in basis]
    monoid = EnergyMonoid(draw(generators))
    mode = draw(st.sampled_from(["gapped", "modulo"]))
    cutoff = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    betas = monoid.enumerate(cutoff)
    ops = {}
    for _ in range(draw(st.integers(4, 16))):
        k = draw(st.sampled_from([0, 0, 1, 1, 2, 2, 2, 3]))
        inputs = tuple(draw(st.lists(st.sampled_from(names),
                                     min_size=k, max_size=k)))
        in_deg = sum(dict(basis)[nm] for nm in inputs)
        # (beta, output) pairs that satisfy the degree rule.
        keys = [(beta, out) for beta in betas for out, d in basis
                if d == in_deg + 2 - k - beta[1] and (k, beta) != (0, BETA_ZERO)]
        if not keys:
            continue
        beta, out = draw(st.sampled_from(keys))
        coeff = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                         draw(denominators))
        ops.setdefault((k, beta), {}).setdefault(inputs, {})[out] = coeff
    window = None
    if draw(st.booleans()):
        window = draw(st.lists(st.sampled_from(names), min_size=1,
                               max_size=size, unique=True))
    return AInfAlgebra(basis, monoid, mode, cutoff if mode == "modulo" else None,
                       None, ops, window)


def curved_line(cutoff, lam, rho):
    """Curvature at two energies over a three-generator monoid; every
    relation holds."""
    basis = [("e", 0), ("x", 1), ("z", 2)]
    monoid = EnergyMonoid([(Fraction(1, 20), 0), (Fraction(1, 19), 0),
                           (Fraction(1, 20), 2)])
    units = {("e", nm): {nm: 1} for nm, _ in basis}
    units.update({("x", "e"): {"x": -1}, ("z", "e"): {"z": 1}})
    ops = {(2, BETA_ZERO): units,
           (1, BETA_ZERO): {("x",): {"z": 1}},
           (0, (Fraction(1, 20), 0)): {(): {"z": lam}},
           (0, (Fraction(1, 20), 2)): {(): {"e": rho}}}
    return AInfAlgebra(basis, monoid, "modulo", cutoff, "e", ops)


VALID = {
    "derham(1,1)": lambda: derham_model(1, 1),
    "two-factor A": lambda: two_factor_gapped()["A"],
    "two-factor B": lambda: two_factor_gapped()["B"],
    "two-factor C": lambda: two_factor_gapped()["C"],
    "curved line": lambda: curved_line(Fraction(1, 8), 3, -5),
}


@settings(max_examples=40, deadline=None)
@given(sparse_algebras(), st.sampled_from([None, 1, 3]), st.data())
def test_planned_scan_matches_per_tuple_scan(alg, cap, data):
    assert check_ainf(alg, cap) == oracle_check_ainf(alg, cap)
    ids = constant_ids(alg)
    if ids:
        flipped = flip_constant(alg, data.draw(st.sampled_from(ids)))
        assert check_ainf(flipped, cap) == oracle_check_ainf(flipped, cap)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(VALID)), st.data())
def test_planned_scan_matches_on_single_flips(name, data):
    alg = VALID[name]()
    report = check_ainf(alg)
    assert report["status"] == "PASS"
    assert report == oracle_check_ainf(alg)
    flipped = flip_constant(alg, data.draw(st.sampled_from(constant_ids(alg))))
    assert check_ainf(flipped) == oracle_check_ainf(flipped)


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(), st.data())
def test_ainf_defect_matches_per_tuple_defect(alg, data):
    beta = data.draw(st.sampled_from(alg.monoid.enumerate(Fraction(3, 2))))
    n = data.draw(st.integers(0, 4))
    names = tuple(data.draw(st.lists(st.sampled_from(alg.names),
                                     min_size=n, max_size=n)))
    assert ainf_defect(alg, beta, names) == oracle_defect(alg, beta, names)


@settings(max_examples=150, deadline=None)
@given(sparse_algebras(), st.data())
def test_ainf_defect_matches_the_insertion_sum_oracle(alg, data):
    """ainf_defect joins over the tuple's distinct names; on a planned beta,
    at n = 0 and on tuples with a term of the plan or drawn from one or two
    names, where names repeat, it is the sum of the plan on the tuple."""
    plans = insertion_plans(alg.ops, alg.ops, 4)
    beta, n = data.draw(st.sampled_from(sorted(plans))) if plans \
        else (BETA_ZERO, data.draw(st.integers(0, 4)))
    plan = plans.get((beta, n), [])
    with_a_term = [outer_key[:start] + inner_key + outer_key[start + 1:]
                   for start, _, inner, outer in plan
                   for inner_key, combo in inner.items()
                   for outer_key in outer if outer_key[start] in combo]
    if with_a_term and data.draw(st.booleans()):
        names = data.draw(st.sampled_from(with_a_term))
    else:
        pool = data.draw(st.sampled_from([alg.names, alg.names[:1],
                                          alg.names[:2]]))
        names = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                         max_size=n)))
    assert ainf_defect(alg, beta, names) == AlgElement(
        insertion_sum(plan, alg._parity, names), alg.truncation)


def test_ainf_defect_on_a_repeated_name():
    """The relation at (x, x, x, x, x), where the signed terms of four m_3
    constants leave a nonzero sum, and m_1(m_0) at n = 0."""
    basis = [("x", 0), ("z", -1), ("w", -2)]
    ops = {(3, BETA_ZERO): {("x", "x", "x"): {"z": Fraction(2)},
                            ("z", "x", "x"): {"w": Fraction(3)},
                            ("x", "z", "x"): {"w": Fraction(-3)},
                            ("x", "x", "z"): {"w": Fraction(1, 2)}}}
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops=ops)
    xs = ("x",) * 5
    plan = insertion_plans(ops, ops, 5)[BETA_ZERO, 5]
    defect = insertion_sum(plan, alg._parity, xs)
    assert defect and ainf_defect(alg, BETA_ZERO, xs) == AlgElement(defect)
    beta = (Fraction(1), 0)
    ops = {(0, beta): {(): {"x": Fraction(2)}},
           (1, BETA_ZERO): {("x",): {"y": Fraction(-1, 3)}}}
    curved = AInfAlgebra([("x", 2), ("y", 3)], EnergyMonoid([beta]), ops=ops)
    assert ainf_defect(curved, beta, ()) == AlgElement({"y": Fraction(-2, 3)}) \
        == AlgElement(insertion_sum(insertion_plans(ops, ops, 0)[beta, 0],
                                    curved._parity, ()))


def scan_order(alg):
    return lambda n: alg.names if n == 1 else alg.window


def common_denominator(ops):
    return lcm(*(c.denominator for table in ops.values()
                 for combo in table.values() for c in combo.values()))


def scaled(ops):
    """c -> D*c, with D the common denominator of ops, as check_ainf scales."""
    d = common_denominator(ops)
    return lambda c: c.numerator * (d // c.denominator)


def scan_args(alg, ops):
    """The arguments of relation_violations before the scan order."""
    return (insertion_plans(ops, ops, max(2 * alg.max_arity() - 1, 0)),
            shifted_parities(dict(alg.basis)), alg.cutoff)


def listed_args(alg, ops):
    """The arguments of the scans over the beta list before the order."""
    return (ops, shifted_parities(dict(alg.basis)), alg.beta_range(),
            max(2 * alg.max_arity() - 1, 0))


def first_violations(alg, ops, scale=None):
    """(beta, n, names) of each first violation of the scan over ops."""
    return [(beta, n, names) for beta, n, names, _ in relation_violations(
        *scan_args(alg, ops), scan_order(alg), scale)]


def both_scans(alg, ops):
    """Every first violation, with its terms, of the joined scan and of the
    per-tuple scan over ops."""
    return (list(relation_violations(*scan_args(alg, ops), scan_order(alg),
                                     None)),
            list(oracle_relation_violations(
                *listed_args(alg, ops), lambda n: _relation_tuples(alg, n))))


def assert_scans_agree(alg, per_tuple=True):
    """Every first violation, with its sums, is the same for the coded scan,
    which scales the stored table while it indexes it, the scan over the
    beta list with the same scaling, the name-tuple join over the integer
    copy and, unless per_tuple is off, the per-tuple scan over that copy:
    all four yield the integer sums, D^2 times the defects, and each sum
    divided by D^2, as check_ainf writes it, is the per-tuple scan's defect
    over the Fraction table.  Returns the first violations of the coded
    scan."""
    ops, d = integer_ops(alg.ops), common_denominator(alg.ops)
    coded = list(relation_violations(*scan_args(alg, alg.ops), scan_order(alg),
                                     scaled(alg.ops)))
    assert coded == list(listed_relation_violations(
        *listed_args(alg, alg.ops), scan_order(alg), scaled(alg.ops)))
    assert coded == list(tuple_relation_violations(*listed_args(alg, ops),
                                                   scan_order(alg)))
    if per_tuple:
        assert coded == list(oracle_relation_violations(
            *listed_args(alg, ops), lambda n: _relation_tuples(alg, n)))
        assert [(beta, n, names, {o: Fraction(c, d * d) for o, c in sums.items()})
                for beta, n, names, sums in coded] == list(oracle_relation_violations(
                    *listed_args(alg, alg.ops), lambda n: _relation_tuples(alg, n)))
    return coded


@settings(max_examples=100, deadline=None)
@given(sparse_algebras(st.integers(2, 12)), st.data())
def test_joined_scan_matches_per_tuple_scan(alg, data):
    """The same first violations with the same terms, over the integer and
    the Fraction tables, before and after one flip."""
    algebras = [alg]
    ids = constant_ids(alg)
    if ids:
        algebras.append(flip_constant(alg, data.draw(st.sampled_from(ids))))
    for a in algebras:
        for ops in (integer_ops(a.ops), a.ops):
            joined, per_tuple = both_scans(a, ops)
            assert joined == per_tuple
        assert_scans_agree(a)


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(st.integers(2, 12)), st.data())
def test_integer_scan_matches_fraction_scan(alg, data):
    """The bundled fixtures hold integer constants only, so the scaling to
    integers is checked on random denominators: the Fraction scan stays as
    the oracle of the scan that scales while it indexes, and of the scan
    over the integer copy, before and after one flip."""
    algebras = [alg]
    ids = constant_ids(alg)
    if ids:
        algebras.append(flip_constant(alg, data.draw(st.sampled_from(ids))))
    for a in algebras:
        assert first_violations(a, a.ops, scaled(a.ops)) == \
            first_violations(a, integer_ops(a.ops)) == \
            first_violations(a, a.ops)
        assert check_ainf(a) == oracle_check_ainf(a)


# -- the scan bounded by the cutoff against the scan over the beta list ----------

def assert_matches_listed_scan(ops, parity, cutoff, betas, n_bound, order,
                               scale, decode):
    """relation_violations, bounded by the cutoff, finds the violations of
    the scan over the sorted beta list under the same scale, with the same
    sums, and each of its sums, decoded, is the per-tuple scan's sum over ops
    on that tuple."""
    found = list(relation_violations(insertion_plans(ops, ops, n_bound), parity,
                                     cutoff, order, scale))
    assert found == list(listed_relation_violations(ops, parity, betas, n_bound,
                                                    order, scale))
    assert [(beta, n, names, {o: decode(c) for o, c in sums.items()})
            for beta, n, names, sums in found] == list(oracle_relation_violations(
                ops, parity, betas, n_bound, lambda n: product(order(n), repeat=n)))
    return found


def algebra_matches_listed_scan(alg):
    ops, parity, betas, n_bound = listed_args(alg, alg.ops)
    d = common_denominator(ops)
    return assert_matches_listed_scan(ops, parity, alg.cutoff, betas, n_bound,
                                      scan_order(alg), scaled(ops),
                                      lambda c: Fraction(c, d * d))


def family_matches_listed_scan(P):
    """The relation of m^t, read at the Kronecker point, on the scope of
    check_pseudoisotopy, each sum decoded to its polynomial."""
    n_bound = max(2 * max((k for k, _ in P.mT), default=0) - 1, 0)
    _, at_point, decode = kronecker_reading(P, slots(P.mT, n_bound))
    return assert_matches_listed_scan(
        P.mT, shifted_parities(dict(P.basis)), P.cutoff,
        P.monoid.enumerate(P.cutoff), n_bound,
        lambda n: P.names if n == 1 else P.window, at_point, decode)


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(st.integers(2, 12)), st.data())
def test_cutoff_scan_matches_the_listed_scan(alg, data):
    """Gapped and truncated random algebras, before and after one flip."""
    algebras = [alg]
    ids = constant_ids(alg)
    if ids:
        algebras.append(flip_constant(alg, data.draw(st.sampled_from(ids))))
    for a in algebras:
        algebra_matches_listed_scan(a)


BUNDLED = ["barcode_simple", "commuting_isotopy", "derham_t1", "derham_t2",
           "gapped_product", "isotopy_chain", "isotopy_extend",
           "kunneth_derham", "kunneth_minimal"]


def test_cutoff_scan_matches_the_listed_scan_on_bundled_documents(fixture_path):
    """Every algebra and every isotopy family of the bundled documents, with
    a spaced panel of single flips of each algebra and every m^t flip of
    each family; the flips give the scans failures to find."""
    found = []
    for name in BUNDLED:
        doc = load_spec(fixture_path(f"{name}.json"))
        algebras = [doc.algebra]
        algebras += [emb.source for emb in (doc.embeddings().values()
                                            if doc.has("embeddings") else ())]
        isotopies = [doc.isotopy] if doc.has("isotopy") else []
        if doc.has("factor_isotopies"):
            isotopies += doc.factor_isotopies()
        if doc.has("extension"):
            algebras.append(doc.extension_target())
        for m, P in doc.extension_chain() if doc.has("chain") else ():
            algebras.append(m)
            isotopies.append(P)
        for alg in algebras:
            ids = constant_ids(alg)
            for cid in [None] + ids[len(ids) // 8::max(len(ids) // 4, 1)]:
                found += algebra_matches_listed_scan(
                    alg if cid is None else flip_constant(alg, cid))
        for P in isotopies:
            for cid in [None] + [cid for cid in isotopy_constant_ids(P)
                                 if cid.startswith("im")]:
                found += family_matches_listed_scan(
                    P if cid is None else flip_isotopy_constant(P, cid))
    assert found


def test_integer_ops_scales_by_the_common_denominator():
    ops = {(1, BETA_ZERO): {("x",): {"y": Fraction(1, 4)}},
           (2, BETA_ZERO): {("x", "y"): {"y": Fraction(-5, 6), "x": Fraction(3)}}}
    assert integer_ops(ops) == {(1, BETA_ZERO): {("x",): {"y": 3}},
                                (2, BETA_ZERO): {("x", "y"): {"y": -10, "x": 36}}}
    assert integer_ops({}) == {}


def rewindowed(alg, window):
    return AInfAlgebra(alg.basis, alg.monoid, alg.mode, alg.cutoff, alg.unit,
                       alg.ops, window)


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(st.integers(2, 12)), st.data())
def test_permuted_window_matches_the_oracles(alg, data):
    """A window that lists the whole basis in another order: the arity-1 scan
    and the longer ones share one name set in two orders, and each codes
    tuples by its own order."""
    windows = [tuple(reversed(alg.names)),
               tuple(data.draw(st.permutations(alg.names)))]
    for window in windows:
        a = rewindowed(alg, window)
        assert_scans_agree(a)
        assert check_ainf(a) == oracle_check_ainf(a)
        ids = constant_ids(a)
        if ids:
            flipped = flip_constant(a, data.draw(st.sampled_from(ids)))
            assert_scans_agree(flipped)
            assert check_ainf(flipped) == oracle_check_ainf(flipped)


@settings(max_examples=40, deadline=None)
@given(sparse_algebras(st.integers(2, 12)))
def test_empty_window_matches_the_oracles(alg):
    """An empty window scans the arity-1 relations on every name and no
    longer tuple at all."""
    a = rewindowed(alg, [])
    found = assert_scans_agree(a)
    assert all(n < 2 for _, n, _, _ in found)
    assert check_ainf(a) == oracle_check_ainf(a)


def every_sum(ops, parity, n, names, scale):
    """Every nonzero sum of the A-infinity relation of ops on names^n, from
    the coded join, which scales while it indexes, the name-tuple join over
    the integer copy and the per-tuple sum over that copy, which must
    agree."""
    integer = integer_ops(ops)
    coded = list(joined_sums(
        n, [(insertion_plans(ops, ops, n).get((BETA_ZERO, n), []), parity, 1)],
        names, {}, scale=scale))
    plan = insertion_plans(integer, integer, n).get((BETA_ZERO, n), [])
    assert coded == list(tuple_joined_sums(n, [(plan, parity, 1)], names, {}))
    per_tuple = [(xi, acc) for xi in product(names, repeat=n)
                 if (acc := insertion_sum(plan, parity, xi))]
    assert coded == per_tuple
    return coded


def test_outer_key_with_a_name_outside_the_window():
    """z lies outside the window, so a key that holds z joins only where z
    is the output of the inserted operation.  (z, q) and (q, z) hold it at
    the slot of m_1(y) = z; m_1(p) = q at the other slot of either key
    would make a tuple with z in it, which the scan does not form."""
    basis = [("x", 0), ("y", 0), ("p", 0), ("z", 1), ("q", 1), ("w", 1),
             ("r", 2)]
    ops = {(1, BETA_ZERO): {("y",): {"z": Fraction(1, 2)},
                           ("p",): {"q": Fraction(3)}},
           (2, BETA_ZERO): {("x", "z"): {"w": Fraction(1)},
                           ("z", "q"): {"r": Fraction(2, 3)},
                           ("q", "z"): {"r": Fraction(-1)}}}
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops=ops,
                      window=["x", "y", "p", "q", "w", "r"])
    parity = shifted_parities(dict(basis))
    sums = every_sum(alg.ops, parity, 2, alg.window, scaled(alg.ops))
    assert [xi for xi, _ in sums] == [("x", "y"), ("y", "q"), ("q", "y")]
    assert sums[0][1] == {"w": -18}  # D^2 * (-1)^{||x||} * 1/2 * 1, D = 6
    assert [(n, names) for _, n, names in first_violations(alg, alg.ops, scaled(alg.ops))] \
        == [(2, ("x", "y"))]
    for order in (alg.window, tuple(reversed(alg.window))):
        every_sum(alg.ops, parity, 2, order, scaled(alg.ops))
        every_sum(alg.ops, parity, 3, order, scaled(alg.ops))
    assert check_ainf(alg) == oracle_check_ainf(alg)


def assert_rows_agree(calls, scale=None):
    """joined_sums and the per-key join on each (n, terms, names, linear) of
    calls, each with one index for all of them, as a caller keeps it: the
    same tuples with the same sums, in the same order, each sum's outputs in
    the same order.  Returns the sums."""
    indexes, found = ({}, {}), []
    for n, terms, names, linear in calls:
        new, old = ([(xi, [*acc.items()]) for xi, acc in join(
            n, terms, names, index, linear, scale)] for join, index in zip(
                (joined_sums, per_key_joined_sums), indexes))
        assert new == old
        found.append(new)
    return found


def relation_calls(alg, ops):
    """Every (n, terms, names, None) of the A-infinity relation scan of ops."""
    plans = insertion_plans(ops, ops, max(2 * alg.max_arity() - 1, 0))
    parity = shifted_parities(dict(alg.basis))
    return [(n, [(plans[beta, n], parity, 1)], scan_order(alg)(n), None)
            for beta, n in sorted(plans)]


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(st.integers(2, 12)))
def test_entry_rows_match_the_per_key_rows(alg):
    """Over the Fraction table, scaled while indexed and not, and with a
    window that leaves names outside the scan."""
    assert_rows_agree(relation_calls(alg, alg.ops))
    assert_rows_agree(relation_calls(alg, alg.ops), scaled(alg.ops))


def test_entry_rows_with_several_outputs_per_key(fixture_path):
    """m_2(x, z) and m_2(z, q) have two outputs each, and z, w and v lie
    outside the window, so names are numbered as the scan meets them; the
    isotopy's sums over Q[t] carry a linear table."""
    basis = [("x", 0), ("y", 0), ("p", 0), ("z", 1), ("q", 1), ("w", 1),
             ("v", 1), ("r", 2), ("s", 2)]
    half = Fraction(1, 2)
    ops = {(1, BETA_ZERO): {("y",): {"z": half, "q": Fraction(2)},
                           ("p",): {"q": Fraction(3)}},
           (2, BETA_ZERO): {("x", "z"): {"w": half, "v": Fraction(-1)},
                           ("z", "q"): {"r": Fraction(2, 3), "s": half},
                           ("q", "z"): {"r": Fraction(-1)}}}
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops=ops,
                      window=["x", "y", "p", "q", "r", "s"])
    calls = relation_calls(alg, alg.ops)
    calls += [(n, terms, tuple(reversed(names)), linear)
              for n, terms, names, linear in calls]
    found = assert_rows_agree(calls, scaled(alg.ops))
    assert any(len(acc) > 1 for sums in found for _, acc in sums)

    # Each distinct value object is scaled once: half stands for three
    # entries of two tables.
    counted = []
    n, terms, names, _ = next(call for call in calls if call[0] == 2)
    list(joined_sums(n, terms, names, {}, scale=lambda c: counted.append(c)
                     or scaled(alg.ops)(c)))
    values = [[*map(id, chain.from_iterable(map(dict.values, t.values())))]
              for t in alg.ops.values()]
    assert len(counted) == sum(len(set(v)) for v in values) \
        < sum(map(len, values))

    P = load_spec(fixture_path("commuting_isotopy.json")).isotopy
    slopes = map_tables(P.mT, lambda p: p.derivative())
    assert_rows_agree([(k, [(s1, unsigned, -1), (s2, parity, 1)], P.names,
                        slopes.get((k, beta)))
                       for (beta, k), ((s1, unsigned), (s2, parity))
                       in isotopy_sums(P, 3).items()])


def test_names_outside_the_scan_are_numbered_before_the_outputs():
    """m_1 is built first; its key (X,) holds X outside the window after the
    key (Z,) with the new output Y.  X is numbered before Y, column by column
    as the per-key join numbers it, so the sum at (a, b) lists X before Y; a
    loop that numbered names as it met them would list Y first."""
    basis = [("a", 0), ("b", 0), ("c", 1), ("X", 1), ("Z", 0), ("Y", 1),
             ("W", 2)]
    one = Fraction(1)
    ops = {(1, BETA_ZERO): {("a",): {"c": one}, ("Z",): {"Y": one},
                           ("X",): {"W": one}},
           (2, BETA_ZERO): {("c", "b"): {"X": one}, ("a", "b"): {"Z": one}}}
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops=ops, window=["a", "b", "c"])
    found = assert_rows_agree(relation_calls(alg, alg.ops))
    assert (("a", "b"), [("X", one), ("Y", one)]) in found[1]


def test_ainf_defect_rejects_beta_outside_monoid():
    alg = derham_model(1, 1)
    with pytest.raises(ValueError):
        ainf_defect(alg, (Fraction(1), 0), ())


# -- flips skip re-validation and still build the validated algebra -----------------

def test_flip_constant_equals_validated_rebuild():
    for make in VALID.values():
        alg = make()
        for cid in constant_ids(alg)[::7]:
            flipped = flip_constant(alg, cid)
            rebuilt = AInfAlgebra.from_json(flipped.to_json())
            assert flipped.ops == rebuilt.ops
            assert flipped.to_json() == rebuilt.to_json()
            assert alg.ops != flipped.ops
            assert AInfAlgebra.from_json(alg.to_json()).ops == alg.ops
    alg = derham_model(1, 1)
    with pytest.raises(ValueError, match="^no stored constant "):
        flip_constant(alg, "m2:0/0:nope,nope->nope")
    with pytest.raises(ValueError, match="^no stored constant "):
        flip_constant(alg, "m7:0/0:->x")


def test_flip_isotopy_constant_equals_validated_rebuild():
    isotopies = [commuting_isotopy_fixture()["PC"], extension_fixture()["P"]]
    for iso in isotopies:
        for cid in isotopy_constant_ids(iso):
            flipped = flip_isotopy_constant(iso, cid)
            rebuilt = Pseudoisotopy.from_json(flipped.to_json())
            assert (flipped.mT, flipped.cT) == (rebuilt.mT, rebuilt.cT)
            assert (flipped.mT, flipped.cT) != (iso.mT, iso.cT)
        with pytest.raises(ValueError, match="^no stored constant "):
            flip_isotopy_constant(iso, "ic1:0/0:nope->nope")


# -- the kept enumeration ---------------------------------------------------------

cutoffs = st.fractions(min_value=0, max_value=2, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(generators, st.lists(cutoffs, min_size=1, max_size=6),
       st.sampled_from(["increasing", "decreasing", "as drawn"]),
       st.lists(st.tuples(st.fractions(min_value=-1, max_value=3,
                                       max_denominator=12),
                          st.integers(-4, 4)), max_size=8))
def test_kept_enumeration_matches_fresh(gens, seq, order, probes):
    if order != "as drawn":
        seq = sorted(seq, reverse=order == "decreasing")
    kept = EnergyMonoid(gens)
    for cutoff in seq:
        expected = oracle_enumerate(kept.generators, cutoff)
        assert kept.enumerate(cutoff) == expected
        assert EnergyMonoid(gens).enumerate(cutoff) == expected
        for beta in probes:
            fresh = beta[0] >= 0 and beta in set(
                oracle_enumerate(kept.generators, beta[0]))
            assert (beta in kept) == fresh
        members = set(expected)
        for beta in expected:
            splits = [(b1, (beta[0] - b1[0], beta[1] - b1[1])) for b1 in expected
                      if (beta[0] - b1[0], beta[1] - b1[1]) in members]
            assert kept_splits(kept, beta) == splits
            assert AInfAlgebra([], kept).beta_splits(beta) == splits


def test_enumeration_stops_at_budget(monkeypatch):
    monkeypatch.setattr(scalars, "ENUMERATION_BUDGET", 10)
    line = EnergyMonoid([(1, 0)])
    assert len(line.enumerate(9)) == 10
    with pytest.raises(ValueError, match="more than 10 elements"):
        line.enumerate(10)
    with pytest.raises(ValueError, match="more than 10 elements"):
        (Fraction(12), 0) in line
    # A refused enumeration leaves the kept one as it was.
    assert line.enumerate(9) == oracle_enumerate(line.generators, 9)
    assert (Fraction(9), 0) in line
    assert kept_splits(line, (Fraction(1), 2)) == []


# Generators and probes whose energies share no denominator with the drawn
# cutoffs: 1/20 and 1/19 make L = 380, and no multiple of 1/7 is a multiple
# of 1/380 but 0.
RICH = [(Fraction(1, 20), 0), (Fraction(1, 19), 0), (Fraction(1, 20), 2),
        (Fraction(1, 7), -2)]
rich_generators = st.lists(st.one_of(st.sampled_from(RICH),
                                     st.tuples(st.sampled_from(ENERGIES),
                                               st.sampled_from([-2, 0, 2]))),
                           max_size=4)


def outcomes(monoid, queries):
    """What each query gives on one monoid, kept across the queries: the
    enumeration or the membership answer, or the refusal's message."""
    got = []
    for kind, value in queries:
        try:
            got.append(monoid.enumerate(value) if kind == "enumerate"
                       else value in monoid)
        except ValueError as exc:
            got.append(str(exc))
    return got


@settings(max_examples=80, deadline=None)
@given(rich_generators, st.lists(st.one_of(
    st.tuples(st.just("enumerate"),
              st.fractions(min_value=0, max_value=Fraction(1, 2),
                           max_denominator=14)),
    st.tuples(st.just("contains"),
              st.tuples(st.fractions(min_value=-1, max_value=Fraction(3, 4),
                                     max_denominator=40),
                        st.integers(-4, 4)))), min_size=1, max_size=8),
    st.sampled_from([None, 30, 200]))
def test_integer_enumeration_matches_fraction_search(gens, queries, budget):
    """Enumerations, memberships and refusals, query by query, on one kept
    monoid of each kind; with a small budget some queries are refused."""
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(scalars, "ENUMERATION_BUDGET", budget)
        assert outcomes(EnergyMonoid(gens), queries) == \
            outcomes(FractionMonoid(gens), queries)


def test_integer_enumeration_of_a_rich_monoid():
    gens = RICH[:3]
    kept, fresh = EnergyMonoid(gens), FractionMonoid(gens)
    # 1/7 and 13/37 are no multiple of 1/380.
    for cutoff in (Fraction(1, 7), Fraction(1, 2), Fraction(13, 37)):
        assert kept.enumerate(cutoff) == fresh.enumerate(cutoff)
    assert len(kept.enumerate(Fraction(1, 2))) == 231
    assert (Fraction(1, 7), 0) not in kept
    assert (Fraction(2, 19), 0) in kept and (Fraction(1, 10), 4) in kept
    assert (Fraction(1, 10), 6) not in kept
    assert all(type(e) is Fraction and type(mu) is int
               for e, mu in kept.enumerate(Fraction(1, 2)))


def test_integer_enumeration_refuses_as_before(monkeypatch):
    monkeypatch.setattr(scalars, "ENUMERATION_BUDGET", 50)
    for probe in (Fraction(1, 2), Fraction(3, 7)):
        messages = []
        for monoid in (EnergyMonoid(RICH[:3]), FractionMonoid(RICH[:3])):
            with pytest.raises(ValueError) as refused:
                monoid.enumerate(probe)
            messages.append(str(refused.value))
        assert messages[0] == messages[1] == (
            f"energy monoid has more than 50 elements of energy <= {probe}")


def test_ascending_queries_extend_one_enumeration():
    """Each larger request extends the kept enumeration, which a fresh one
    agrees with; the elements kept so far are the same objects."""
    kept = EnergyMonoid(RICH)
    earlier = []
    for cutoff in (Fraction(0), Fraction(1, 20), Fraction(1, 12),
                   Fraction(1, 7), Fraction(3, 10), Fraction(1, 2)):
        assert ((cutoff, 0) in kept) == ((cutoff, 0) in FractionMonoid(RICH))
        got = kept.enumerate(cutoff)
        assert got == EnergyMonoid(RICH).enumerate(cutoff)
        assert got == FractionMonoid(RICH).enumerate(cutoff)
        assert all(a is b for a, b in zip(earlier, got))
        assert len(got) >= len(earlier)
        earlier = got


# -- every (beta, n) planned at once ---------------------------------------------------

def oracle_plans(inner_ops, outer_ops, betas, n_bound):
    """{(beta, n): plan} of the per-(beta, n) planner over betas, nonempty
    plans only, the tables named by identity."""
    return {(beta, n): [(start, stop, id(inner), id(outer))
                        for start, stop, inner, outer in plan]
            for beta in betas for n in range(n_bound + 1)
            if (plan := insertion_plan(inner_ops, outer_ops, beta, n))}


def by_identity(plans):
    return {key: [(start, stop, id(inner), id(outer))
                  for start, stop, inner, outer in plan]
            for key, plan in plans.items()}


def pair_range(alg):
    """Every element of the monoid up to twice the largest stored energy:
    each sum of two stored betas lies in it."""
    top = 2 * max((beta[0] for _, beta in alg.ops), default=Fraction(0))
    return alg.monoid.enumerate(top)


@settings(max_examples=100, deadline=None)
@given(sparse_algebras(), st.integers(0, 7))
def test_insertion_plans_match_per_beta_plans(alg, n_bound):
    """Curvature entries, gapped and truncated algebras; in modulo mode the
    pair sums above the cutoff are planned here and dropped by the scan."""
    plans = insertion_plans(alg.ops, alg.ops, n_bound)
    assert by_identity(plans) == oracle_plans(alg.ops, alg.ops,
                                              pair_range(alg), n_bound)
    in_range = set(alg.beta_range())
    assert all(beta in in_range or beta[0] > alg.cutoff
               for beta, _ in plans)


@settings(max_examples=100, deadline=None)
@given(sparse_algebras())
def test_scope_plans_exactly_the_betas_with_a_stored_pair(alg):
    """The scope of check_ainf against the old enumeration: every monoid
    element up to the top energy (beta_range) with a split (beta_splits)
    into stored tables m_{j,beta1} and m_{k,beta2}, k >= 1, lists the
    arities j + k - 1 <= relation_arity_bound of those pairs, and no other
    beta is listed."""
    report = check_ainf(alg)
    n_bound = report["relation_arity_bound"]
    planned = []
    for beta in alg.beta_range():
        ns = sorted({j + k - 1 for b1, b2 in alg.beta_splits(beta)
                     for j, inner in alg.ops if inner == b1
                     for k, outer in alg.ops if outer == b2
                     if k and j + k - 1 <= n_bound})
        if ns:
            planned.append({"beta": beta_json(beta), "n": ns})
    top = alg.cutoff if alg.mode == "modulo" else 2 * max(
        (beta[0] for _, beta in alg.ops), default=Fraction(0))
    assert report["scope"] == {"generators": alg.monoid.to_json(),
                               "top_energy": scalars.frac_str(top),
                               "planned": planned}


def test_pair_sums_above_the_cutoff_are_planned_and_dropped():
    """m_1 and m_0 at energy 1/2 and cutoff 3/4: m_1 m_1 and m_1 m_0 sum to
    energy 1, outside the checked range, where the pairs are planned but not
    scanned; without the cutoff both relations fail."""
    half = (Fraction(1, 2), 0)
    basis = [("x", 1), ("y", 2), ("z", 3)]
    ops = {(1, half): {("x",): {"y": Fraction(1)}, ("y",): {"z": Fraction(1)}},
           (0, half): {(): {"y": Fraction(1)}}}
    alg = AInfAlgebra(basis, EnergyMonoid([half]), "modulo", Fraction(3, 4),
                      None, ops)
    plans = insertion_plans(alg.ops, alg.ops, 1)
    assert sorted(plans) == [((Fraction(1), 0), 0), ((Fraction(1), 0), 1)]
    assert alg.beta_range() == [BETA_ZERO, half]
    report = check_ainf(alg)
    assert report == oracle_check_ainf(alg)
    assert report["status"] == "PASS"
    gapped = AInfAlgebra(basis, alg.monoid, ops=ops)
    report = check_ainf(gapped)
    assert [(c["beta"], c["n"]) for c in report["counterexamples"]] == \
        [(["1", 0], 0), (["1", 0], 1)]
    assert report == oracle_check_ainf(gapped)


# -- every single flip of the small fixtures -----------------------------------------

SWEEP = {"derham_t1": 55, "gapped_product": 35, "isotopy_extend": 9,
         "commuting_isotopy": 33}


def _sweep(fixture_path):
    for name, count in SWEEP.items():
        path = fixture_path(f"{name}.json")
        alg = load_spec(path).algebra
        ids = constant_ids(alg)
        assert len(ids) == count
        yield path, alg, ids


def test_every_single_flip_matches_the_oracle(fixture_path):
    for path, alg, ids in _sweep(fixture_path):
        assert check_ainf(alg) == oracle_check_ainf(alg)
        for cid in ids:
            flipped = flip_constant(alg, cid)
            assert check_ainf(flipped) == oracle_check_ainf(flipped), (path, cid)


def test_mutate_exits_one_exactly_where_the_oracle_fails(fixture_path, capsys):
    for path, alg, ids in _sweep(fixture_path):
        for cid in ids[::4]:
            expected = oracle_check_ainf(flip_constant(alg, cid))
            code = main(["check-ainf", path, "--mutate", f"flip:{cid}"])
            report = json.loads(capsys.readouterr().out)
            assert code == (1 if expected["status"] == "FAIL" else 0), cid
            assert report["status"] == expected["status"]
            assert report["counterexamples"] == expected["counterexamples"]


# -- the work of a scan is bounded by its terms ----------------------------------------

def test_high_arity_constant_scans_only_its_terms():
    """One m6 constant on seven names puts the relation arity bound at 11:
    window^11 holds 7^11 tuples, but no key has z as an input, so the join
    forms no term at all."""
    basis = [(f"a{i}", 1) for i in range(6)] + [("z", 2)]
    inputs = tuple(f"a{i}" for i in range(6))
    alg = AInfAlgebra(basis, EnergyMonoid([]),
                      ops={(6, BETA_ZERO): {inputs: {"z": Fraction(1)}}})
    started = time.perf_counter()
    report = check_ainf(alg)
    assert time.perf_counter() - started < 1.0
    assert report == {"check": "ainf", "status": "PASS", "max_arity": 6,
                      "relation_arity_bound": 11,
                      "scope": {"generators": [], "top_energy": "0",
                                "planned": [{"beta": ["0", 0], "n": [11]}]},
                      "counterexamples": []}


def test_high_arity_failure_matches_the_oracle():
    """Four m3 constants on three names, x of odd shifted degree, where the
    relation at (x, x, x, x, x) fails after its signed terms are summed."""
    basis = [("x", 0), ("z", -1), ("w", -2)]
    ops = {(3, BETA_ZERO): {("x", "x", "x"): {"z": Fraction(2)},
                            ("z", "x", "x"): {"w": Fraction(3)},
                            ("x", "z", "x"): {"w": Fraction(-3)},
                            ("x", "x", "z"): {"w": Fraction(1, 2)}}}
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops=ops)
    report = check_ainf(alg)
    assert report["status"] == "FAIL"
    assert report["relation_arity_bound"] == 5
    assert report == oracle_check_ainf(alg)
    for cid in constant_ids(alg):
        flipped = flip_constant(alg, cid)
        assert check_ainf(flipped) == oracle_check_ainf(flipped)


def test_codes_beyond_64_bits_match_the_old_join():
    """Arity bound 11 over 62 names: window^11 has more than 2^63 tuples, so
    the codes of the failing tuple, made of the last names, exceed 64 bits.
    m_6(a0, ..., a5) = z feeds m_6(z, a0, ..., a4) = w, which fails on the
    tuple (a0, ..., a5, a0, ..., a4) alone."""
    fillers = [(f"b{i}", 0) for i in range(54)]
    basis = fillers + [(f"a{i}", 1) for i in range(6)] + [("z", 2), ("w", 3)]
    a = tuple(f"a{i}" for i in range(6))
    alg = AInfAlgebra(basis, EnergyMonoid([]), ops={(6, BETA_ZERO): {
        a: {"z": Fraction(2)}, ("z",) + a[:5]: {"w": Fraction(3, 5)}}})
    assert len(alg.window) ** 11 > 2 ** 63
    found = assert_scans_agree(alg, per_tuple=False)
    assert found == [(BETA_ZERO, 11, a + a[:5], {"w": 30})]  # D^2 * 6/5, D = 5
    report = check_ainf(alg)
    assert report["counterexamples"] == [{
        "beta": ["0", 0], "n": 11, "inputs": list(a + a[:5]),
        "defect": {"w": [["0", "6/5"]]}}]


def test_every_single_flip_scans_as_the_old_join(fixture_path):
    """First violations and their terms of every single flip of the small
    fixtures and of a spaced panel of derham_t2, against the name-tuple
    join and the per-tuple scan."""
    for name in ("derham_t1", "gapped_product"):
        alg = load_spec(fixture_path(f"{name}.json")).algebra
        assert_scans_agree(alg)
        for cid in constant_ids(alg):
            assert_scans_agree(flip_constant(alg, cid))
    alg = load_spec(fixture_path("derham_t2.json")).algebra
    ids = constant_ids(alg)
    for cid in ids[len(ids) // 24::len(ids) // 12]:
        assert_scans_agree(flip_constant(alg, cid))
