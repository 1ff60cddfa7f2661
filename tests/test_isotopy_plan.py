"""The pseudoisotopy checks on the shared joined-sum kernel, against the
code they replaced.

`check_pseudoisotopy` and `extend_one_level` sum every quadratic sum with
`ainf.joined_sums`, the join over the stored tables: the A-infinity relation
of m^t (through `ainf.relation_violations`) and the two insertion plans of
`isotopy_sums`. The extension sums over Q[t]; the check sums integers, each
stored polynomial p read as D*p(2^W) at a point beyond every root of a
scaled defect, and replays its failures over Q[t]. Five older versions stay
here as differential oracles:

- the per-tuple sums, which re-enumerate the beta-splits and the Koszul
  signs on every tuple, as the isotopy code did before it shared the kernel;
- the planned per-tuple loops, which ran every tuple of the scope through
  `insertion_sum`, as the differential equation and the extension did before
  they became joins;
- the planned per-tuple relation scan of `test_relation_plan`;
- the join on name tuples of `test_relation_plan`, checked call by call on
  each call's tables, read at the evaluation point where the call reads them
  there;
- the joined check over Q[t], as `check_pseudoisotopy` was before it
  evaluated the families at one integer point.

The plans of `isotopy_sums`, built for every (beta, k) at once from the
pairs of stored tables, are checked against the per-(beta, k) planner
`insertion_plan` of `test_relation_plan`. Reports, sums and extensions must
agree exactly, down to which violation comes first. Families whose defects vanish at a point too close to zero
show that the width of the point is load-bearing.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from ainfkit.ainf import AInfAlgebra, add_into, beta_json, insertion_plans, \
    insertion_sum, joined_sums, relation_violations
from ainfkit import ainf, isotopy
from ainfkit.isotopy import (
    NO_SUMS,
    Pseudoisotopy,
    check_pseudoisotopy,
    extend_one_level,
    flip_isotopy_constant,
    isotopy_constant_ids,
    isotopy_sums,
)
from ainfkit.cli import main
from ainfkit.models import chain_fixture, extension_fixture
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid
from ainfkit.signs import koszul_prefix_sign, shifted_parities, sign_pow
from ainfkit.specio import load_spec
from test_relation_plan import by_identity, insertion_plan, kept_splits, \
    oracle_plans, oracle_relation_violations, tuple_joined_sums


# -- the replaced code, kept as the oracle ---------------------------------------
# Copied from the per-tuple isotopy code; `P.beta_splits(beta)`, a method that
# only delegated to the monoid's split query, reads `beta_splits(P, beta)`,
# and that query is the test copy `kept_splits`.

def beta_splits(P, beta):
    return kept_splits(P.monoid, beta)


def _add_into(acc, contrib, scale=1):
    for o, p in contrib.items():
        term = p * scale
        acc[o] = acc[o] + term if o in acc else term


def _poly_defect(P: Pseudoisotopy, tables, beta, names) -> dict:
    """Quadratic-relation sum of a polynomial family, as out -> Poly."""
    names = tuple(names)
    nlen = len(names)
    degs = [P.degree(nm) for nm in names]
    acc = {}
    for b_inner, b_outer in beta_splits(P, beta):
        for j in range(nlen + 1):
            inner_table = tables.get((j, b_inner))
            if not inner_table:
                continue
            outer_table = tables.get((nlen - j + 1, b_outer))
            if not outer_table:
                continue
            for i in range(1, nlen - j + 2):
                inner = inner_table.get(names[i - 1:i - 1 + j])
                if not inner:
                    continue
                sign = koszul_prefix_sign(degs, i)
                prefix, suffix = names[:i - 1], names[i - 1 + j:]
                for mid, p_in in inner.items():
                    outer = outer_table.get(prefix + (mid,) + suffix)
                    if not outer:
                        continue
                    for out, p_out in outer.items():
                        term = p_in * p_out * sign
                        acc[out] = acc[out] + term if out in acc else term
    return {o: p for o, p in acc.items() if not p.is_zero()}


def oracle_isotopy_sums(P: Pseudoisotopy, k, beta, names):
    """The two mixed sums of the differential equation on a basis tuple."""
    names = tuple(names)
    degs = [P.degree(nm) for nm in names]
    s1, s2 = {}, {}
    for b_outer, b_inner in beta_splits(P, beta):
        for j in range(k + 1):
            for (acc, outer_tables, inner_tables, signed) in (
                (s1, P.mT, P.cT, False),
                (s2, P.cT, P.mT, True),
            ):
                inner_table = inner_tables.get((j, b_inner))
                outer_table = outer_tables.get((k - j + 1, b_outer))
                if not inner_table or not outer_table:
                    continue
                for i in range(1, k - j + 2):
                    inner = inner_table.get(names[i - 1:i - 1 + j])
                    if not inner:
                        continue
                    sign = koszul_prefix_sign(degs, i) if signed else 1
                    prefix, suffix = names[:i - 1], names[i - 1 + j:]
                    for mid, p_in in inner.items():
                        outer = outer_table.get(prefix + (mid,) + suffix)
                        if not outer:
                            continue
                        for out, p_out in outer.items():
                            term = p_in * p_out * sign
                            acc[out] = acc[out] + term if out in acc else term
    return (
        {o: p for o, p in s1.items() if not p.is_zero()},
        {o: p for o, p in s2.items() if not p.is_zero()},
    )


def oracle_check_pseudoisotopy(P: Pseudoisotopy, m0=None, m1=None,
                               _parity_factor=None) -> dict:
    violations = []
    pf = sign_pow(P.n + 1) if _parity_factor is None else _parity_factor
    betas = P.monoid.enumerate(P.cutoff)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)

    # Quadratic relations of m^t, polynomially in t.
    n_bound = max(2 * max_m - 1, 0)
    for beta in betas:
        for nlen in range(n_bound + 1):
            feasible = any(
                (j, b1) in P.mT and (nlen - j + 1, b2) in P.mT
                for b1, b2 in beta_splits(P, beta)
                for j in range(nlen + 1)
            )
            if not feasible:
                continue
            for names in product(P.names, repeat=nlen):
                defect = _poly_defect(P, P.mT, beta, names)
                if defect:
                    violations.append({
                        "clause": "ainf-family", "beta": beta_json(beta),
                        "n": nlen, "inputs": list(names),
                        "defect": {o: p.to_json() for o, p in sorted(defect.items())},
                    })
                    break

    # The differential equation.
    k_bound = max(max_m, max_m + max_c - 1, 0)
    for beta in betas:
        for k in range(k_bound + 1):
            for names in product(P.names, repeat=k):
                acc = {}
                table = P.mT.get((k, beta), {}).get(tuple(names), {})
                for out, poly in table.items():
                    _add_into(acc, {out: poly.derivative()}, pf)
                s1, s2 = oracle_isotopy_sums(P, k, beta, names)
                _add_into(acc, s1, -1)
                _add_into(acc, s2, 1)
                acc = {o: p for o, p in acc.items() if not p.is_zero()}
                if acc:
                    violations.append({
                        "clause": "differential-equation",
                        "beta": beta_json(beta), "k": k, "inputs": list(names),
                        "defect": {o: p.to_json() for o, p in sorted(acc.items())},
                    })

    # Endpoint comparisons.
    for label, target, t in (("endpoint-0", m0, 0), ("endpoint-1", m1, 1)):
        if target is None:
            continue
        got = P.endpoint(t)
        if got.ops != target.ops:
            violations.append({"clause": label,
                               "detail": "evaluated family differs from the "
                                         "given algebra"})
    return {
        "check": "pseudoisotopy",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def oracle_extend_one_level(m0, m1, P):
    """The transport loop of extend_one_level, on per-tuple sums (the input
    validation is left out: the inputs below are valid)."""
    e0, e1 = m0.cutoff, m1.cutoff
    new_betas = [b for b in m1.monoid.enumerate(e1) if b[0] > e0]
    sign_n = sign_pow(P.n)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)
    k_candidates = [k for (k, b) in m1.ops if b in new_betas]
    k_bound = max([max_m + max_c - 1, 0] + k_candidates)

    new_tau_tables = {}
    for beta in new_betas:
        for k in range(k_bound + 1):
            for names in product(m1.names, repeat=k):
                acc = {}
                for out, cf in m1.op_on_names(k, beta, names).items():
                    _add_into(acc, {out: Poly.const(cf)})
                s1, s2 = oracle_isotopy_sums(P, k, beta, names)
                for out, poly in s1.items():
                    _add_into(acc, {out: poly.integral_from_to_one()}, sign_n)
                for out, poly in s2.items():
                    _add_into(acc, {out: poly.integral_from_to_one()}, -sign_n)
                acc = {o: p for o, p in acc.items() if not p.is_zero()}
                if acc:
                    new_tau_tables.setdefault((k, beta), {})[tuple(names)] = acc

    ext_ops = {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
               for key, tbl in m0.ops.items()}
    for key, tbl in new_tau_tables.items():
        for inputs, combo in tbl.items():
            for out, poly in combo.items():
                val = poly(Fraction(0))
                if val != 0:
                    ext_ops.setdefault(key, {}).setdefault(inputs, {})[out] = val
    m_ext = AInfAlgebra(m0.basis, m0.monoid, "modulo", e1, m0.unit,
                        ext_ops, m0.window)

    ext_mt = {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
              for key, tbl in P.mT.items()}
    for key, tbl in new_tau_tables.items():
        for inputs, combo in tbl.items():
            ext_mt.setdefault(key, {})[inputs] = dict(combo)
    p_ext = Pseudoisotopy(P.n, P.basis, P.monoid, e1, P.unit, ext_mt,
                          {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
                           for key, tbl in P.cT.items()},
                          P.window)
    return m_ext, p_ext


# The planned per-tuple code: the differential-equation loop of
# check_pseudoisotopy and the transport loop of extend_one_level, copied
# verbatim from before both became joins, one insertion_sum per tuple of
# scope(k)^k (m1.names^k in the transport).  `isotopy_sums`, which makes
# their plans, is copied with them; the m^t relation is scanned by the
# planned per-tuple relation scan on the same scope.

def planned_isotopy_sums(P: Pseudoisotopy, k, beta):
    return ((insertion_plan(P.cT, P.mT, beta, k), dict.fromkeys(P.names, 0)),
            (insertion_plan(P.mT, P.cT, beta, k), P._parity))


def planned_check_pseudoisotopy(P: Pseudoisotopy, m0=None, m1=None,
                                _parity_factor=None) -> dict:
    violations = []
    pf = sign_pow(P.n + 1) if _parity_factor is None else _parity_factor
    betas = P.monoid.enumerate(P.cutoff)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)

    def scope(n):
        return P.names if n == 1 else P.window

    n_bound = max(2 * max_m - 1, 0)
    for beta, n, names, defect in oracle_relation_violations(
            P.mT, P._parity, betas, n_bound,
            lambda n: product(scope(n), repeat=n)):
        violations.append({
            "clause": "ainf-family", "beta": beta_json(beta),
            "n": n, "inputs": list(names),
            "defect": {o: p.to_json() for o, p in sorted(defect.items())},
        })

    # The differential equation.
    k_bound = max(max_m, max_m + max_c - 1, 0)
    for beta in betas:
        for k in range(k_bound + 1):
            (s1, unsigned), (s2, parity) = planned_isotopy_sums(P, k, beta)
            m_table = P.mT.get((k, beta), {})
            if not (s1 or s2 or m_table):
                continue
            for names in product(scope(k), repeat=k):
                acc = {out: poly.derivative() * pf
                       for out, poly in m_table.get(names, {}).items()}
                add_into(acc, insertion_sum(s1, unsigned, names), -1)
                add_into(acc, insertion_sum(s2, parity, names), 1)
                acc = {o: p for o, p in acc.items() if p}
                if acc:
                    violations.append({
                        "clause": "differential-equation",
                        "beta": beta_json(beta), "k": k, "inputs": list(names),
                        "defect": {o: p.to_json() for o, p in sorted(acc.items())},
                    })

    # Endpoint comparisons.
    for label, target, t in (("endpoint-0", m0, 0), ("endpoint-1", m1, 1)):
        if target is None:
            continue
        got = P.endpoint(t)
        if got.ops != target.ops:
            violations.append({"clause": label,
                               "detail": "evaluated family differs from the "
                                         "given algebra"})
    return {
        "check": "pseudoisotopy",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def planned_extend_one_level(m0, m1, P):
    """The transport of extend_one_level (the input validation is left out:
    the inputs below are valid)."""
    e0, e1 = m0.cutoff, m1.cutoff
    new_betas = [b for b in m1.monoid.enumerate(e1) if b[0] > e0]
    sign_n = sign_pow(P.n)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)
    k_candidates = [k for (k, b) in m1.ops if b in new_betas]
    k_bound = max([max_m + max_c - 1, 0] + k_candidates)

    new_tau_tables = {}
    for beta in new_betas:
        for k in range(k_bound + 1):
            (s1, unsigned), (s2, parity) = planned_isotopy_sums(P, k, beta)
            m1_table = m1.op_table(k, beta)
            if not (s1 or s2 or m1_table):
                continue
            for names in product(m1.names, repeat=k):
                acc = {out: Poly.const(cf)
                       for out, cf in m1_table.get(names, {}).items()}
                for out, poly in insertion_sum(s1, unsigned, names).items():
                    add_into(acc, {out: poly.integral_from_to_one()}, sign_n)
                for out, poly in insertion_sum(s2, parity, names).items():
                    add_into(acc, {out: poly.integral_from_to_one()}, -sign_n)
                acc = {o: p for o, p in acc.items() if p}
                if acc:
                    new_tau_tables.setdefault((k, beta), {})[names] = acc

    ext_ops = {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
               for key, tbl in m0.ops.items()}
    for key, tbl in new_tau_tables.items():
        for inputs, combo in tbl.items():
            for out, poly in combo.items():
                val = poly(Fraction(0))
                if val != 0:
                    ext_ops.setdefault(key, {}).setdefault(inputs, {})[out] = val
    m_ext = AInfAlgebra(m0.basis, m0.monoid, "modulo", e1, m0.unit,
                        ext_ops, m0.window)

    ext_mt = {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
              for key, tbl in P.mT.items()}
    for key, tbl in new_tau_tables.items():
        for inputs, combo in tbl.items():
            ext_mt.setdefault(key, {})[inputs] = dict(combo)
    p_ext = Pseudoisotopy(P.n, P.basis, P.monoid, e1, P.unit, ext_mt,
                          {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
                           for key, tbl in P.cT.items()},
                          P.window)
    return m_ext, p_ext


# The joined check over Q[t]: the body of check_pseudoisotopy as it was
# before it evaluated the families at one integer point, copied verbatim but
# for its name and `planned_isotopy_sums`, the copy of `isotopy_sums`.

def joined_check_pseudoisotopy(P: Pseudoisotopy, m0=None, m1=None,
                               _parity_factor=None) -> dict:
    """All pseudoisotopy axioms as exact polynomial identities in t."""
    violations = []
    pf = sign_pow(P.n + 1) if _parity_factor is None else _parity_factor
    betas = P.monoid.enumerate(P.cutoff)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)

    # Quadratic relations of m^t: the A-infinity relation over Q[t].  Both
    # identities are scanned as check_ainf scans an algebra: every name at
    # arity 1, the window beyond.
    def scope(n):
        return P.names if n == 1 else P.window

    n_bound = max(2 * max_m - 1, 0)
    for beta, n, names, defect in relation_violations(
            P.mT, P._parity, betas, n_bound, scope):
        violations.append({
            "clause": "ainf-family", "beta": beta_json(beta),
            "n": n, "inputs": list(names),
            "defect": {o: p.to_json() for o, p in sorted(defect.items())},
        })

    # The differential equation: pf d/dt m^t - S1 + S2 = 0.
    k_bound = max(max_m, max_m + max_c - 1, 0)
    index = {}
    for beta in betas:
        for k in range(k_bound + 1):
            (s1, unsigned), (s2, parity) = planned_isotopy_sums(P, k, beta)
            derivative = {names: {out: poly.derivative() * pf
                                  for out, poly in combo.items()}
                          for names, combo in P.mT.get((k, beta), {}).items()}
            for names, acc in joined_sums(
                    k, [(s1, unsigned, -1), (s2, parity, 1)], scope(k),
                    index, derivative):
                violations.append({
                    "clause": "differential-equation",
                    "beta": beta_json(beta), "k": k, "inputs": list(names),
                    "defect": {o: p.to_json() for o, p in sorted(acc.items())},
                })

    # Endpoint comparisons.
    for label, target, t in (("endpoint-0", m0, 0), ("endpoint-1", m1, 1)):
        if target is None:
            continue
        got = P.endpoint(t)
        if got.ops != target.ops:
            violations.append({"clause": label,
                               "detail": "evaluated family differs from the "
                                         "given algebra"})
    return {
        "check": "pseudoisotopy",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def assert_same_extension(m0, m1, P, *oracles):
    m_ext, p_ext = extend_one_level(m0, m1, P)
    for oracle in oracles:
        o_ext, o_p = oracle(m0, m1, P)
        assert m_ext.ops == o_ext.ops
        assert m_ext.to_json() == o_ext.to_json()
        assert (p_ext.mT, p_ext.cT) == (o_p.mT, o_p.cT)
        assert p_ext.to_json() == o_p.to_json()


# -- the planned sums on one tuple ---------------------------------------------------

def planned_sums(P, k, beta, names):
    plans = isotopy_sums(P, k).get((beta, k), NO_SUMS)
    return tuple(insertion_sum(plan, parity, tuple(names))
                 for plan, parity in plans)


# -- random sparse polynomial families ------------------------------------------------

ENERGIES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
COEFFS = [-2, -1, 0, 1, 2]


@st.composite
def sparse_families(draw, windowed=False, coeffs=COEFFS):
    """Degree-consistent sparse m^t and c^t families (arity <= 3, t-degree
    <= 2, coefficients from coeffs) over a gapped monoid with one or two
    generators, with no promise that the pseudoisotopy axioms hold.  When
    windowed, the window is drawn too: a proper subset of the names in any
    order, or none."""
    # Both parities are present, so most drawn inputs meet some output.
    degrees = [0, 1] + draw(st.lists(st.integers(-1, 2), max_size=1))
    basis = [(f"a{i}", d) for i, d in enumerate(degrees)]
    names = [nm for nm, _ in basis]
    monoid = EnergyMonoid(draw(st.lists(
        st.tuples(st.sampled_from(ENERGIES), st.sampled_from([-2, 0, 2])),
        min_size=1, max_size=2)))
    cutoff = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4)]))
    betas = monoid.enumerate(cutoff)

    def family(drop, count, allowed):
        tables = {}
        for _ in range(count):
            k = draw(st.sampled_from([0, 1, 1, 2, 2, 3]))
            inputs = tuple(draw(st.lists(st.sampled_from(names),
                                         min_size=k, max_size=k)))
            in_deg = sum(dict(basis)[nm] for nm in inputs)
            keys = [(beta, out) for beta in betas for out, d in basis
                    if d == in_deg + drop - k - beta[1] and allowed(k, beta)]
            if not keys:
                continue
            beta, out = draw(st.sampled_from(keys))
            t_degree = 0 if beta == BETA_ZERO else draw(st.integers(0, 2))
            poly = Poly([draw(st.sampled_from(coeffs))
                         for _ in range(t_degree + 1)])
            tables.setdefault((k, beta), {}).setdefault(inputs, {})[out] = poly
        return tables

    mT = family(2, draw(st.integers(4, 14)),
                lambda k, beta: (k, beta) != (0, BETA_ZERO))
    cT = family(1, draw(st.integers(1, 8)), lambda k, beta: beta != BETA_ZERO)
    window = draw(st.none() | st.lists(st.sampled_from(names), unique=True,
                                       max_size=len(names) - 1)) \
        if windowed else None
    return Pseudoisotopy(draw(st.integers(0, 2)), basis, monoid, cutoff, None,
                         mT, cT, window)


@settings(max_examples=60, deadline=None)
@given(sparse_families(), st.data())
def test_planned_isotopy_check_matches_per_tuple_check(P, data):
    families = [P]
    ids = isotopy_constant_ids(P)
    if ids:
        families.append(flip_isotopy_constant(P, data.draw(st.sampled_from(ids))))
    for fam in families:
        report = check_pseudoisotopy(fam)
        assert report == oracle_check_pseudoisotopy(fam)
        assert report == joined_check_pseudoisotopy(fam)


@settings(max_examples=80, deadline=None)
@given(sparse_families(), st.data())
def test_joined_family_scan_matches_per_tuple_scan(P, data):
    """The ainf-family clause on random Q[t] tables: the same first
    violations with the same polynomial terms, before and after one flip."""
    families = [P]
    ids = isotopy_constant_ids(P)
    if ids:
        families.append(flip_isotopy_constant(P, data.draw(st.sampled_from(ids))))
    for fam in families:
        n_bound = max(2 * max((k for k, _ in fam.mT), default=0) - 1, 0)
        args = (fam.mT, shifted_parities(dict(fam.basis)),
                fam.monoid.enumerate(fam.cutoff), n_bound)
        assert list(relation_violations(*args, lambda n: fam.names)) == \
            list(oracle_relation_violations(
                *args, lambda n: product(fam.names, repeat=n)))


@settings(max_examples=60, deadline=None)
@given(sparse_families(), st.data())
def test_planned_sums_match_per_tuple_sums(P, data):
    # Betas above the family's cutoff are where extend_one_level uses them.
    beta = data.draw(st.sampled_from(P.monoid.enumerate(2 * P.cutoff)))
    k = data.draw(st.integers(0, 4))
    names = data.draw(st.lists(st.sampled_from(P.names), min_size=k,
                               max_size=k))
    assert planned_sums(P, k, beta, names) == \
        oracle_isotopy_sums(P, k, beta, names)


@settings(max_examples=60, deadline=None)
@given(sparse_families(), st.integers(0, 5))
def test_isotopy_sums_match_per_beta_plans(P, k_bound):
    """The plans of c^t into m^t and of m^t into c^t, built at once from the
    pairs of stored tables, at every (beta, k <= k_bound) up to twice the
    cutoff (extend_one_level reads them above it) against the per-(beta, k)
    planner, and isotopy_sums against its copy."""
    betas = P.monoid.enumerate(2 * P.cutoff)
    for inner, outer in ((P.cT, P.mT), (P.mT, P.cT)):
        assert by_identity(insertion_plans(inner, outer, k_bound)) == \
            oracle_plans(inner, outer, betas, k_bound)
    expected = {}
    for beta in betas:
        for k in range(k_bound + 1):
            (s1, unsigned), (s2, parity) = planned_isotopy_sums(P, k, beta)
            if s1 or s2:
                expected[(beta, k)] = ((by_identity({0: s1})[0], unsigned),
                                       (by_identity({0: s2})[0], parity))
    got = {key: ((by_identity({0: s1})[0], unsigned),
                 (by_identity({0: s2})[0], parity))
           for key, ((s1, unsigned), (s2, parity)) in
           isotopy_sums(P, k_bound).items()}
    assert got == expected
    assert list(got) == sorted(got)


def new_level(data, P):
    """A few degree-consistent constants at the next energy level above the
    cutoff of P, as ((k, beta), inputs, output, coefficient) entries."""
    e1 = min(b[0] for b in P.monoid.enumerate(2 * P.cutoff) if b[0] > P.cutoff)
    betas = [b for b in P.monoid.enumerate(e1) if b[0] == e1]
    entries = []
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, 3))
        inputs = tuple(data.draw(st.lists(st.sampled_from(P.names),
                                          min_size=k, max_size=k)))
        in_deg = sum(P.degree(nm) for nm in inputs)
        keys = [(beta, out) for beta in betas for out, d in P.basis
                if d == in_deg + 2 - k - beta[1]]
        if keys:
            beta, out = data.draw(st.sampled_from(keys))
            entries.append(((k, beta), inputs, out,
                            Fraction(data.draw(st.sampled_from([-2, -1, 1, 2])))))
    return e1, entries


def one_level_up(P, level):
    """(m0, m1) of one extension step along P: its t = 0 endpoint, and its
    t = 1 endpoint with the new level's constants added."""
    e1, entries = level
    ops = P.endpoint(1).ops
    for key, inputs, out, c in entries:
        ops.setdefault(key, {}).setdefault(inputs, {})[out] = c
    return P.endpoint(0), AInfAlgebra(P.basis, P.monoid, "modulo", e1, None,
                                      ops, P.window)


@settings(max_examples=50, deadline=None)
@given(sparse_families(windowed=True), st.data())
def test_isotopy_check_and_extension_match_planned_per_tuple_code(P, data):
    """check_pseudoisotopy and extend_one_level against the per-tuple loops
    they replaced, with and without a window, before and after one flip."""
    level = new_level(data, P)
    families = [P]
    ids = isotopy_constant_ids(P)
    if ids:
        families.append(flip_isotopy_constant(P, data.draw(st.sampled_from(ids))))
    for fam in families:
        assert check_pseudoisotopy(fam) == planned_check_pseudoisotopy(fam)
        assert_same_extension(*one_level_up(fam, level), fam,
                              planned_extend_one_level)


# -- the extension fixtures -------------------------------------------------------------

def _extension_steps():
    for params in ({}, {"n": 1}, {"lam": -2, "sig": 5, "rho": 1}):
        fix = extension_fixture(**params)
        yield fix["m0"], fix["m1"], fix["P"]
        # A flipped correction keeps both endpoints, so it still extends.
        for cid in isotopy_constant_ids(fix["P"]):
            if cid.startswith("ic"):
                yield fix["m0"], fix["m1"], flip_isotopy_constant(fix["P"], cid)
    fix = chain_fixture()
    current = fix["m0"]
    for m_next, p in fix["chain"]:
        yield current, m_next, p
        current, _ = oracle_extend_one_level(current, m_next, p)


def test_extension_matches_per_tuple_transport():
    steps = list(_extension_steps())
    assert len(steps) == 8
    for m0, m1, P in steps:
        m_ext, p_ext = extend_one_level(m0, m1, P)
        o_ext, o_p = oracle_extend_one_level(m0, m1, P)
        assert m_ext.ops == o_ext.ops
        assert m_ext.to_json() == o_ext.to_json()
        assert (p_ext.mT, p_ext.cT) == (o_p.mT, o_p.cT)
        assert p_ext.to_json() == o_p.to_json()
        for beta in m1.monoid.enumerate(m1.cutoff):
            for k in range(4):
                for names in product(P.names, repeat=k):
                    assert planned_sums(P, k, beta, names) == \
                        oracle_isotopy_sums(P, k, beta, names)


# -- the evaluation point is wide enough, and must be ----------------------------------

def checked_with_widths(P):
    """check_pseudoisotopy(P) and the widths W it evaluated at."""
    with patch.object(isotopy, "evaluation_width",
                      wraps=isotopy.evaluation_width) as spy:
        report = check_pseudoisotopy(P)
    return report, [isotopy.evaluation_width(*call.args)
                    for call in spy.call_args_list]


def vanishing_at_two(n):
    """m_{1,0}(x) = y, m^t_{0,(1,0)} = (t - 2) x and m^t_{1,(1,0)}(x) =
    (t^2/2 - 2t) y: the m^t relation at ((1, 0), ()) is (t - 2) y, and the
    differential equation is (-1)^{n+1} x at k = 0 and (-1)^{n+1} (t - 2) y
    at k = 1.  Two of the three defects vanish at t = 2."""
    beta = (Fraction(1), 0)
    mT = {(1, BETA_ZERO): {("x",): {"y": Poly([1])}},
          (0, beta): {(): {"x": Poly([-2, 1])}},
          (1, beta): {("x",): {"y": Poly([0, -2, Fraction(1, 2)])}}}
    return Pseudoisotopy(n, [("x", 2), ("y", 3)], EnergyMonoid([(1, 0)]), 1,
                         None, mT, {})


def test_a_narrower_point_passes_defects_that_vanish_there(monkeypatch):
    for n in (0, 1):
        P = vanishing_at_two(n)
        pf = str(sign_pow(n + 1))
        report, widths = checked_with_widths(P)
        assert report == oracle_check_pseudoisotopy(P)
        assert [(v["clause"], v["defect"]) for v in report["violations"]] == [
            ("ainf-family", {"y": ["-2", "1"]}),
            ("differential-equation", {"x": [pf]}),
            ("differential-equation", {"y": [str(-2 * int(pf)), pf]})]
        assert widths[0] > 1
        # At 2^1 the scaled defects (t - 2) y and 4 (t - 2) y read zero, so
        # only the constant one is left.
        monkeypatch.setattr(isotopy, "evaluation_width", lambda bound: 1)
        assert [(v["clause"], v["defect"]) for v in
                check_pseudoisotopy(P)["violations"]] == \
            [("differential-equation", {"x": [pf]})]
        monkeypatch.undo()


def product_root_at_sixteen():
    """m^t_{0,(1,0)} = 4 x + u, m^t_{1,(1,0)}(x) = 4 y and m^t_{1,(1,0)}(u) =
    -t y: the m^t relation at ((2, 0), ()) is (16 - t) y.  Its root 16 = 2^4
    is a product of two stored coefficients: the sum of every absolute
    coefficient, S = 10, fits in 4 bits, and so does the root."""
    beta = (Fraction(1), 0)
    mT = {(0, beta): {(): {"x": Poly([4]), "u": Poly([1])}},
          (1, beta): {("x",): {"y": Poly([4])}, ("u",): {"y": Poly([0, -1])}}}
    return Pseudoisotopy(0, [("x", 2), ("u", 2), ("y", 3)],
                         EnergyMonoid([(1, 0)]), 2, None, mT, {})


def test_a_point_sized_by_the_coefficients_alone_misses_a_product(monkeypatch):
    P = product_root_at_sixteen()
    report, widths = checked_with_widths(P)
    assert report == oracle_check_pseudoisotopy(P)
    assert ("ainf-family", ["2", 0], {"y": ["16", "-1"]}) in \
        [(v["clause"], v["beta"], v["defect"]) for v in report["violations"]]
    assert widths[0] > 4
    monkeypatch.setattr(isotopy, "evaluation_width", lambda bound: 4)
    assert "ainf-family" not in \
        [v["clause"] for v in check_pseudoisotopy(P)["violations"]]


HUGE = 10 ** 30


def test_the_point_widens_with_huge_coefficients():
    """The extension fixture with parameters near 10^30, its extended
    isotopy and every single flip: the verdicts and defects are the per-tuple
    oracle's, and the width has grown by the squared size of the
    coefficients."""
    found, statuses = {}, set()
    for label, params in (("small", {}), ("huge", dict(
            lam=HUGE + 1, sig=-HUGE, zeta=HUGE - 1, rho=Fraction(HUGE, 7),
            nu=HUGE, kappa=-HUGE - 3))):
        fix = extension_fixture(**params)
        _, p_ext = extend_one_level(fix["m0"], fix["m1"], fix["P"])
        for P in (fix["P"], p_ext):
            report, widths = checked_with_widths(P)
            assert report["status"] == "PASS"
            assert report == oracle_check_pseudoisotopy(P)
            found.setdefault(label, []).extend(widths)
            for cid in isotopy_constant_ids(P):
                flipped = flip_isotopy_constant(P, cid)
                report, widths = checked_with_widths(flipped)
                assert report == oracle_check_pseudoisotopy(flipped), cid
                statuses.add((label, report["status"]))
    assert statuses == {(label, status) for label in ("small", "huge")
                        for status in ("PASS", "FAIL")}
    assert min(found["huge"]) > max(found["small"]) + 190


@settings(max_examples=40, deadline=None)
@given(sparse_families(coeffs=[HUGE, -HUGE, HUGE + 1, -HUGE + 1,
                               Fraction(HUGE, 3)]), st.data())
def test_huge_random_families_match_the_oracle(P, data):
    """Random families whose coefficients are near 10^30, where terms cancel
    down to a few units or to zero: the reports are the per-tuple oracle's."""
    families = [P]
    ids = isotopy_constant_ids(P)
    if ids:
        families.append(flip_isotopy_constant(P, data.draw(st.sampled_from(ids))))
    for fam in families:
        assert check_pseudoisotopy(fam) == oracle_check_pseudoisotopy(fam)


# -- every single flip of the bundled isotopies ----------------------------------------

ISOTOPY_SWEEP = {"isotopy_extend": 10, "commuting_isotopy": 34}


def test_every_single_isotopy_flip_matches_the_oracles(fixture_path, capsys):
    """Every im/ic constant of both bundled isotopies, flipped: the report of
    check_pseudoisotopy, in-process and through `check-isotopy --mutate`, is
    the per-tuple oracle's and the joined Q[t] check's."""
    for name, count in ISOTOPY_SWEEP.items():
        path = fixture_path(f"{name}.json")
        doc = load_spec(path)
        P = doc.isotopy
        m0 = doc.algebra if doc.algebra.cutoff == P.cutoff else None
        ids = isotopy_constant_ids(P)
        assert len(ids) == count
        statuses = set()
        for cid in [None] + ids:
            fam = P if cid is None else flip_isotopy_constant(P, cid)
            expected = oracle_check_pseudoisotopy(fam, m0=m0)
            assert check_pseudoisotopy(fam, m0=m0) == expected, (name, cid)
            assert joined_check_pseudoisotopy(fam, m0=m0) == expected
            argv = ["check-isotopy", path] + (
                [] if cid is None else ["--mutate", f"flip:{cid}"])
            code = main(argv)
            assert json.loads(capsys.readouterr().out) == expected
            assert code == (1 if expected["status"] == "FAIL" else 0)
            statuses.add((cid is None, expected["status"]))
        assert statuses == {(True, "PASS"), (False, "FAIL")}


# -- the coded join against the name-tuple join, call by call --------------------

def scaled_terms(terms, scale):
    """terms over copies of their plans' tables, each c read as scale(c)."""
    copies = {}

    def copy(table):
        if id(table) not in copies:
            copies[id(table)] = {key: {out: scale(c) for out, c in combo.items()}
                                 for key, combo in table.items()}
        return copies[id(table)]
    return [([(start, stop, copy(inner), copy(outer))
              for start, stop, inner, outer in plan], parity, sign)
            for plan, parity, sign in terms]


@contextmanager
def joins_checked_by_the_name_tuple_join():
    """joined_sums, where ainf and isotopy call it, checks each call's whole
    list of sums against the name-tuple join on a fresh index, over copies
    of the tables scaled as the call scales them; yields the list of every
    call's sums."""
    calls = []

    def both(n, terms, names, index, linear=None, scale=None):
        coded = list(joined_sums(n, terms, names, index, linear, scale))
        assert coded == list(tuple_joined_sums(
            n, terms if scale is None else scaled_terms(terms, scale), names,
            {}, linear))
        calls.append(coded)
        yield from coded

    with patch.object(ainf, "joined_sums", both), \
            patch.object(isotopy, "joined_sums", both):
        yield calls


def test_isotopy_joins_match_the_name_tuple_join(fixture_path):
    """Every join of check_pseudoisotopy, over the Kronecker-evaluated
    integer tables, on both bundled isotopies and each of their single
    flips, and of extend_one_level, over the Q[t] tables, on the extension
    steps."""
    with joins_checked_by_the_name_tuple_join() as calls:
        for name in ISOTOPY_SWEEP:
            P = load_spec(fixture_path(f"{name}.json")).isotopy
            for cid in [None] + isotopy_constant_ids(P):
                check_pseudoisotopy(
                    P if cid is None else flip_isotopy_constant(P, cid))
        checked = len(calls)
        for m0, m1, P in _extension_steps():
            extend_one_level(m0, m1, P)
    assert any(calls[:checked]) and any(calls[checked:])


@settings(max_examples=40, deadline=None)
@given(sparse_families(windowed=True), st.data())
def test_random_isotopy_joins_match_the_name_tuple_join(P, data):
    level = new_level(data, P)
    ids = isotopy_constant_ids(P)
    families = [P] + ([flip_isotopy_constant(P, data.draw(st.sampled_from(ids)))]
                      if ids else [])
    with joins_checked_by_the_name_tuple_join():
        for fam in families:
            check_pseudoisotopy(fam)
            extend_one_level(*one_level_up(fam, level), fam)


# -- the work of the isotopy sums is bounded by their terms --------------------------

def high_arity_isotopy(size, cutoff):
    """m^t_{6,(1,0)}(x^6) = (1 + t) y and c^t_{6,(1,0)}(x^6) = t x on size
    basis names: the differential equation runs up to k = 11, where
    size^11 tuples exist but only x^11 has a term."""
    basis = [("x", 1), ("y", 2)] + [(f"z{i}", i % 3) for i in range(size - 2)]
    key, xs = (6, (Fraction(1), 0)), ("x",) * 6
    return Pseudoisotopy(1, basis, EnergyMonoid([(1, 0)]), cutoff, None,
                         {key: {xs: {"y": Poly([1, 1])}}},
                         {key: {xs: {"x": Poly([0, 1])}}})


def test_high_arity_isotopy_sums_only_its_terms(tmp_path, capsys):
    """The exact report on 8 names in under a second, in-process and through
    ainfctl; on 3 names, the report of the per-tuple loop."""
    started = time.perf_counter()
    report = check_pseudoisotopy(high_arity_isotopy(8, 2))
    assert time.perf_counter() - started < 1.0
    assert report == planned_check_pseudoisotopy(high_arity_isotopy(3, 2))
    # d/dt m^t at beta = (1, 0), and -6 t (1 + t) y from c^t inside m^t at
    # each of the six slots at beta = (2, 0).
    assert [(v["clause"], v["k"], v["defect"]) for v in report["violations"]] \
        == [("differential-equation", 6, {"y": ["1"]}),
            ("differential-equation", 11, {"y": ["0", "-6", "-6"]})]
    path = tmp_path / "high_arity.json"
    path.write_text(json.dumps({"format": "ainfctl/1",
                                "isotopy": high_arity_isotopy(8, 2).to_json()}))
    started = time.perf_counter()
    code = main(["check-isotopy", str(path)])
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert json.loads(capsys.readouterr().out) == report


def high_arity_step(size):
    """One extension step from cutoff 1 to 2 along the high-arity isotopy,
    from its endpoints."""
    P = high_arity_isotopy(size, 1)
    m1 = AInfAlgebra(P.basis, P.monoid, "modulo", 2, None, P.endpoint(1).ops)
    return P.endpoint(0), m1, P


def test_high_arity_extension_sums_only_its_terms():
    started = time.perf_counter()
    m_ext, _ = extend_one_level(*high_arity_step(8))
    assert time.perf_counter() - started < 1.0
    # m^0_{11,(2,0)}(x^11) = (-1)^n int_0^1 6 t (1 + t) dt y = -5 y.
    assert m_ext.ops[(11, (Fraction(2), 0))] == {("x",) * 11: {"y": -5}}
    assert_same_extension(*high_arity_step(3), planned_extend_one_level)
