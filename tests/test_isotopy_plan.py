"""The pseudoisotopy checks on the shared insertion kernel, against the code
they replaced.

`check_pseudoisotopy` scans the A-infinity relation of m^t with
`ainf.relation_violations`, the join over the stored tables, and both
`check_pseudoisotopy` and `extend_one_level` evaluate the mixed sums of the
differential equation through the two insertion plans of `isotopy_sums`, all
over Q[t]. The per-tuple sums below re-enumerate the beta-splits and the
Koszul signs on every tuple, as the isotopy code did before it shared the
kernel, and the planned per-tuple relation scan of `test_relation_plan` runs
every tuple of the basis through `insertion_sum`, as the scan did before it
became a join. They stay here as differential oracles: reports, sums and
extensions must agree exactly, down to which violation comes first.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from ainfkit.ainf import AInfAlgebra, beta_json, insertion_sum, \
    relation_violations
from ainfkit.isotopy import (
    Pseudoisotopy,
    check_pseudoisotopy,
    extend_one_level,
    flip_isotopy_constant,
    isotopy_constant_ids,
    isotopy_sums,
)
from ainfkit.models import chain_fixture, extension_fixture
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid
from ainfkit.signs import koszul_prefix_sign, shifted_parities, sign_pow
from test_relation_plan import oracle_relation_violations


# -- the replaced code, kept as the oracle ---------------------------------------
# Copied from the per-tuple isotopy code; `P.beta_splits(beta)`, a method that
# only delegated to the monoid, reads `beta_splits(P, beta)`.

def beta_splits(P, beta):
    return P.monoid.splits(beta)


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


# -- the planned sums on one tuple ---------------------------------------------------

def planned_sums(P, k, beta, names):
    return tuple(insertion_sum(plan, parity, tuple(names))
                 for plan, parity in isotopy_sums(P, k, beta))


# -- random sparse polynomial families ------------------------------------------------

ENERGIES = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
COEFFS = [-2, -1, 0, 1, 2]


@st.composite
def sparse_families(draw):
    """Degree-consistent sparse m^t and c^t families (arity <= 3, t-degree
    <= 2) over a gapped monoid with one or two generators, with no promise
    that the pseudoisotopy axioms hold."""
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
            poly = Poly([draw(st.sampled_from(COEFFS))
                         for _ in range(t_degree + 1)])
            tables.setdefault((k, beta), {}).setdefault(inputs, {})[out] = poly
        return tables

    mT = family(2, draw(st.integers(4, 14)),
                lambda k, beta: (k, beta) != (0, BETA_ZERO))
    cT = family(1, draw(st.integers(1, 8)), lambda k, beta: beta != BETA_ZERO)
    return Pseudoisotopy(draw(st.integers(0, 2)), basis, monoid, cutoff, None,
                         mT, cT)


@settings(max_examples=60, deadline=None)
@given(sparse_families(), st.data())
def test_planned_isotopy_check_matches_per_tuple_check(P, data):
    assert check_pseudoisotopy(P) == oracle_check_pseudoisotopy(P)
    ids = isotopy_constant_ids(P)
    if ids:
        flipped = flip_isotopy_constant(P, data.draw(st.sampled_from(ids)))
        assert check_pseudoisotopy(flipped) == \
            oracle_check_pseudoisotopy(flipped)


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
