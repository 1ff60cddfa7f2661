"""Polynomial families of operations interpolating between truncated algebras.

A pseudoisotopy consists of operation families m^t_{k,beta} (degree
2 - k - mu) and correction families c^t_{k,beta} (degree 1 - k - mu) with
polynomial t-dependence, subject to:

  * m^t_{k,0} is t-independent and c^t_{k,0} = 0;
  * c^t never takes the unit as an input;
  * m^t satisfies the quadratic relations for every t (as polynomial
    identities in t);
  * the differential equation, for every (k, beta) and input tuple:

      0 = (-1)^{n+1} d/dt m^t_{k,beta}(xi)
          - sum m^t_{k-j+1,beta1}(xi_1, ..., c^t_{j,beta2}(...), ..., xi_k)
          + sum (-1)^{||xi_1||+...+||xi_{i-1}||}
                c^t_{k-j+1,beta1}(xi_1, ..., m^t_{j,beta2}(...), ..., xi_k)

    where n is the dimension parameter of the underlying object and the
    first sum carries no Koszul sign.

Given such a family modulo T^{E0} together with a target algebra modulo
T^{E1} whose operations at the new energy level are known at t = 1, the
extension formula transports them to t = 0:

    m^tau_{k,beta} = m^1_{k,beta}
        + (-1)^n     int_tau^1 [sum m^t(..., c^t(...), ...)] dt
        + (-1)^{n+1} int_tau^1 [sum +- c^t(..., m^t(...), ...)] dt

with c^tau_{k,beta} = 0 at the new level.  Terms that would involve the
unknown new-level families vanish: they pair with c^t_{j,0} = 0 or with the
new-level c, which is declared zero.

Every quadratic sum here is ainf.joined_sums, a join of the stored tables
that forms only the tuples with a term: the m^t relation is the A-infinity
relation scan (ainf.relation_violations on mT), and the two mixed sums are
the insertion plans of m^t over c^t (no sign) and of c^t over m^t (Koszul
sign), built for every (beta, k) at once, from the pairs of stored tables,
by isotopy_sums: once per check and once per extension.  The differential
equation joins them with signs -1 and +1 and the table (-1)^{n+1} d/dt
m^t, also at a (beta, k) with that table but no plan; the extension joins
them with signs (-1)^n and (-1)^{n+1} over Q[t] and integrates each sum.
Both identities hold on the scope of check_ainf, every name at arity 1 and
the window beyond.

check_pseudoisotopy runs both identities on integers, as check_ainf runs
the A-infinity relation on the integers D*c: the join reads each stored p
as D*p(2^W) (Kronecker substitution) as it indexes the tables, with 2^W
beyond every root of a tuple's scaled sum, so the integer sum vanishes
exactly when the polynomial one does (check_pseudoisotopy has the bound
and the proof).  Failing tuples are replayed over Q[t] for the report.
No scan enumerates the monoid: each visits the planned (beta, k) up to the
cutoff, or the betas its tables store.

Product compatibility is kunneth.pullback_scanner over Q[t], set up once per
check.
"""

from __future__ import annotations

from math import lcm

from ainfkit.ainf import (AInfAlgebra, OpFamilies, add_into, beta_json,
                          clean_tables, entries_json, entry_tables,
                          flip_stored, insertion_plans, insertion_sum,
                          joined_sums, map_tables, relation_violations,
                          replaced, required, space_basis, stored_entries,
                          stored_values)
from ainfkit.kunneth import kunneth_K_table, pullback_scanner, scan_betas, scan_report
from ainfkit.poly import Poly
from ainfkit.scalars import (BETA_ZERO, EnergyMonoid, frac, frac_str, json_int,
                              located, monoid_sum)
from ainfkit.signs import sign_pow

# The isotopy_sums entry of a (beta, k) where neither mixed sum has a term.
NO_SUMS = (([], None), ([], None))


class Pseudoisotopy(OpFamilies):
    """Polynomial operation/correction families modulo a cutoff energy."""

    __slots__ = ("n", "mT", "cT")

    def __init__(self, n, basis, monoid, cutoff, unit, mT, cT, window=None):
        self._load(int(n), basis, monoid, cutoff, unit, window,
                   lambda rules: clean_tables(mT or {}, rules, Poly, Poly.const),
                   lambda rules: clean_tables(cT or {}, rules, Poly, Poly.const))

    def _load(self, n, basis, monoid, cutoff, unit, window, m_tables, c_tables):
        """Validate and set the header, then both families as m_tables and
        c_tables read them under the header's rules, then the family rules."""
        cutoff = frac(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        degrees = self._header(basis, monoid, cutoff, unit, window)
        mT = m_tables((degrees, monoid, cutoff, 2, "m^t: "))
        for (_, beta), table in mT.items():
            if beta == BETA_ZERO and any(poly.degree() > 0 for combo in
                                         table.values() for poly in combo.values()):
                raise ValueError("m^t: must be t-independent at beta = 0")
        cT = c_tables((degrees, monoid, cutoff, 1, "c^t: "))
        if any(beta == BETA_ZERO for _, beta in cT):
            raise ValueError("c^t: must vanish at beta = 0")
        if unit is not None and any(unit in inputs for table in cT.values()
                                    for inputs in table):
            raise ValueError("c^t: may not take the unit as input")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mT", mT)
        object.__setattr__(self, "cT", cT)

    @staticmethod
    def unit_fault(unit, names) -> str:
        return "unit must exist and have degree 0"

    def max_arity(self) -> int:
        return max((k for k, _ in list(self.mT) + list(self.cT)), default=0)

    def endpoint(self, t) -> AInfAlgebra:
        """Evaluate m^t at a rational parameter value; modulo-mode algebra."""
        t = frac(t)
        return AInfAlgebra(self.basis, self.monoid, "modulo", self.cutoff,
                           self.unit, map_tables(self.mT, lambda p: p(t)),
                           self.window)

    # -- serialization -------------------------------------------------------
    def to_json(self):
        return {"n": self.n, **self.header_json(), "unit": self.unit,
                "mt": entries_json(self.mT, "poly", Poly.to_json),
                "ct": entries_json(self.cT, "poly", Poly.to_json)}

    @staticmethod
    def from_json(doc) -> "Pseudoisotopy":
        """The isotopy of a document: the header is read and checked first,
        then every entry of both families is validated as it is read
        (entry_tables), the last of repeated entries counting."""
        P = object.__new__(Pseudoisotopy)

        def family(key):
            return lambda rules: entry_tables(doc.get(key, []), "poly",
                                              Poly.from_json, key, rules,
                                              add=False)

        P._load(json_int(required(doc, "n"), "n"), space_basis(doc),
                EnergyMonoid.from_json(required(doc, "monoid")),
                located("cutoff", frac, required(doc, "cutoff")), doc.get("unit"),
                doc.get("window"), family("mt"), family("ct"))
        return P


def endpoint_tables(tables, t):
    """Q[t] op tables at t = 0 or 1, zeros dropped: p(0) is the constant
    coefficient of a nonzero stored p, p(1) the sum of its coefficients."""
    return map_tables(tables, (lambda p: sum(p.coeffs[1:], p.coeffs[0])) if t
                      else (lambda p: p.coeffs[0]))


def isotopy_sums(P: Pseudoisotopy, k_bound):
    """The two mixed sums of the differential equation at every (beta, k)
    with k <= k_bound, as insertion plans, each paired with the parity map of
    its sign:

    S1 = sum m^t_{k-j+1,beta1}(xi_1, ..., c^t_{j,beta2}(...), ...)  (no sign)
    S2 = sum (-1)^{prefix} c^t_{k-j+1,beta1}(xi_1, ..., m^t_{j,beta2}(...), ...)

    Returns {(beta, k): ((S1 plan, parity), (S2 plan, parity))}, sorted, over
    every (beta, k) where either plan has a term; the other plan may be
    empty.  With a sign each, they are terms of ainf.joined_sums, which sums
    them on every tuple that has a term: over Q[t], or over the integers
    when check_pseudoisotopy reads each p at its point.  Lookups at levels
    absent from the stored families contribute zero, which is exactly the
    convention under which the extension formula is well defined.
    """
    s1 = insertion_plans(P.cT, P.mT, k_bound)
    s2 = insertion_plans(P.mT, P.cT, k_bound)
    unsigned = dict.fromkeys(P.names, 0)
    return {key: ((s1.get(key, []), unsigned), (s2.get(key, []), P._parity))
            for key in sorted(s1.keys() | s2.keys())}


def evaluation_width(bound: int) -> int:
    """The least W with 2^W > bound + 1: at x = 2^W no nonzero integer
    polynomial whose coefficients are at most bound in absolute value
    vanishes."""
    return (bound + 1).bit_length()


def check_pseudoisotopy(P: Pseudoisotopy, m0: AInfAlgebra = None,
                        m1: AInfAlgebra = None) -> dict:
    """All pseudoisotopy axioms as exact polynomial identities in t.

    Both identities are scanned over the integers: each stored p becomes
    D*p(2^W), with D the lcm of the coefficient denominators of m^t and
    c^t, and the table D^2*pf*p'(2^W) is the linear one of the differential
    equation.  A tuple's integer sum is then F(2^W), where F = D^2 times
    its Q[t] defect has integer coefficients of absolute value at most
    B = L*S^2 + D*|pf|*delta*S: S is the sum of the absolute coefficients of
    every D*p, delta the largest t-degree and L a bound on the number of
    terms of a plan, sum of n - j + 1 over the stored (j, beta) with j <= n,
    both plans of the differential equation together.  Each plan term sums
    products of two D*p, one of them over distinct stored p, and a product
    of two polynomials has coefficients at most the product of their sums
    of absolute coefficients.  For x = 2^W > B + 1 and F of degree d with a
    nonzero leading coefficient, |F(x)| >= x^d - B (x^d - 1)/(x - 1) > 0, so
    F(2^W) = 0 exactly when F = 0: the test is exact, not a sample.  Each
    failing tuple's defect is replayed over Q[t] on its plan, so the report
    is the polynomial one.
    """
    violations = []
    pf = sign_pow(P.n + 1)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)
    n_bound = max(2 * max_m - 1, 0)
    k_bound = max(max_m, max_m + max_c - 1, 0)

    # The evaluation point.
    polys = [*stored_values(P.mT), *stored_values(P.cT)]
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    total = sum(abs(c.numerator) * (scale // c.denominator)
                for p in polys for c in p.coeffs)

    def slots(tables, n):
        return sum(n - j + 1 for j, _ in tables if j <= n)

    terms = max(slots(P.mT, n_bound), slots(P.mT, k_bound) + slots(P.cT, k_bound))
    top = max((p.degree() for p in polys), default=0)
    width = evaluation_width(terms * total ** 2 + scale * abs(pf) * top * total)

    def at_point(p):
        return sum(c.numerator * (scale // c.denominator) << width * i
                   for i, c in enumerate(p.coeffs))

    # The linear table of the differential equation: D^2*pf*p'(2^W) for each
    # p of m^t that moves; a constant p reads 0 and is dropped.
    slopes = {(beta, k): table for (k, beta), table in map_tables(
        P.mT, lambda p: scale * pf * at_point(p.derivative())).items()}

    # Quadratic relations of m^t: the A-infinity relation.  Both identities
    # are scanned as check_ainf scans an algebra, each p read as D*p(2^W):
    # every name at arity 1, the window beyond.  The relation scan replays
    # its failures over Q[t] on its own plans.
    def scope(n):
        return P.names if n == 1 else P.window

    for beta, n, names, defect in relation_violations(
            P.mT, P._parity, P.cutoff, n_bound, scope, at_point):
        violations.append({
            "clause": "ainf-family", "beta": beta_json(beta),
            "n": n, "inputs": list(names),
            "defect": {o: p.to_json() for o, p in sorted(defect.items())},
        })

    # The differential equation: pf d/dt m^t - S1 + S2 = 0, at every (beta, k)
    # with a plan or a slope; plans above the cutoff are out of range.
    sums = isotopy_sums(P, k_bound)
    index = {}
    for beta, k in sorted(sums.keys() | slopes.keys()):
        if beta[0] > P.cutoff:
            continue
        (s1, unsigned), (s2, parity) = sums.get((beta, k), NO_SUMS)
        for names, _ in joined_sums(k, [(s1, unsigned, -1), (s2, parity, 1)], scope(k),
                                    index, slopes.get((beta, k)), at_point):
            acc = {out: p.derivative() * pf
                   for out, p in P.mT.get((k, beta), {}).get(names, {}).items()}
            add_into(acc, insertion_sum(s1, unsigned, names), -1)
            add_into(acc, insertion_sum(s2, parity, names), 1)
            violations.append({
                "clause": "differential-equation",
                "beta": beta_json(beta), "k": k, "inputs": list(names),
                "defect": {o: p.to_json() for o, p in sorted(acc.items())
                           if p},
            })

    # Endpoint comparisons, as tables: P.endpoint(t) holds exactly these ops.
    for label, target, t in (("endpoint-0", m0, 0), ("endpoint-1", m1, 1)):
        if target is None:
            continue
        if endpoint_tables(P.mT, t) != target.ops:
            violations.append({"clause": label,
                               "detail": "evaluated family differs from the "
                                         "given algebra"})
    return {
        "check": "pseudoisotopy",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


# -- extension across one energy level ---------------------------------------------

def extend_one_level(m0: AInfAlgebra, m1: AInfAlgebra, P: Pseudoisotopy):
    """Transport new-level operations of m1 back to t = 0 along P.

    Returns (m_ext, P_ext): the extended algebra modulo T^{E1} and the
    extended pseudoisotopy whose t = 0 endpoint is m_ext and whose t = 1
    endpoint is m1.
    """
    if m0.mode != "modulo" or m1.mode != "modulo":
        raise ValueError("extension needs truncated algebras")
    if not (m0.monoid == m1.monoid == P.monoid):
        raise ValueError("all three inputs must share the energy monoid")
    if m0.basis != m1.basis or m0.basis != P.basis:
        raise ValueError("all three inputs must share the basis")
    e0, e1 = m0.cutoff, m1.cutoff
    if P.cutoff != e0:
        raise ValueError("the pseudoisotopy must live at the lower cutoff")
    if not e0 < e1:
        raise ValueError("the target cutoff must exceed the starting one")
    new_betas = [b for b in m1.monoid.enumerate(e1) if b[0] > e0]
    if any(b[0] != e1 for b in new_betas):
        raise ValueError(
            "more than one new energy level between the cutoffs; "
            "extend level by level (see extend_to)")
    if endpoint_tables(P.mT, 0) != m0.ops:
        raise ValueError("P at t = 0 does not match m0")
    m1_low = {key: tbl for key, tbl in m1.ops.items() if key[1][0] <= e0}
    if endpoint_tables(P.mT, 1) != m1_low:
        raise ValueError("P at t = 1 does not match m1 below the cutoff")

    sign_n = sign_pow(P.n)
    max_m = max((k for k, _ in P.mT), default=0)
    max_c = max((k for k, _ in P.cT), default=0)
    k_candidates = [k for (k, b) in m1.ops if b in new_betas]
    k_bound = max([max_m + max_c - 1, 0] + k_candidates)

    new_tau_tables = {}
    index = {}
    sums = isotopy_sums(P, k_bound)
    for beta in new_betas:
        for k in range(k_bound + 1):
            (s1, unsigned), (s2, parity) = sums.get((beta, k), NO_SUMS)
            tau = {names: {out: poly.integral_from_to_one()
                           for out, poly in vec.items()}
                   for names, vec in joined_sums(
                       k, [(s1, unsigned, sign_n), (s2, parity, -sign_n)],
                       m1.names, index)}
            # A nonzero integral from tau to 1 is not constant, so adding
            # the constant m1 term cancels nothing.
            for names, combo in m1.op_table(k, beta).items():
                add_into(tau.setdefault(names, {}),
                         {out: Poly.const(cf) for out, cf in combo.items()})
            if tau:
                new_tau_tables[(k, beta)] = tau

    # The new-level keys lie above e0, so they never meet the old ones.
    m_ext = AInfAlgebra(m0.basis, m0.monoid, "modulo", e1, m0.unit,
                        {**m0.ops, **endpoint_tables(new_tau_tables, 0)},
                        m0.window)
    p_ext = Pseudoisotopy(P.n, P.basis, P.monoid, e1, P.unit,
                          {**P.mT, **new_tau_tables}, P.cT, P.window)
    return m_ext, p_ext


def extend_to(m0: AInfAlgebra, chain):
    """Fold extend_one_level along a list of (target algebra, isotopy) steps."""
    current = m0
    isotopies = []
    for m_next, p in chain:
        current, p_ext = extend_one_level(current, m_next, p)
        isotopies.append(p_ext)
    return current, isotopies


# -- commuting pairs of isotopies -----------------------------------------------------

def check_commuting_isotopy(PC: Pseudoisotopy, PA: Pseudoisotopy,
                            PB: Pseudoisotopy, embA, embB) -> dict:
    """Product-compatibility of an isotopy with two factor isotopies: the
    clauses of kunneth.check_commuting for both families, as the scans of
    kunneth.pullback_scanner over Q[t].  With G_A, G_B the factor monoids: at
    beta outside both, both families of PC vanish on embedded and K-inserted
    tuples; at nonzero beta in G_A, tuples with a strict second-factor input
    kill both, and on first-factor tuples
        m^t_C(iota a_1, ..) = iota(m^t_A(a_1, ..)),
        m^t_C(.., K(a (x) b), ..) = (-1)^{|b|(||a_{i+1}||+..)} K(m^t_A(.., a, ..) (x) b),
    and the same for c^t with the extra sign (-1)^{n_B}; symmetrically for
    G_B, with (-1)^{|a|(1 + ||b_1|| + .. + ||b_i||)} and (-1)^{n_A}.  The
    shared unit is one tag, on the first-factor side, read by the second
    factor as its unit: tuples of units (or units mixed with one factor)
    belong to one factor, the first when nothing strict is present.
    """
    if PC.n != PA.n + PB.n:
        raise ValueError("dimension parameters must satisfy n_C = n_A + n_B")
    if monoid_sum(PA.monoid, PB.monoid) != PC.monoid:
        raise ValueError("product monoid must be the sum of the factor monoids")
    for name, P in (("A", PA), ("B", PB)):
        if P.cutoff != PC.cutoff:
            raise ValueError(f"factor {name} cutoff {frac_str(P.cutoff)} must equal "
                             f"the product cutoff {frac_str(PC.cutoff)}")
    if embA.source.basis != PA.basis or embB.source.basis != PB.basis:
        raise ValueError("embedding sources must match the factor isotopies")
    if embA.target.basis != PC.basis:
        raise ValueError("embedding target must match the product isotopy")
    embs = (embA, embB)
    units = [("A", embA.source.unit)]
    b_unit = embB.source.unit
    scanned = (PA.names, [nm for nm in PB.names if nm != b_unit])
    windows = (embA.source.window,
               [nm for nm in embB.source.window if nm != b_unit])
    plain = pullback_scanner(embs, scanned, units)
    inserted = pullback_scanner(embs, windows, units,
                                kunneth_K_table(embA, embB))
    violations = []

    def record(clause, beta, detail, row):
        violations.append({"clause": clause, "beta": beta_json(beta), **detail,
                           **{key: {o: p.to_json() for o, p in sorted(vec.items())}
                              for key, vec in (("lhs", row.lhs), ("rhs", row.rhs))}})

    fams = [("m", PC.mT, ((PA.mT, PA.monoid), (PB.mT, PB.monoid)), (1, 1)),
            ("c", PC.cT, ((PA.cT, PA.monoid), (PB.cT, PB.monoid)),
             (sign_pow(PB.n), sign_pow(PA.n)))]
    for beta in scan_betas(PC.mT, PC.cT, PA.mT, PA.cT, PB.mT, PB.cT):
        for k in range(PC.max_arity() + 1):
            for row in plain(fams, beta, k):
                detail = {"k": k, "inputs": [list(t) for t in row.tags]}
                if row.owners:
                    record(f"{row.family}-restriction", beta, detail, row)
                # Mixed tuples vanish; the one exception is the graded
                # anticommutator of the t-independent (2, 0) product, which
                # the endpoint commuting check owns.
                elif row.family == "c" or (k, beta) != (2, BETA_ZERO):
                    violations.append({"clause": f"{row.family}-mixed-tuple",
                                       "beta": beta_json(beta), **detail})
        for k in range(PC.max_arity()):
            for row in inserted(fams, beta, k):
                record(f"{row.family}-k-insertion", beta, {
                    "k": k, "slot": row.slot, "pair": list(row.pair),
                    "plain": [list(t) for t in row.tags]}, row)
        if len(violations) > 40:
            break
    return scan_report("commuting-isotopy", violations)


# -- mutation harness ---------------------------------------------------------------

def isotopy_constant_ids(P: Pseudoisotopy):
    return [f"{family}{k}:{frac_str(beta[0])}/{beta[1]}:{','.join(inputs)}->{out}"
            for family, tables in (("im", P.mT), ("ic", P.cT))
            for k, beta, inputs, out, _ in stored_entries(tables)]


def flip_isotopy_constant(P: Pseudoisotopy, cid: str) -> Pseudoisotopy:
    """Negate one polynomial family member, returning a new isotopy."""
    if not cid.startswith(("im", "ic")):
        raise ValueError(f"malformed isotopy constant id {cid!r}")
    which = "mT" if cid[1] == "m" else "cT"
    return replaced(P, **{which: flip_stored(getattr(P, which), cid, cid[:2])})
