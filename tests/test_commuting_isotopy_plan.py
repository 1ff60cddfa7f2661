"""The commuting-isotopy check against the per-tuple scan it replaced.

`isotopy.check_commuting_isotopy` runs `kunneth.pullback_scanner` with the two
families m^t and c^t of each isotopy. The code below is the previous
version, verbatim: every tuple of `product(tags, repeat=k)` pushed through
`eval_table` over Q[t], once plain and once per K-inserted slot and window
pair. It stays as a differential oracle: full reports must agree, down to
the order of the violations and where the silent cut stops the list. It
reads K from the per-tuple `kunneth_K_table` of `test_commuting_plan`, not
from the pull-back it checks.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ainfkit.ainf import add_into, beta_json, linear_image, replaced
from ainfkit.isotopy import (
    Pseudoisotopy,
    check_commuting_isotopy,
    flip_isotopy_constant,
    isotopy_constant_ids,
)
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, monoid_sum
from ainfkit.signs import shifted, sign_pow
from ainfkit.specio import load_spec
from test_commuting_plan import eval_table, kunneth_K_table


# -- the replaced code, kept as the oracle ---------------------------------------

def per_tuple_check_commuting_isotopy(PC: Pseudoisotopy, PA: Pseudoisotopy,
                            PB: Pseudoisotopy, embA, embB) -> dict:
    """Product-compatibility of an isotopy with two factor isotopies.

    Writing G_A, G_B for the factor monoids inside the product monoid:

      * at beta outside G_A and G_B, both families of PC vanish on embedded
        and K-inserted tuples;
      * at beta in G_A (nonzero), tuples with a strict second-factor input
        kill both families, and symmetrically;
      * at beta in G_A, on first-factor tuples:
          m^t_C(iota a_1, ..)                      = iota(m^t_A(a_1, ..))
          c^t_C(iota a_1, ..)                      = (-1)^{n_B} iota(c^t_A(a_1, ..))
          m^t_C(.., K(a (x) b), ..) = (-1)^{|b|(||a_{i+1}||+..)} K(m^t_A(.., a, ..) (x) b)
          c^t_C(.., K(a (x) b), ..) = (-1)^{n_B + |b|(||a_{i+1}||+..)} K(c^t_A(.., a, ..) (x) b)
        and symmetrically for G_B with the second-factor insertion signs
        (-1)^{|a|(1 + ||b_1|| + .. + ||b_i||)} and the extra (-1)^{n_A}.
    """
    if PC.n != PA.n + PB.n:
        raise ValueError("dimension parameters must satisfy n_C = n_A + n_B")
    if monoid_sum(PA.monoid, PB.monoid) != PC.monoid:
        raise ValueError("product monoid must be the sum of the factor monoids")
    if embA.source.basis != PA.basis or embB.source.basis != PB.basis:
        raise ValueError("embedding sources must match the factor isotopies")
    if embA.target.basis != PC.basis:
        raise ValueError("embedding target must match the product isotopy")
    n1, n2 = PA.n, PB.n
    a_names, b_names = PA.names, PB.names
    a_unit, b_unit = embA.source.unit, embB.source.unit
    k_values = {pair: {o: Poly.const(v) for o, v in val.items()}
                for pair, val in kunneth_K_table(embA, embB).items()}
    violations = []

    def record(clause, beta, detail):
        violations.append({"clause": clause, "beta": beta_json(beta), **detail})

    betas = PC.monoid.enumerate(PC.cutoff)
    k_max = PC.max_arity()
    # The shared unit is listed once, on the first-factor side, so tuples of
    # units (or units mixed with one factor) classify as single-factor tuples.
    tags = [("A", nm) for nm in a_names] + \
        [("B", nm) for nm in b_names if nm != b_unit]

    def tag_elem(t):
        return {tgt: Poly.const(c) for tgt, c in
                (embA if t[0] == "A" else embB).iota[t[1]].items()}

    def tag_deg(t):
        return (PA if t[0] == "A" else PB).degree(t[1])

    def fam_pairs():
        return (("m", PC.mT, PA.mT, PB.mT, 0, 0),
                ("c", PC.cT, PA.cT, PB.cT, n2, n1))

    def side_of(tup):
        """Which factor a tuple belongs to; units act as wildcards and are
        attributed to the first factor when nothing strict is present."""
        has_a = any(t[0] == "A" and t[1] != a_unit for t in tup)
        has_b = any(t[0] == "B" for t in tup)
        if has_a and has_b:
            return "mixed"
        if has_b:
            return "B"
        return "A"

    def factor_names(tup, side):
        if side == "A":
            return tuple(t[1] for t in tup)
        return tuple(t[1] if t[0] == "B" else b_unit for t in tup)

    for beta in betas:
        in_ga = beta in PA.monoid
        in_gb = beta in PB.monoid
        # -- plain embedded tuples --------------------------------------------
        for k in range(0, k_max + 1):
            for tup in product(tags, repeat=k):
                side = side_of(tup)
                elems = [tag_elem(t) for t in tup]
                for fam, c_tab, a_tab, b_tab, extra_a, extra_b in fam_pairs():
                    lhs = eval_table(c_tab, k, beta, elems)
                    if side == "mixed":
                        # Mixed tuples vanish; the one exception is the
                        # graded anticommutator of the t-independent (2, 0)
                        # product, which the endpoint commuting check owns.
                        if fam == "m" and (k, beta) == (2, BETA_ZERO):
                            continue
                        if lhs:
                            record(f"{fam}-mixed-tuple", beta,
                                   {"k": k, "inputs": [list(t) for t in tup]})
                        continue
                    # The empty tuple is a tuple of both factors at once:
                    # the expected curvature is the sum of both reductions.
                    expected = {}
                    if (side == "A" or k == 0) and in_ga:
                        inner = a_tab.get((k, beta), {}).get(
                            factor_names(tup, "A"), {})
                        add_into(expected, linear_image(embA.iota, inner),
                                 sign_pow(extra_a) if fam == "c" else None)
                    if (side == "B" or k == 0) and in_gb:
                        inner = b_tab.get((k, beta), {}).get(
                            factor_names(tup, "B"), {})
                        add_into(expected, linear_image(embB.iota, inner),
                                 sign_pow(extra_b) if fam == "c" else None)
                    expected = {o: p for o, p in expected.items()
                                if not p.is_zero()}
                    # A tuple drawn from the wrong factor for this beta (or a
                    # beta outside both factor monoids) must evaluate to zero.
                    if lhs != expected:
                        record(f"{fam}-restriction", beta, {
                            "k": k, "inputs": [list(t) for t in tup],
                            "lhs": {o: p.to_json() for o, p in sorted(lhs.items())},
                            "rhs": {o: p.to_json()
                                    for o, p in sorted(expected.items())},
                        })
        # -- K-inserted tuples --------------------------------------------------
        a_window = list(embA.source.window)
        b_window = list(embB.source.window)
        wtags = [("A", nm) for nm in a_window] + \
            [("B", nm) for nm in b_window if nm != b_unit]
        for k in range(0, k_max):
            for plain in product(wtags, repeat=k):
                side = side_of(plain)
                # For the empty tuple both one-factor reductions apply and
                # the expected value is their sum; otherwise exactly one does.
                apply_a = in_ga and (side == "A" or k == 0)
                apply_b = in_gb and (side == "B" or k == 0)
                plain_elems = [tag_elem(t) for t in plain]
                plain_degs = [tag_deg(t) for t in plain]
                a_plain = factor_names(plain, "A") if side != "B" else None
                b_plain = factor_names(plain, "B") if side != "A" or k == 0 \
                    else None
                for i in range(k + 1):
                    for na in a_window:
                        for nb in b_window:
                            da = embA.source.degree(na)
                            db = embB.source.degree(nb)
                            mid = k_values[(na, nb)]
                            args = plain_elems[:i] + [mid] + plain_elems[i:]
                            for fam, c_tab, a_tab, b_tab, extra_a, extra_b \
                                    in fam_pairs():
                                lhs = eval_table(c_tab, k + 1, beta, args)
                                expected = {}
                                if apply_a:
                                    inner = a_tab.get((k + 1, beta), {}).get(
                                        a_plain[:i] + (na,) + a_plain[i:], {})
                                    s = sign_pow(
                                        db * sum(shifted(d)
                                                 for d in plain_degs[i:])
                                        + (extra_a if fam == "c" else 0))
                                    for nm2, p in inner.items():
                                        add_into(expected, k_values[(nm2, nb)], p * s)
                                if apply_b:
                                    inner = b_tab.get((k + 1, beta), {}).get(
                                        b_plain[:i] + (nb,) + b_plain[i:], {})
                                    s = sign_pow(
                                        da * (1 + sum(shifted(d)
                                                      for d in plain_degs[:i]))
                                        + (extra_b if fam == "c" else 0))
                                    for nm2, p in inner.items():
                                        add_into(expected, k_values[(na, nm2)], p * s)
                                expected = {o: p for o, p in expected.items()
                                            if not p.is_zero()}
                                if lhs != expected:
                                    record(f"{fam}-k-insertion", beta, {
                                        "k": k, "slot": i, "pair": [na, nb],
                                        "plain": [list(t) for t in plain],
                                        "lhs": {o: p.to_json()
                                                for o, p in sorted(lhs.items())},
                                        "rhs": {o: p.to_json()
                                                for o, p in
                                                sorted(expected.items())},
                                    })
        if len(violations) > 40:
            break

    return {
        "check": "commuting-isotopy",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


# -- the pull-back scan agrees with the oracle ----------------------------------------

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "ainfkit" / \
    "fixtures" / "commuting_isotopy.json"
ENERGY_1 = (Fraction(1), 0)


@pytest.fixture(scope="module")
def isotopies():
    doc = load_spec(str(FIXTURE))
    return (doc.isotopy, *doc.factor_isotopies(), *doc.embedding_pair())


def assert_same_report(PC, PA, PB, embA, embB):
    report = check_commuting_isotopy(PC, PA, PB, embA, embB)
    assert report == per_tuple_check_commuting_isotopy(PC, PA, PB, embA, embB)
    return report


def clauses(report):
    return {v["clause"] for v in report["violations"]}


def with_entries(P, family, key, entries):
    """P with the table family[key] extended by {inputs: {output: Poly}}."""
    tables = dict(getattr(P, family))
    tables[key] = {**tables.get(key, {}), **entries}
    mT, cT = (tables, P.cT) if family == "mT" else (P.mT, tables)
    return Pseudoisotopy(P.n, P.basis, P.monoid, P.cutoff, P.unit, mT, cT,
                         P.window)


def test_every_flip_of_commuting_isotopy(isotopies):
    PC, PA, PB, embA, embB = isotopies
    assert assert_same_report(PC, PA, PB, embA, embB)["status"] == "PASS"
    found = set()
    target_ids = isotopy_constant_ids(PC)
    for cid in target_ids:
        report = assert_same_report(flip_isotopy_constant(PC, cid), PA, PB,
                                    embA, embB)
        assert report["status"] == "FAIL"
        found |= clauses(report)
    factor_ids = isotopy_constant_ids(PA) + isotopy_constant_ids(PB)
    for cid in isotopy_constant_ids(PA):
        found |= clauses(assert_same_report(
            PC, flip_isotopy_constant(PA, cid), PB, embA, embB))
    for cid in isotopy_constant_ids(PB):
        found |= clauses(assert_same_report(
            PC, PA, flip_isotopy_constant(PB, cid), embA, embB))
    assert (len(target_ids), len(factor_ids)) == (34, 15)
    assert found == {"m-restriction", "c-restriction", "m-k-insertion"}


def test_every_target_table_dropped(isotopies):
    """PC without one of its (k, beta) tables, where a factor family may
    still store one: the scan must read the factors' side there too."""
    PC, PA, PB, embA, embB = isotopies
    statuses = []
    for family in ("mT", "cT"):
        for key in sorted(getattr(PC, family)):
            tables = {k: v for k, v in getattr(PC, family).items() if k != key}
            statuses.append(assert_same_report(
                replaced(PC, **{family: tables}), PA, PB, embA, embB)["status"])
    # Without m^t_{2,0} the arity bound of PC drops to 1, where the scan
    # stops.
    assert statuses == ["FAIL", "FAIL", "FAIL", "PASS", "FAIL"]


# Entries no flip reaches: a mixed tuple of either family, and a correction
# on the K-image xA|xB = K(xA (x) xB), at energies in either factor monoid.
CONSTRUCTED = [
    ("mT", (2, ENERGY_1), {("xA|eB", "eA|xB"): {"xA|xB": Poly([0, 1])}},
     "m-mixed-tuple"),
    ("cT", (2, ENERGY_1), {("xA|eB", "eA|xB"): {"xA|eB": Poly([2])}},
     "c-mixed-tuple"),
    ("cT", (1, ENERGY_1), {("xA|xB",): {"zA|eB": Poly([1, -1])}},
     "c-k-insertion"),
    ("cT", (1, (Fraction(1, 2), 2)), {("xA|xB",): {"eA|eB": Poly([3])}},
     "c-k-insertion"),
]


@pytest.mark.parametrize("family,key,entries,clause", CONSTRUCTED)
def test_constructed_clauses(isotopies, family, key, entries, clause):
    PC, PA, PB, embA, embB = isotopies
    PC = with_entries(PC, family, key, entries)
    assert clause in clauses(assert_same_report(PC, PA, PB, embA, embB))


def test_cut_before_the_last_beta(isotopies):
    """The last 17 entries of m^t_{2,0} copied to energy 1 give exactly 41
    violations there, and the cut after that beta leaves out the last one,
    (1, 4), where a stray entry fails on its own."""
    PC, PA, PB, embA, embB = isotopies
    betas = PC.monoid.enumerate(PC.cutoff)
    assert betas[-2:] == [ENERGY_1, (Fraction(1), 4)]
    stray = {("zA|zB", "eA|eB"): {"eA|eB": Poly([1])}}
    alone = with_entries(PC, "mT", (2, betas[-1]), stray)
    report = assert_same_report(alone, PA, PB, embA, embB)
    assert {v["beta"][1] for v in report["violations"]} == {4}
    copies = dict(sorted(PC.mT[(2, BETA_ZERO)].items())[-17:])
    both = with_entries(with_entries(PC, "mT", (2, ENERGY_1), copies),
                        "mT", (2, betas[-1]), stray)
    violations = assert_same_report(both, PA, PB, embA, embB)["violations"]
    assert len(violations) == 41
    assert all(v["beta"] == ["1", 0] for v in violations)


def test_factor_entries_above_the_cutoff_are_left_out(isotopies):
    """Nothing checks a factor's cutoff against PC's: a factor isotopy cut
    off at 2 may store m^t_{0,(2,0)}, which PC, cut off at 1, cannot match.
    The scan skips that beta, as the scan over PC's monoid up to its cutoff
    did."""
    PC, PA, PB, embA, embB = isotopies
    assert PC.cutoff == 1
    mT = {**PA.mT, (0, (Fraction(2), 0)): {(): {"zA": Poly([1])}}}
    high = Pseudoisotopy(PA.n, PA.basis, PA.monoid, 2, PA.unit, mT, PA.cT,
                         PA.window)
    assert assert_same_report(PC, high, PB, embA, embB)["status"] == "PASS"
