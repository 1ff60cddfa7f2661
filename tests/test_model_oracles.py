"""The model builders against the straightforward builders they replaced.

`models.derham_model` pairs each frequency only with the partners its
product allows, and `models.tensor_dga` multiplies the factors' stored
m_{2,0} tables.  The oracles below are the plain constructions: every pair
of basis forms through one wedge, and four nested basis loops through the
wedge recovered from each factor.  Both sides are compared on their
canonical documents, so the basis, the window, every stored entry and its
value must agree.
"""

import hashlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from ainfkit.ainf import AInfAlgebra, check_unit
from ainfkit.kunneth import SubalgebraEmbedding
from ainfkit.models import (
    commuting_isotopy_fixture,
    derham_factor_embeddings,
    derham_model,
    two_factor_gapped,
)
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, frac, monoid_sum
from ainfkit.signs import merge_wedge, sign_pow
from ainfkit.specio import dump_document


# -- oracles ------------------------------------------------------------------

def _form_name(freq, idx):
    return "f" + "_".join(str(f) for f in freq) + ";d" + "".join(
        str(i) for i in idx)


def _sup(freq):
    return max((abs(f) for f in freq), default=0)


def _forms(n, w):
    """[(freq, idx)] with sup-norm of freq at most w, in basis order."""
    idx_sets = [tuple(c) for r in range(n + 1)
                for c in combinations(range(1, n + 1), r)]
    return [(f, idx) for f in sorted(product(range(-w, w + 1), repeat=n))
            for idx in idx_sets]


def _adder(ops):
    def put(k, beta, inputs, out, coeff):
        coeff = Fraction(coeff)
        if coeff:
            combo = ops.setdefault((k, beta), {}).setdefault(inputs, {})
            combo[out] = combo.get(out, Fraction(0)) + coeff
    return put


def oracle_derham_model(n, w):
    """m_{1,0} = (-1)^{n+1} d form by form; m_{2,0}(a, b) = (-1)^{|a|} a ^ b
    on every pair of basis forms whose product stays in the basis and with
    a factor in the window."""
    elements = _forms(n, 2 * w)
    basis = [(_form_name(f, idx), len(idx)) for f, idx in elements]
    window = [_form_name(f, idx) for f, idx in elements if _sup(f) <= w]
    ops = {}
    put = _adder(ops)
    for f, idx in elements:
        for j in range(1, n + 1):
            if f[j - 1] and j not in idx:
                ws, merged = merge_wedge((j,), idx)
                put(1, BETA_ZERO, (_form_name(f, idx),), _form_name(f, merged),
                    sign_pow(n + 1) * ws * f[j - 1])
    for f1, idx1 in elements:
        for f2, idx2 in elements:
            total = tuple(a + b for a, b in zip(f1, f2))
            if _sup(total) > 2 * w or min(_sup(f1), _sup(f2)) > w:
                continue
            wedge = merge_wedge(idx1, idx2)
            if wedge is None:
                continue
            put(2, BETA_ZERO, (_form_name(f1, idx1), _form_name(f2, idx2)),
                _form_name(total, wedge[1]), sign_pow(len(idx1)) * wedge[0])
    return AInfAlgebra(basis, EnergyMonoid([]), "gapped", None,
                       _form_name((0,) * n, ()), ops, window)


def oracle_factor_embeddings(n1, n2, w):
    def iota(n, before, after):
        return {_form_name(f, idx): {
                    _form_name((0,) * before + f + (0,) * after,
                               tuple(i + before for i in idx)):
                    sign_pow(len(idx) * (before + after))}
                for f, idx in _forms(n, 2 * w)}

    target = oracle_derham_model(n1 + n2, w)
    return (SubalgebraEmbedding(oracle_derham_model(n1, w), target,
                                iota(n1, 0, n2)),
            SubalgebraEmbedding(oracle_derham_model(n2, w), target,
                                iota(n2, n1, 0)))


def _wedge_of(alg, a, b):
    """a ^ b recovered from m_{2,0}(a, b) = (-1)^{|a|} a ^ b."""
    s = sign_pow(alg.degree(a))
    return {out: s * c
            for out, c in alg.op_on_names(2, BETA_ZERO, (a, b)).items()}


def oracle_tensor_dga(a_alg, b_alg, monoid, mode, cutoff, curvature):
    """d(a|b) = da|b + (-1)^{|a|} a|db and m_{2,0}(u, v) = (-1)^{|u|} u ^ v
    with the graded tensor wedge, over all four basis indices."""
    def pname(a, b):
        return f"{a}|{b}"

    basis = [(pname(a, b), da + db)
             for a, da in a_alg.basis for b, db in b_alg.basis]
    ops = {}
    put = _adder(ops)
    for a, da in a_alg.basis:
        for b, _ in b_alg.basis:
            for out, c in a_alg.op_on_names(1, BETA_ZERO, (a,)).items():
                put(1, BETA_ZERO, (pname(a, b),), pname(out, b), c)
            for out, c in b_alg.op_on_names(1, BETA_ZERO, (b,)).items():
                put(1, BETA_ZERO, (pname(a, b),), pname(a, out),
                    sign_pow(da) * c)
    for a1, da1 in a_alg.basis:
        for b1, db1 in b_alg.basis:
            for a2, da2 in a_alg.basis:
                wa = _wedge_of(a_alg, a1, a2)
                for b2, _ in b_alg.basis:
                    wb = _wedge_of(b_alg, b1, b2)
                    s = sign_pow(da1 + db1 + db1 * da2)
                    for oa, ca in wa.items():
                        for ob, cb in wb.items():
                            put(2, BETA_ZERO, (pname(a1, b1), pname(a2, b2)),
                                pname(oa, ob), s * ca * cb)
    for beta, combo in curvature.items():
        for out, c in combo.items():
            put(0, (frac(beta[0]), int(beta[1])), (), out, c)
    return AInfAlgebra(basis, monoid, mode, cutoff,
                       pname(a_alg.unit, b_alg.unit), ops)


def oracle_line(prefix, monoid, mode, cutoff, terms):
    """e, x, z with m_1(x) = z, the unit products and the given terms."""
    e, x, z = f"e{prefix}", f"x{prefix}", f"z{prefix}"
    ops = {(2, BETA_ZERO): {(e, e): {e: 1}, (e, x): {x: 1}, (x, e): {x: -1},
                            (e, z): {z: 1}, (z, e): {z: 1}},
           (1, BETA_ZERO): {(x,): {z: 1}}, **terms}
    return AInfAlgebra([(e, 0), (x, 1), (z, 2)], monoid, mode, cutoff, e, ops)


# -- comparisons --------------------------------------------------------------

@pytest.mark.parametrize("n, w", list(product((0, 1, 2), repeat=2)))
def test_derham_model_matches_the_pairwise_oracle(n, w):
    assert derham_model(n, w).to_json() == oracle_derham_model(n, w).to_json()


@pytest.mark.parametrize("w", [1, 2])
def test_factor_embeddings_match_the_oracle(w):
    for got, want in zip(derham_factor_embeddings(1, 1, w),
                         oracle_factor_embeddings(1, 1, w)):
        assert got.to_json() == want.to_json()
        assert got.target.to_json() == want.target.to_json()


@pytest.mark.parametrize("params", [(), (1, -2, 3, 4), ("1/3", 0, -5, "7/2")])
def test_two_factor_gapped_matches_the_oracles(params):
    two = two_factor_gapped(*params)
    lam_a, rho_a, lam_b, rho_b = (frac(v) for v in params or (3, 5, 2, 7))
    half = Fraction(1, 2)
    a_alg = oracle_line("A", EnergyMonoid([(1, 0), (1, 2)]), "gapped", None,
                        {(0, (1, 0)): {(): {"zA": lam_a}},
                         (0, (1, 2)): {(): {"eA": rho_a}}})
    b_alg = oracle_line("B", EnergyMonoid([(half, 0), (half, 2)]), "gapped",
                        None, {(0, (half, 0)): {(): {"zB": lam_b}},
                               (0, (half, 2)): {(): {"eB": rho_b}}})
    assert two["A"].to_json() == a_alg.to_json()
    assert two["B"].to_json() == b_alg.to_json()
    c_alg = oracle_tensor_dga(
        a_alg, b_alg, monoid_sum(a_alg.monoid, b_alg.monoid), "gapped", None,
        {(1, 0): {"zA|eB": lam_a}, (1, 2): {"eA|eB": rho_a},
         (half, 0): {"eA|zB": lam_b}, (half, 2): {"eA|eB": rho_b}})
    assert two["C"].to_json() == c_alg.to_json()


def test_commuting_isotopy_fixture_matches_the_oracles():
    fix = commuting_isotopy_fixture()
    mon_b = EnergyMonoid([(Fraction(1, 2), 2), (Fraction(3, 2), 2)])
    a_alg = oracle_line("A", EnergyMonoid([(1, 0)]), "modulo", 1,
                        {(0, (1, 0)): {(): {"zA": 3}}})
    b_alg = oracle_line("B", mon_b, "modulo", 1,
                        {(0, (Fraction(1, 2), 2)): {(): {"eB": 5}}})
    assert fix["m0A"].to_json() == a_alg.to_json()
    assert fix["m0B"].to_json() == b_alg.to_json()
    c_alg = oracle_tensor_dga(
        fix["PA"].endpoint(0), b_alg, monoid_sum(a_alg.monoid, mon_b),
        "modulo", 1, {(1, 0): {"zA|eB": 3}, (Fraction(1, 2), 2): {"eA|eB": 5}})
    assert fix["m0C"].to_json() == c_alg.to_json()


# -- the T^3 rung -------------------------------------------------------------

# sha256 of dump_document(derham_model(3, 1).to_json()) as the pairwise
# construction writes it.
T3_DIGEST = "d307f6dc92f1b4d815673f9bf745056bdc60940064d6133c04e060cc54fe0094"


def test_derham_t3_builds_its_known_document():
    alg = derham_model(3, 1)
    assert len(alg.names) == 1000
    assert sum(len(row) for table in alg.ops.values()
               for row in table.values()) == 100_155
    assert check_unit(alg)["status"] == "PASS"
    assert hashlib.sha256(dump_document(alg.to_json()).encode(
        "utf-8")).hexdigest() == T3_DIGEST
