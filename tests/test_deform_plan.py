"""The b-deformed operations against the per-tuple code they replaced.

`mc_defect`, `deform`, `deformed_eval` and the m^b_1 matrix behind `hf` and
`barcode` are all read off one substitution of the bounding cochain b into
the stored tables. The code before that built m^b tuple by tuple: every
input tuple went through every insertion pattern of b, every assembled
m_K and one `eval_op` per stored key, and `deform` ran that for every tuple
of basis^k. It stays here as the differential oracle; reports, tables and
cohomology must agree exactly.
"""

import time
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import floer
from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    assemble,
    deform,
    deformed_eval,
    eval_op,
    mc_defect,
    validate_bounding_candidate,
)
from ainfkit.floer import _energy_denominator
from ainfkit.models import barcode_fixture, derham_model, two_factor_gapped
from ainfkit.poly import Poly, matrix_rank_fraction_field, squares_to_zero
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, NovikovElement
from ainfkit.specio import load_spec
from elements import basis_element, coefficient, scale, zero_element
from test_relation_plan import ENERGIES, generators
from test_sparse_linalg import sparse_matrix


# -- the replaced code, kept as the oracle ---------------------------------------
# Copied verbatim but for the names of the functions.

def oracle_eval_assembled(alg: AInfAlgebra, k: int, inputs) -> AlgElement:
    """m_k = sum_beta m_{k,beta} T^{E(beta)} applied to elements."""
    total = zero_element(alg.truncation)
    for (kk, beta) in alg.ops:
        if kk != k:
            continue
        val = eval_op(alg, k, beta, inputs)
        if not val.is_zero():
            total = total + scale(
                val, NovikovElement.monomial(1, beta[0], alg.truncation))
    return total


def oracle_insertion_patterns(k: int, extra: int):
    """All (i_0, ..., i_k) with nonnegative entries summing to extra."""
    if k == 0:
        yield (extra,)
        return
    for first in range(extra + 1):
        for rest in oracle_insertion_patterns(k - 1, extra - first):
            yield (first,) + rest


def oracle_deformed_eval(alg: AInfAlgebra, b: AlgElement, k: int,
                         inputs) -> AlgElement:
    """m^b_k(a_1..a_k): all b-insertions, no extra Koszul signs (||b|| even)."""
    max_a = alg.max_arity()
    total = zero_element(alg.truncation)
    for big_k in range(k, max_a + 1):
        extra = big_k - k
        for pattern in oracle_insertion_patterns(k, extra):
            args = []
            for slot, count in enumerate(pattern):
                args.extend([b] * count)
                if slot < k:
                    args.append(inputs[slot])
            total = total + oracle_eval_assembled(alg, big_k, tuple(args))
    return total


def oracle_deform(alg: AInfAlgebra, b: AlgElement) -> AInfAlgebra:
    """The b-deformed algebra m^b, presented with exact per-energy constants.

    Requires modulo mode (assemble gapped algebras first).  Each deformed
    operation splits by total energy; the Maslov index of each contribution
    is recovered from the degree rule, and is even because ||b|| is even.
    """
    if alg.mode != "modulo":
        raise ValueError("deform needs a truncated algebra; use assemble() first")
    validate_bounding_candidate(alg, b)
    max_a = alg.max_arity()
    new_ops = {}
    generators = set()
    for k in range(max_a + 1):
        for names in product(alg.names, repeat=k):
            basis_inputs = tuple(basis_element(nm, alg.truncation)
                                 for nm in names)
            val = oracle_deformed_eval(alg, b, k, basis_inputs)
            in_deg = sum(alg.degree(nm) for nm in names)
            for out, nov in val.coeffs.items():
                mu = in_deg + 2 - k - alg.degree(out)
                for energy, coeff in nov.terms:
                    beta = (energy, mu)
                    if beta != BETA_ZERO:
                        generators.add(beta)
                    table = new_ops.setdefault((k, beta), {})
                    combo = table.setdefault(names, {})
                    combo[out] = combo.get(out, Fraction(0)) + coeff
    monoid = EnergyMonoid(sorted(generators))
    return AInfAlgebra(alg.basis, monoid, "modulo", alg.cutoff, alg.unit,
                       new_ops, alg.window)


def oracle_mc_defect(alg: AInfAlgebra, b: AlgElement):
    """(P, remainder) with sum_k m_k(b,..,b) = P * e + remainder."""
    if alg.unit is None:
        raise ValueError("mc_defect needs a unit")
    validate_bounding_candidate(alg, b)
    total = zero_element(alg.truncation)
    for k in range(alg.max_arity() + 1):
        total = total + oracle_eval_assembled(alg, k, (b,) * k)
    p = coefficient(total, alg.unit)
    rest = AlgElement(
        {nm: v for nm, v in total.coeffs.items() if nm != alg.unit},
        alg.truncation,
    )
    return p, rest


def oracle_deformed_differential_matrix(alg: AInfAlgebra, b: AlgElement):
    """(matrix of m^b_1 over Q[q], N) with q = T^{1/N}.

    Requires a gapped algebra with a genuine bounding cochain (zero
    curvature remainder).  Checks (m^b_1)^2 = 0 exactly before returning,
    composing only nonzero entries, and raises ValueError when it fails.
    """
    if alg.mode != "gapped":
        raise ValueError("exact cohomology needs a gapped algebra; "
                         "truncated data only determines it up to the cutoff")
    validate_bounding_candidate(alg, b)
    _, rem = oracle_mc_defect(alg, b)
    if not rem.is_zero():
        raise ValueError("b does not satisfy the weak Maurer-Cartan equation")
    n_den = _energy_denominator(alg, b)
    names = alg.names
    idx = {nm: i for i, nm in enumerate(names)}
    mat = [[Poly.ZERO] * len(names) for _ in names]
    for j, nm in enumerate(names):
        column = oracle_deformed_eval(alg, b, 1, (basis_element(nm),))
        for out, nov in column.coeffs.items():
            coeffs = {}
            for e, cf in nov.terms:
                power = e * n_den
                if power.denominator != 1:
                    raise ValueError("energy outside (1/N)Z lattice")
                coeffs[power.numerator] = cf
            mat[idx[out]][j] = Poly([coeffs.get(p, Fraction(0))
                                     for p in range(max(coeffs) + 1)])
    if not squares_to_zero(sparse_matrix(mat)):
        raise ValueError("deformed differential does not square to zero")
    return mat, n_den


def oracle_hf_dimension(alg: AInfAlgebra, b: AlgElement) -> int:
    mat, _ = oracle_deformed_differential_matrix(alg, b)
    return len(alg.names) - 2 * matrix_rank_fraction_field(sparse_matrix(mat))


def oracle_barcode(alg: AInfAlgebra, b: AlgElement) -> dict:
    """`floer.barcode` read off the oracle's matrix, in the sparse form."""
    def sparse_oracle(alg, b):
        mat, n_den = oracle_deformed_differential_matrix(alg, b)
        return sparse_matrix(mat), n_den

    with mock.patch.object(floer, "deformed_differential_matrix",
                           sparse_oracle):
        return floer.barcode(alg, b)


# -- comparison --------------------------------------------------------------------

def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def deform_json(alg, b):
    return deform(alg, b).to_json()


def oracle_deform_json(alg, b):
    return oracle_deform(alg, b).to_json()


def assert_matches_oracle(alg, b, elements=()):
    """Every deformed operation of (alg, b) against the oracle; elements
    holds (k, inputs) to evaluate m^b_k on."""
    if alg.unit is not None:
        assert outcome(mc_defect, alg, b) == outcome(oracle_mc_defect, alg, b)
    assert outcome(deform_json, alg, b) == outcome(oracle_deform_json, alg, b)
    for k, inputs in elements:
        assert deformed_eval(alg, b, k, inputs) == \
            oracle_deformed_eval(alg, b, k, inputs)
    if alg.unit is not None:
        assert outcome(floer.hf_dimension, alg, b) == \
            outcome(oracle_hf_dimension, alg, b)
        assert outcome(floer.barcode, alg, b) == outcome(oracle_barcode, alg, b)


def basis_elements(alg, k_max):
    trunc = alg.truncation
    return [(k, tuple(basis_element(nm, trunc) for nm in names))
            for k in range(k_max + 1)
            for names in product(alg.names, repeat=k)]


# -- random sparse unital algebras -----------------------------------------------

COEFFS = [-3, -2, -1, 1, 2, 3]


@st.composite
def deformation_cases(draw):
    """A degree-consistent sparse algebra with a strict unit e (gapped or
    truncated, no promise that the relations hold), a bounding cochain
    candidate of odd degree and positive energy, and a few elements to
    evaluate m^b_k on."""
    size = draw(st.integers(0, 2))
    degrees = [draw(st.sampled_from([-1, 1]))] + draw(
        st.lists(st.integers(-1, 2), min_size=size, max_size=size))
    basis = [("e", 0)] + [(f"a{i}", d) for i, d in enumerate(degrees)]
    names = [nm for nm, _ in basis]
    degree = dict(basis)
    monoid = EnergyMonoid(draw(generators))
    mode = draw(st.sampled_from(["gapped", "modulo"]))
    cutoff = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    trunc = cutoff if mode == "modulo" else None
    betas = monoid.enumerate(cutoff)
    units = {("e", nm): {nm: Fraction(1)} for nm in names}
    units.update({(nm, "e"): {nm: Fraction((-1) ** d)} for nm, d in basis})
    ops = {(2, BETA_ZERO): units}
    for _ in range(draw(st.integers(2, 10))):
        k = draw(st.sampled_from([0, 0, 1, 1, 2, 2, 3]))
        inputs = tuple(draw(st.lists(st.sampled_from(names),
                                     min_size=k, max_size=k)))
        in_deg = sum(degree[nm] for nm in inputs)
        keys = [(beta, out) for beta in betas for out, d in basis
                if d == in_deg + 2 - k - beta[1] and (k, beta) != (0, BETA_ZERO)]
        if not keys:
            continue
        beta, out = draw(st.sampled_from(keys))
        coeff = Fraction(draw(st.sampled_from(COEFFS)),
                         draw(st.sampled_from([1, 1, 2])))
        ops.setdefault((k, beta), {}).setdefault(inputs, {})[out] = coeff
    alg = AInfAlgebra(basis, monoid, mode, trunc, "e", ops)

    def novikov(energies):
        return NovikovElement(
            [(draw(st.sampled_from(energies)), draw(st.sampled_from(COEFFS)))
             for _ in range(draw(st.integers(1, 2)))], trunc)

    b = zero_element(trunc)
    odd = sorted({d for d in degrees if d % 2})
    if draw(st.sampled_from([True, True, False])):
        d = draw(st.sampled_from(odd))
        support = draw(st.lists(st.sampled_from(
            [nm for nm in names if degree[nm] == d]), min_size=1, unique=True))
        b = AlgElement({nm: novikov(ENERGIES) for nm in support}, trunc)
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, alg.max_arity() + 1))
        elements.append((k, tuple(
            AlgElement({nm: novikov([Fraction(0)] + ENERGIES)
                        for nm in draw(st.lists(st.sampled_from(names),
                                                min_size=1, max_size=2,
                                                unique=True))}, trunc)
            for _ in range(k))))
    return alg, b, elements


@settings(max_examples=60, deadline=None)
@given(deformation_cases())
def test_deformed_operations_match_the_oracle(case):
    alg, b, elements = case
    assert_matches_oracle(alg, b, elements)


# -- the bundled models --------------------------------------------------------------

def truncated(elem, cutoff):
    return AlgElement({nm: nov.retruncate(cutoff)
                       for nm, nov in elem.coeffs.items()}, cutoff)


def test_two_factor_models_match_the_oracle():
    """The factors, their product and the box product of their cochains,
    with b and with b = 0, gapped and assembled at several cutoffs."""
    two = two_factor_gapped()
    box = two["embA"].apply(two["b1"]) + two["embB"].apply(two["b2"])
    for alg, b in ((two["A"], two["b1"]), (two["B"], two["b2"]),
                   (two["C"], box)):
        for cochain in (b, zero_element()):
            assert_matches_oracle(alg, cochain, basis_elements(alg, 1))
            for cutoff in (1, 2, 3, 5):
                cut = assemble(alg, cutoff)
                assert_matches_oracle(cut, truncated(cochain, cutoff),
                                      basis_elements(cut, 1))


@pytest.mark.parametrize("name,bounding", [
    ("barcode_simple.json", "b"), ("gapped_product.json", "b"),
    ("gapped_product.json", "b1")])
def test_bundled_documents_match_the_oracle(fixture_path, name, bounding):
    doc = load_spec(fixture_path(name))
    alg = doc.algebra
    if bounding == "b1":
        alg = doc.embeddings()["A"].source
        b = AlgElement.from_json(doc.raw["bounding"]["b1"])
    else:
        b = doc.bounding(bounding)
    assert_matches_oracle(alg, b, basis_elements(alg, 1))


def test_barcode_and_derham_models_match_the_oracle():
    alg, b = barcode_fixture()
    assert_matches_oracle(alg, b, basis_elements(alg, 2))
    torus = derham_model(1, 2)
    assert outcome(floer.hf_dimension, torus, zero_element()) == \
        outcome(oracle_hf_dimension, torus, zero_element())
    assert outcome(floer.barcode, torus, zero_element()) == \
        outcome(oracle_barcode, torus, zero_element())


# -- one high-arity constant -------------------------------------------------------

def high_arity_algebra(n_names):
    """One m_{6,0} constant x_0 x_1 ... -> z on n_names names (the inputs
    cycle through the n_names - 1 odd names), modulo T^2, with b zero or
    T^{1/2} x_0, so that b fills only slots of the constant's inputs."""
    odd = [f"x{i}" for i in range(n_names - 1)]
    basis = [(nm, 1) for nm in odd] + [("z", 2)]
    inputs = tuple(odd[i % len(odd)] for i in range(6))
    alg = AInfAlgebra(basis, EnergyMonoid([(Fraction(1, 2), 0)]), "modulo",
                      Fraction(2), ops={(6, BETA_ZERO): {inputs: {"z": 1}}})
    cochains = (zero_element(alg.truncation),
                AlgElement({"x0": NovikovElement.monomial(1, Fraction(1, 2), 2)},
                           alg.truncation))
    return alg, cochains


def test_high_arity_constant_deforms_only_its_terms():
    """basis^6 holds 8^6 tuples, but m^b is read off the one stored key: b
    fills its one x_0 slot or none."""
    alg, cochains = high_arity_algebra(8)
    inputs = ("x0", "x1", "x2", "x3", "x4", "x5")
    expected = ({(6, BETA_ZERO): {inputs: {"z": 1}}},
                {(6, BETA_ZERO): {inputs: {"z": 1}},
                 (5, (Fraction(1, 2), 0)): {inputs[1:]: {"z": 1}}})
    for b, ops in zip(cochains, expected):
        started = time.perf_counter()
        deformed = deform(alg, b)
        assert time.perf_counter() - started < 1.0
        assert deformed.ops == ops
    small, cochains = high_arity_algebra(3)
    for b in cochains:
        assert deform_json(small, b) == oracle_deform_json(small, b)
