from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    OpFamilies,
    ainf_defect,
    assemble,
    check_ainf,
    check_unit,
    constant_ids,
    deform,
    deformed_eval,
    eval_op,
    flip_constant,
    mc_defect,
    parse_constant_id,
    replaced,
)
from ainfkit.models import derham_model, extension_fixture, two_factor_gapped
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, NovikovElement
from elements import basis_element, minus, scale
from test_deform_plan import oracle_eval_assembled


def small_dga():
    """e, x odd, z = dx: the minimal unital complex with a differential."""
    basis = [("e", 0), ("x", 1), ("z", 2)]
    ops = {
        (1, BETA_ZERO): {("x",): {"z": Fraction(1)}},
        (2, BETA_ZERO): {
            ("e", "e"): {"e": Fraction(1)},
            ("e", "x"): {"x": Fraction(1)},
            ("e", "z"): {"z": Fraction(1)},
            ("x", "e"): {"x": Fraction(-1)},
            ("z", "e"): {"z": Fraction(1)},
        },
    }
    return AInfAlgebra(basis, EnergyMonoid([]), "gapped", None, "e", ops)


def test_algelement_arithmetic():
    x = basis_element("x")
    y = basis_element("y")
    s = minus(x + y, x)
    assert s == y
    assert minus(x, x).is_zero()
    assert scale(x, NovikovElement.scalar(0)).is_zero()
    assert AlgElement.from_json(x.to_json()) == x


def test_construction_rejects_bad_degree():
    basis = [("e", 0), ("x", 1)]
    ops = {(1, BETA_ZERO): {("x",): {"x": Fraction(1)}}}  # should map to deg 2
    with pytest.raises(ValueError):
        AInfAlgebra(basis, EnergyMonoid([]), "gapped", None, "e", ops)


def test_construction_rejects_curvature_at_beta_zero():
    basis = [("e", 0), ("z", 2)]
    ops = {(0, BETA_ZERO): {(): {"z": Fraction(1)}}}
    with pytest.raises(ValueError):
        AInfAlgebra(basis, EnergyMonoid([]), "gapped", None, "e", ops)


def test_construction_rejects_beta_outside_monoid():
    basis = [("e", 0), ("z", 2)]
    ops = {(0, (Fraction(1, 3), 0)): {(): {"z": Fraction(1)}}}
    with pytest.raises(ValueError):
        AInfAlgebra(basis, EnergyMonoid([(1, 0)]), "gapped", None, "e", ops)


def test_modulo_mode_needs_cutoff_bound():
    basis = [("e", 0), ("z", 2)]
    ops = {(0, (Fraction(2), 0)): {(): {"z": Fraction(1)}}}
    with pytest.raises(ValueError):
        AInfAlgebra(basis, EnergyMonoid([(2, 0)]), "modulo", 1, "e", ops)
    alg = AInfAlgebra(basis, EnergyMonoid([(2, 0)]), "modulo", 2, "e", ops)
    assert alg.cutoff == 2


def test_small_dga_passes():
    alg = small_dga()
    assert check_ainf(alg)["status"] == "PASS"
    assert check_unit(alg)["status"] == "PASS"


def test_unit_twist_is_required():
    # right multiplication by the unit without the (-1)^{|a|} twist on the
    # odd generator must fail the unit axioms
    alg = flip_constant(small_dga(), "m2:0/0:x,e->x")
    report = check_unit(alg)
    assert report["status"] == "FAIL"
    assert any(v["clause"] == "right-unit" for v in report["violations"])


def test_flip_detected_and_replayable():
    alg = small_dga()
    for cid in constant_ids(alg):
        mutant = flip_constant(alg, cid)
        report = check_ainf(mutant)
        if report["status"] == "PASS":
            continue
        ce = report["counterexamples"][0]
        replay = ainf_defect(mutant, (Fraction(ce["beta"][0]), ce["beta"][1]),
                             tuple(ce["inputs"]))
        assert not replay.is_zero()


def test_flip_roundtrip_and_parse():
    alg = small_dga()
    cid = "m1:0/0:x->z"
    assert parse_constant_id(cid) == (1, (Fraction(0), 0), ("x",), "z")
    assert flip_constant(flip_constant(alg, cid), cid).ops == alg.ops
    with pytest.raises(ValueError, match="^no stored constant "):
        flip_constant(alg, "m1:0/0:z->x")


@pytest.mark.parametrize("fixture", ["m0", "P"])
def test_replaced_keeps_every_slot_of_the_class_and_its_base(fixture):
    """On an algebra and an isotopy, with a window that is not the whole
    basis: a copy holds every slot of OpFamilies and of the class, and the
    replaced one only changes."""
    obj = extension_fixture()[fixture]
    obj = replaced(obj, window=obj.names[:2])
    own = [*type(obj).__slots__]
    slots = [*OpFamilies.__slots__, *own]
    assert own and "window" not in own and len(set(slots)) == len(slots)
    copy = replaced(obj)
    assert all(getattr(copy, slot) is getattr(obj, slot) for slot in slots)
    assert copy.to_json() == obj.to_json()
    narrowed = replaced(obj, window=obj.names[:1])
    assert narrowed.window == obj.names[:1]
    assert all(getattr(narrowed, slot) is getattr(obj, slot)
               for slot in slots if slot != "window")


def test_derham_t1_relations():
    alg = derham_model(1, 1)
    assert check_ainf(alg)["status"] == "PASS"
    assert check_unit(alg)["status"] == "PASS"


novs = st.lists(
    st.tuples(st.fractions(min_value=0, max_value=2, max_denominator=2),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    max_size=3,
).map(NovikovElement)


@settings(max_examples=50, deadline=None)
@given(novs, novs)
def test_eval_op_is_multilinear(c1, c2):
    alg = small_dga()
    e, x, z = basis_element("e"), basis_element("x"), basis_element("z")
    lin = scale(x, c1) + scale(z, c2)
    lhs = eval_op(alg, 2, BETA_ZERO, (e, lin))
    rhs = scale(eval_op(alg, 2, BETA_ZERO, (e, x)), c1) + \
        scale(eval_op(alg, 2, BETA_ZERO, (e, z)), c2)
    assert lhs == rhs


def test_mc_defect_on_gapped_fixture():
    two = two_factor_gapped()
    a = two["A"]
    p, rem = mc_defect(a, two["b1"])
    assert rem.is_zero()
    assert not p.is_zero()
    # the zero candidate leaves the curvature term as a genuine remainder
    p0, rem0 = mc_defect(a, AlgElement({}))
    assert not rem0.is_zero()


def test_deform_squares_to_zero():
    two = two_factor_gapped()
    a = assemble(two["A"], 3)
    b1 = AlgElement(
        {nm: nov.retruncate(3) for nm, nov in two["b1"].coeffs.items()}, 3)
    deformed = deform(a, b1)
    assert check_ainf(deformed)["status"] == "PASS"
    # the deformed differential agrees with direct insertion sums
    for nm in a.names:
        direct = deformed_eval(a, b1, 1, (basis_element(nm, 3),))
        via_ops = oracle_eval_assembled(deformed, 1, (basis_element(nm, 3),))
        assert direct == via_ops


def test_assemble_keeps_boundary_families():
    two = two_factor_gapped()
    truncated = assemble(two["A"], 1)
    assert truncated.mode == "modulo"
    # the boundary-energy family is stored even though T^1 = 0 mod T^1
    assert any(beta[0] == 1 for _, beta in truncated.ops)
    with pytest.raises(ValueError):
        assemble(truncated, 1)
