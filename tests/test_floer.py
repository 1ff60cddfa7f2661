from fractions import Fraction

import pytest

from ainfkit import ainf, floer, kunneth
from ainfkit.ainf import AInfAlgebra, AlgElement, assemble
from ainfkit.floer import (
    algebra_cohomology,
    barcode,
    check_hf_kunneth,
    deformed_differential_matrix,
    hf_dimension,
    scalar_cohomology,
)
from ainfkit.kunneth import box_product
from ainfkit.models import barcode_fixture, derham_model, two_factor_gapped
from ainfkit.poly import Poly, matrix_rank_fraction_field
from ainfkit.scalars import NovikovElement
from elements import scale
from test_sparse_linalg import dense_matrix, sparse_matrix


def test_scalar_cohomology_validation():
    with pytest.raises(ValueError, match="^differential does not square"):
        scalar_cohomology(sparse_matrix([[Fraction(1)]]), [0])  # d^2 != 0
    with pytest.raises(ValueError, match="^differential does not have degree"):
        scalar_cohomology(sparse_matrix([[Fraction(0), Fraction(1)],
                                         [Fraction(0), Fraction(0)]]),
                          [0, 0])  # not deg +1
    # A row or a column outside the graded basis.
    for mat in ({0: {2: Fraction(1)}}, {2: {0: Fraction(1)}},
                {-1: {0: Fraction(1)}}, {0: {"1": Fraction(1)}}):
        with pytest.raises(ValueError,
                           match="^matrix shape does not match the grading$"):
            scalar_cohomology(mat, [0, 1])


def test_scalar_cohomology_two_term_complex():
    # d(x) = y kills both classes; e survives
    mat = [[Fraction(0)] * 3 for _ in range(3)]
    mat[2][1] = Fraction(1)
    out = scalar_cohomology(sparse_matrix(mat), [0, 0, 1])
    assert out["dims"] == {"0": 1, "1": 0}
    assert out["total"] == 1


def test_torus_cohomology_counts():
    t1 = algebra_cohomology(derham_model(1, 1))
    assert t1["dims"] == {"0": 1, "1": 1}
    t2 = algebra_cohomology(derham_model(2, 1))
    assert t2["dims"] == {"0": 1, "1": 2, "2": 1}


def test_deformed_matrix_squares_to_zero():
    two = two_factor_gapped()
    mat, n_den = deformed_differential_matrix(two["A"], two["b1"])
    assert n_den == 1
    n = len(two["A"].names)
    mat = dense_matrix(mat, n, n, Poly.ZERO)
    square_rank = matrix_rank_fraction_field(sparse_matrix(
        [[sum((mat[i][k] * mat[k][j] for k in range(len(mat))),
              mat[0][0] - mat[0][0]) for j in range(len(mat))]
         for i in range(len(mat))]))
    assert square_rank == 0


def test_deformed_matrix_refuses_truncated_input():
    two = two_factor_gapped()
    trunc = assemble(two["A"], 2)
    b1 = AlgElement({nm: nov.retruncate(2)
                     for nm, nov in two["b1"].coeffs.items()}, 2)
    with pytest.raises(ValueError):
        deformed_differential_matrix(trunc, b1)


def test_deformed_matrix_checks_mode_then_b_then_unit(monkeypatch):
    """On an algebra without a unit, the mode is refused first, then b, then
    the missing unit; b is validated once."""
    alg, flat = barcode_fixture()
    no_unit = AInfAlgebra(alg.basis, alg.monoid, "gapped", None, None, alg.ops)
    even = AlgElement({"x": NovikovElement.monomial(1, 1)})
    even_truncated = AlgElement({"x": NovikovElement.monomial(1, 1, 2)}, 2)
    for algebra, b, message in (
            (assemble(no_unit, 2), even_truncated,
             "exact cohomology needs a gapped algebra"),
            (no_unit, even, "bounding cochain must have odd degree"),
            (no_unit, flat, "mc_defect needs a unit")):
        with pytest.raises(ValueError, match=f"^{message}"):
            deformed_differential_matrix(algebra, b)
    calls = []

    def counted(alg, b):
        calls.append(alg)
        return validate(alg, b)

    validate = ainf.validate_bounding_candidate
    for module in (floer, ainf):
        monkeypatch.setattr(module, "validate_bounding_candidate", counted)
    deformed_differential_matrix(alg, flat)
    assert calls == [alg]


def test_hf_dimensions_multiplicative():
    two = two_factor_gapped()
    assert hf_dimension(two["A"], two["b1"]) == 1
    assert hf_dimension(two["B"], two["b2"]) == 1
    report = check_hf_kunneth(two["embA"], two["embB"], two["b1"], two["b2"])
    assert report["status"] == "PASS"
    assert report["dim_C"] == report["dim_A"] * report["dim_B"] == 1


def test_barcode_fixture_bars():
    alg, b = barcode_fixture()
    report = barcode(alg, b)
    assert report["status"] == "PASS"
    assert report["bars"] == ["1"]
    assert report["free_rank"] == 1
    assert report["free_rank"] == hf_dimension(alg, b)


def test_barcode_fractional_energy():
    two = two_factor_gapped()
    report = barcode(two["B"], two["b2"])
    assert report["N"] == 2
    assert report["free_rank"] == hf_dimension(two["B"], two["b2"])


def oracle_check_hf_kunneth(embA, embB, b1, b2):
    """check_hf_kunneth as it was, each hf_dimension recomputing the
    curvature that box_product has already computed."""
    box = box_product(embA, embB, b1, b2)
    dim_a = hf_dimension(embA.source, b1)
    dim_b = hf_dimension(embB.source, b2)
    dim_c = hf_dimension(embA.target, box["element"])
    ok = box["status"] == "PASS" and dim_c == dim_a * dim_b
    return {
        "check": "hf-kunneth",
        "status": "PASS" if ok else "FAIL",
        "box_status": box["status"],
        "dim_A": dim_a,
        "dim_B": dim_b,
        "dim_C": dim_c,
        "multiplicative": dim_c == dim_a * dim_b,
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _hf_kunneth_cases():
    """(embA, embB, b1, b2): the exact cochains, then cochains that fail the
    curvature or the validation on one factor or on both."""
    two = two_factor_gapped()
    ok1, ok2 = two["b1"], two["b2"]
    doubled = NovikovElement.scalar(2)
    unit_energy = AlgElement({"xA": NovikovElement.scalar(1)})
    even = AlgElement({"zA": NovikovElement.monomial(1, 1)})
    for b1, b2 in ((ok1, ok2), (scale(ok1, doubled), ok2),
                   (ok1, scale(ok2, doubled)), (AlgElement({}), ok2),
                   (scale(ok1, doubled), scale(ok2, doubled)),
                   (unit_energy, ok2), (ok1, AlgElement({})),
                   (even, ok2)):
        yield two["embA"], two["embB"], b1, b2


def test_hf_kunneth_matches_the_recomputing_oracle():
    for case in _hf_kunneth_cases():
        assert _outcome(check_hf_kunneth, *case) == \
            _outcome(oracle_check_hf_kunneth, *case)


def test_hf_kunneth_computes_each_curvature_once(monkeypatch):
    calls = []

    def counted(alg, b):
        calls.append(alg)
        return ainf.mc_defect(alg, b)

    for module in (floer, kunneth):
        monkeypatch.setattr(module, "mc_defect", counted)
    two = two_factor_gapped()
    report = check_hf_kunneth(two["embA"], two["embB"], two["b1"], two["b2"])
    assert report["status"] == "PASS"
    assert calls == [two["A"], two["B"], two["C"]]
