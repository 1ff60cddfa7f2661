from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.ainf import AlgElement, eval_op, flip_constant, mc_defect, replaced
from ainfkit.kunneth import (
    SubalgebraEmbedding,
    box_product,
    check_commuting,
    check_kunneth_hypothesis,
    check_subalgebra,
    kunneth_K_table,
)
from ainfkit.models import (
    derham_factor_embeddings,
    derham_model,
    two_factor_gapped,
)
from ainfkit.scalars import BETA_ZERO, NovikovElement
from ainfkit.signs import sign_pow
from elements import scale
from test_sparse_linalg import dense_rank


def test_embedding_validation():
    two = two_factor_gapped()
    emb = two["embA"]
    # degree-0, unit-to-unit, injective: accepted
    assert emb.source.unit == "eA"
    # non-injective map rejected
    with pytest.raises(ValueError):
        SubalgebraEmbedding(emb.source, emb.target,
                            {nm: {"eA|eB": Fraction(1)} for nm in
                             emb.source.names})


def dense_injective(source, target, iota):
    """The injectivity test SubalgebraEmbedding made before its sparse one:
    the rank of the dense target x source matrix of iota."""
    row = {nm: i for i, nm in enumerate(target.names)}
    matrix = [[Fraction(0)] * len(source.names) for _ in target.names]
    for j, nm in enumerate(source.names):
        for tgt, c in iota[nm].items():
            matrix[row[tgt]][j] = Fraction(c)
    return dense_rank(matrix) == len(source.names)


def accepts(source, target, iota):
    try:
        SubalgebraEmbedding(source, target, iota)
    except ValueError as exc:
        assert str(exc) == "iota is not injective"
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_injectivity_matches_dense_rank(data):
    """Random degree-preserving, unit-preserving iota from derham_model(1, 1)
    into the product model: accepted exactly when the dense rank is full."""
    emb_a, _ = derham_factor_embeddings(1, 1, 1)
    source, target = emb_a.source, emb_a.target
    by_degree = {}
    for nm in target.names:
        by_degree.setdefault(target.degree(nm), []).append(nm)
    width = data.draw(st.integers(3, 8))
    iota = {source.unit: {target.unit: 1}}
    for nm in source.names:
        if nm != source.unit:
            pool = by_degree[source.degree(nm)][:width]
            support = data.draw(st.lists(st.sampled_from(pool),
                                         min_size=1, max_size=3, unique=True))
            iota[nm] = {t: data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
                        for t in support}
    assert accepts(source, target, iota) == dense_injective(source, target, iota)


def test_injectivity_on_the_bundled_embeddings():
    for emb in derham_factor_embeddings(1, 1, 1) + (two_factor_gapped()["embA"],):
        assert dense_injective(emb.source, emb.target, emb.iota)
        assert accepts(emb.source, emb.target, emb.iota)
        # Sending a second name onto the image of a first breaks injectivity.
        names = [nm for nm in emb.source.names if nm != emb.source.unit]
        same = [b for b in names[1:] if emb.source.degree(b) ==
                emb.source.degree(names[0])]
        if same:
            iota = dict(emb.iota, **{same[0]: emb.iota[names[0]]})
            assert not dense_injective(emb.source, emb.target, iota)
            assert not accepts(emb.source, emb.target, iota)


def test_derham_pair_subalgebra_and_commuting():
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1)
    assert check_subalgebra(emb_a)["status"] == "PASS"
    assert check_subalgebra(emb_b)["status"] == "PASS"
    assert check_commuting(emb_a, emb_b)["status"] == "PASS"


def test_commuting_detects_broken_iota_twist():
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1)
    # drop the (-1)^{|xi| n_1} twist on the second factor's odd generator:
    # negate its image coefficient
    iota_b = {nm: dict(combo) for nm, combo in emb_b.iota.items()}
    odd = next(nm for nm in emb_b.source.names
               if emb_b.source.degree(nm) == 1)
    iota_b[odd] = {tgt: -c for tgt, c in iota_b[odd].items()}
    broken = SubalgebraEmbedding(emb_b.source, emb_b.target, iota_b)
    reports = [check_subalgebra(broken)["status"],
               check_commuting(emb_a, broken)["status"]]
    assert "FAIL" in reports


def test_kunneth_hypothesis_minimal_torus_pair():
    target = derham_model(2, 1)
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1, target=target,
                                            factor_w=0)
    report = check_kunneth_hypothesis(emb_a, emb_b)
    assert report["status"] == "PASS"
    assert report["K_rank"] == 4
    assert report["excluded_pairs"] == []
    assert report["injective"]
    assert report["chain_map"]
    assert report["dim_H_source"] == 4
    assert report["dim_H_target"] == 4
    assert report["cohomology_bijective"]
    # classical count: 1, 2, 1 across degrees 0, 1, 2
    assert report["dims_by_degree_target"] == {"0": 1, "1": 2, "2": 1}


def test_kunneth_hypothesis_window_scope():
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1)
    report = check_kunneth_hypothesis(emb_a, emb_b)
    assert report["status"] == "PASS"
    assert report["K_rank"] == report["tensor_dim"] == 84
    assert len(report["excluded_pairs"]) == 16
    # A window that the differential leaves is an error, not a smaller scope.
    src = emb_a.source
    narrowed = replaced(src, window=tuple(nm for nm in src.window
                                          if nm != "f1;d1"))
    report = check_kunneth_hypothesis(replaced(emb_a, source=narrowed), emb_b)
    assert report["status"] == "FAIL"
    assert report["errors"] and all("leaves the window scope" in e
                                    for e in report["errors"])


def test_kunneth_K_values():
    target = derham_model(2, 1)
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1, target=target,
                                            factor_w=0)
    table = kunneth_K_table(emb_a, emb_b)
    trunc = target.truncation
    for na in emb_a.source.names[:3]:
        nb = emb_b.source.names[0]
        img = AlgElement(table[(na, nb)], trunc)
        assert not img.is_zero()
        # K(a (x) b) = (-1)^{|a|} m_{2,0}(iota_A a, iota_B b)
        assert img == scale(eval_op(target, 2, BETA_ZERO, (
            emb_a.apply_name(na), emb_b.apply_name(nb))),
            sign_pow(emb_a.source.degree(na)))
    assert {emb_a.source.degree(na) % 2 for na in emb_a.source.names[:3]} \
        == {0, 1}


def test_gapped_fixture_pair():
    two = two_factor_gapped()
    assert check_subalgebra(two["embA"])["status"] == "PASS"
    assert check_subalgebra(two["embB"])["status"] == "PASS"
    assert check_commuting(two["embA"], two["embB"])["status"] == "PASS"


def test_commuting_mutation_sensitivity():
    two = two_factor_gapped()
    # break the product algebra's mixed (2,0) structure
    mutant = flip_constant(two["C"], "m2:0/0:xA|eB,eA|xB->xA|xB")
    emb_a = SubalgebraEmbedding(two["embA"].source, mutant, two["embA"].iota)
    emb_b = SubalgebraEmbedding(two["embB"].source, mutant, two["embB"].iota)
    assert check_commuting(emb_a, emb_b)["status"] == "FAIL"


def test_box_product_exactness():
    two = two_factor_gapped()
    report = box_product(two["embA"], two["embB"], two["b1"], two["b2"])
    assert report["status"] == "PASS"
    assert report["potential_additive"]
    assert report["element"] == \
        two["embA"].apply(two["b1"]) + two["embB"].apply(two["b2"])
    # the combined cochain solves weak MC on the product directly
    _, rem = mc_defect(two["C"], report["element"])
    assert rem.is_zero()


def test_box_product_wrong_candidate_fails():
    two = two_factor_gapped()
    bad = scale(two["b1"], NovikovElement.scalar(2))
    report = box_product(two["embA"], two["embB"], bad, two["b2"])
    assert report["status"] == "FAIL"
