from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.ainf import (
    AlgElement,
    constant_ids,
    eval_op,
    flip_constant,
    mc_defect,
    replaced,
)
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
from ainfkit.specio import load_spec
from elements import apply_name, scale
from test_golden_reports import CHECK_AINF, COMMANDS
from test_sparse_linalg import (
    dense_graded_dims,
    dense_kernel_basis,
    dense_rank,
    identity,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ainfkit" / "fixtures"


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
            apply_name(emb_a, na), apply_name(emb_b, nb))),
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


# -- dense oracle ------------------------------------------------------------------

def dense_differential_matrix(alg):
    """mu_{1,0} as columns over the basis, entries Fractions, in dense lists."""
    idx = {nm: i for i, nm in enumerate(alg.names)}
    n = len(alg.names)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for nm in alg.names:
        for out, cf in alg.op_on_names(1, BETA_ZERO, (nm,)).items():
            mat[idx[out]][idx[nm]] = cf
    return mat


def dense_product(a, b, zero):
    """The nonzero entries {(row, column): x} of the product of two dense
    matrices, row by row, skipping the zero entries of a."""
    out = {}
    for i, row in enumerate(a):
        acc = [zero] * (len(b[0]) if b else 0)
        for k, x in enumerate(row):
            if x != zero:
                for j, y in enumerate(b[k]):
                    if y != zero:
                        acc[j] += x * y
        out.update(((i, j), v) for j, v in enumerate(acc) if v != zero)
    return out


def dense_squares_to_zero(mat, zero):
    return not dense_product(mat, mat, zero)


def dense_kernel(rows, ncols):
    return dense_kernel_basis(rows) if rows else identity(ncols)


def dense_check_kunneth_hypothesis(embA, embB) -> dict:
    """check_kunneth_hypothesis as it was, on dense n x n lists, with the
    rank, kernel, product and graded dimensions of the dense oracles."""
    a_alg, b_alg, c_alg = embA.source, embB.source, embA.target
    kt = kunneth_K_table(embA, embB)
    a_win, b_win = set(a_alg.window), set(b_alg.window)
    pairs = [p for p in kt if p[0] in a_win or p[1] in b_win]
    pair_idx = {p: i for i, p in enumerate(pairs)}
    names_c = c_alg.names
    np_, nc = len(pairs), len(names_c)
    c_idx = {nm: i for i, nm in enumerate(names_c)}

    errors = []
    D = [[Fraction(0)] * np_ for _ in range(np_)]
    for (na, nb), j in pair_idx.items():
        s = sign_pow(a_alg.degree(na))
        images = [((out, nb), cf) for out, cf in
                  a_alg.op_on_names(1, BETA_ZERO, (na,)).items()]
        images += [((na, out), s * cf) for out, cf in
                   b_alg.op_on_names(1, BETA_ZERO, (nb,)).items()]
        for p, cf in images:
            if p not in pair_idx:
                errors.append(f"D({na} (x) {nb}) leaves the window scope "
                              f"at {p[0]} (x) {p[1]}")
                continue
            D[pair_idx[p]][j] += cf
    mu = dense_differential_matrix(c_alg)

    kmat = [[Fraction(0)] * np_ for _ in range(nc)]
    for (na, nb), j in pair_idx.items():
        for out, v in kt[(na, nb)].items():
            kmat[c_idx[out]][j] = v

    if not dense_squares_to_zero(D, 0):
        errors.append("tensor differential does not square to zero")
    if not dense_squares_to_zero(mu, 0):
        errors.append("target differential does not square to zero")
    k_rank = dense_rank(kmat)
    injective = k_rank == np_
    chain_map = dense_product(mu, kmat, 0) == dense_product(kmat, D, 0)

    rank_d = dense_rank(D)
    rank_mu = dense_rank(mu)
    dim_h_source = np_ - 2 * rank_d
    dim_h_target = nc - 2 * rank_mu

    # Induced map on cohomology: classes of K(ker D) modulo im(mu).
    ker_vectors = dense_kernel(D, np_)
    k_of_ker = dense_product(
        kmat, [[vec[j] for vec in ker_vectors] for j in range(np_)], 0)
    stacked = [mu[i] + [k_of_ker.get((i, c), Fraction(0))
                        for c in range(len(ker_vectors))] for i in range(nc)]
    induced_rank = dense_rank(stacked) - rank_mu
    bijective = induced_rank == dim_h_source == dim_h_target

    tensor_degrees = {p: a_alg.degree(p[0]) + b_alg.degree(p[1]) for p in pairs}
    dims_source = dense_graded_dims(pairs, tensor_degrees, D)
    dims_target = dense_graded_dims(names_c, dict(c_alg.basis), mu)

    ok = injective and chain_map and bijective and not errors
    return {
        "check": "kunneth-hypothesis",
        "status": "PASS" if ok else "FAIL",
        "errors": errors,
        "K_rank": k_rank,
        "tensor_dim": np_,
        "excluded_pairs": [list(p) for p in kt if p not in pair_idx],
        "injective": injective,
        "chain_map": chain_map,
        "dim_H_source": dim_h_source,
        "dim_H_target": dim_h_target,
        "dims_by_degree_source": {str(d): v for d, v in dims_source.items()},
        "dims_by_degree_target": {str(d): v for d, v in dims_target.items()},
        "cohomology_bijective": bijective,
    }


def assert_matches_dense(embA, embB) -> dict:
    report = check_kunneth_hypothesis(embA, embB)
    assert report == dense_check_kunneth_hypothesis(embA, embB)
    return report


def with_target(embA, embB, target):
    return replaced(embA, target=target), replaced(embB, target=target)


def test_kunneth_hypothesis_matches_dense_on_bundled_pairs():
    statuses = [assert_matches_dense(*load_spec(
        str(FIXTURES / f"{name}.json")).embedding_pair())["status"]
        for name in ("kunneth_derham", "kunneth_minimal")]
    two = two_factor_gapped()
    statuses.append(assert_matches_dense(two["embA"], two["embB"])["status"])
    for shape in ((1, 1, 1), (1, 1, 2)):
        statuses.append(assert_matches_dense(
            *derham_factor_embeddings(*shape))["status"])
    assert statuses == ["PASS"] * 5


def test_kunneth_hypothesis_matches_dense_on_target_flips():
    """Every golden flip of kunneth_derham and an evenly spaced panel of its
    constants: flips of m_1 break the chain map or d^2, flips of m_2 break K."""
    embA, embB = load_spec(str(FIXTURES / "kunneth_derham.json")).embedding_pair()
    target = embA.target
    ids = constant_ids(target)
    golden = [extra[extra.index("--mutate") + 1][len("flip:"):]
              for key in (*CHECK_AINF, *COMMANDS)
              if "kunneth_derham" in key
              for extra in [key[-1]] if "--mutate" in extra]
    panel = list(dict.fromkeys(golden + ids[::len(ids) // 24][:24]))
    assert len(golden) >= 12 and len(panel) >= 34
    statuses = [assert_matches_dense(*with_target(
        embA, embB, flip_constant(target, cid)))["status"] for cid in panel]
    assert "FAIL" in statuses and "PASS" in statuses


def test_kunneth_hypothesis_matches_dense_on_a_leaking_window():
    emb_a, emb_b = derham_factor_embeddings(1, 1, 1)
    src = emb_a.source
    narrowed = replaced(src, window=tuple(nm for nm in src.window
                                          if nm != "f1;d1"))
    report = assert_matches_dense(replaced(emb_a, source=narrowed), emb_b)
    assert report["errors"] and report["status"] == "FAIL"
