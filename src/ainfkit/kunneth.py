"""Subalgebra embeddings, commuting pairs and the product comparison map.

A commuting pair of subalgebras A, B inside C comes with the degree-zero map

    K(a (x) b) = (-1)^{|a|} mu_{2,0}(iota_A(a), iota_B(b)),

which is the comparison map from the tensor product to C.  The checks here
verify, as exact identities on stated scan sets:

  * the subalgebra equations (operations restrict along iota);
  * the commuting equations (mixed tuples vanish except the (2,0)
    anticommutator, curvature splits as a sum, and operations with one
    K-inserted argument reduce to one factor with explicit Koszul signs);
  * the quasi-isomorphism hypothesis for K on the beta = 0 chain level.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    beta_json,
    differential_matrix,
    eval_op,
    mc_defect,
)
from ainfkit.poly import (
    graded_dims,
    kernel_basis,
    rational_matrix_rank,
    sparse_product,
    squares_to_zero,
)
from ainfkit.scalars import BETA_ZERO, NovikovElement, frac, frac_str, monoid_sum
from ainfkit.signs import shifted, sign_pow


class SubalgebraEmbedding:
    """Degree-zero injective map iota: A -> C along which operations restrict.

    iota: dict {source-name: {target-name: Fraction}}.
    """

    __slots__ = ("source", "target", "iota")

    def __init__(self, source: AInfAlgebra, target: AInfAlgebra, iota):
        if source.mode != target.mode or source.cutoff != target.cutoff:
            raise ValueError("source and target must share mode and cutoff")
        clean = {}
        for src, combo in iota.items():
            if src not in source._degrees:
                raise ValueError(f"unknown source name {src!r}")
            out = {}
            for tgt, c in combo.items():
                c = frac(c)
                if c == 0:
                    continue
                if tgt not in target._degrees:
                    raise ValueError(f"unknown target name {tgt!r}")
                if target.degree(tgt) != source.degree(src):
                    raise ValueError(f"iota({src}) is not degree preserving")
                out[tgt] = c
            clean[src] = out
        for nm in source.names:
            if nm not in clean or not clean[nm]:
                raise ValueError(f"iota undefined (or zero) on {nm!r}")
        tgt_index = {nm: i for i, nm in enumerate(target.names)}
        cols = []
        for nm in source.names:
            col = [Fraction(0)] * len(target.names)
            for tgt, c in clean[nm].items():
                col[tgt_index[tgt]] = c
            cols.append(col)
        matrix = [[cols[j][i] for j in range(len(cols))]
                  for i in range(len(target.names))]
        if rational_matrix_rank(matrix) != len(source.names):
            raise ValueError("iota is not injective")
        if source.unit is None or target.unit is None:
            raise ValueError("both algebras need units")
        if clean[source.unit] != {target.unit: Fraction(1)}:
            raise ValueError("iota must send the unit to the unit")
        for gen in source.monoid.generators:
            if gen not in target.monoid:
                raise ValueError(f"source monoid generator {gen} not in target monoid")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "iota", clean)

    def __setattr__(self, *a):
        raise AttributeError("SubalgebraEmbedding is immutable")

    def apply_name(self, name) -> AlgElement:
        trunc = self.target.truncation
        return AlgElement(
            {tgt: NovikovElement.scalar(c, trunc)
             for tgt, c in self.iota[name].items()},
            trunc,
        )

    def apply(self, elem: AlgElement) -> AlgElement:
        out = AlgElement.zero(self.target.truncation)
        for nm, nov in elem.coeffs.items():
            out = out + self.apply_name(nm).scale(nov.retruncate(self.target.truncation))
        return out

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "iota": {src: {t: frac_str(c) for t, c in sorted(combo.items())}
                     for src, combo in sorted(self.iota.items())},
        }

    @staticmethod
    def from_json(doc, target: AInfAlgebra) -> "SubalgebraEmbedding":
        return SubalgebraEmbedding(
            AInfAlgebra.from_json(doc["source"]),
            target,
            {src: {t: frac(c) for t, c in combo.items()}
             for src, combo in doc["iota"].items()},
        )


def _scan_betas(emb: SubalgebraEmbedding):
    betas = {BETA_ZERO}
    betas.update(b for _, b in emb.source.ops)
    betas.update(b for _, b in emb.target.ops)
    return sorted(betas)


def check_subalgebra(emb: SubalgebraEmbedding) -> dict:
    """Operations of C restrict along iota to those of A, and vanish at
    beta outside A's monoid, on every source-basis tuple."""
    a, c = emb.source, emb.target
    violations = []
    k_max = max(a.max_arity(), c.max_arity())
    for beta in _scan_betas(emb):
        in_ga = beta in a.monoid
        for k in range(1, k_max + 1):
            for names in product(a.names, repeat=k):
                lhs = eval_op(c, k, beta, tuple(emb.apply_name(nm) for nm in names))
                if in_ga:
                    rhs = emb.apply(eval_op(
                        a, k, beta,
                        tuple(AlgElement.basis(nm, a.truncation) for nm in names)))
                else:
                    rhs = AlgElement.zero(c.truncation)
                if lhs != rhs:
                    violations.append({
                        "beta": beta_json(beta), "k": k, "inputs": list(names),
                        "lhs": lhs.to_json(), "rhs": rhs.to_json(),
                    })
                    break
            if violations:
                break
        if violations:
            break
    return {
        "check": "subalgebra",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def kunneth_K(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding):
    """The comparison map as a bilinear function of factor elements.  Its
    value on each pair of basis names is computed once and kept."""
    if embA.target is not embB.target and embA.target.ops != embB.target.ops:
        raise ValueError("embeddings must share the target algebra")
    c = embA.target
    on_basis = {}

    def K(a: AlgElement, b: AlgElement) -> AlgElement:
        out = AlgElement.zero(c.truncation)
        for na, nova in a.coeffs.items():
            for nb, novb in b.coeffs.items():
                val = on_basis.get((na, nb))
                if val is None:
                    val = on_basis[(na, nb)] = eval_op(
                        c, 2, BETA_ZERO,
                        (embA.apply_name(na), embB.apply_name(nb)),
                    ).scale(sign_pow(embA.source.degree(na)))
                if not val.is_zero():
                    out = out + val.scale(nova.retruncate(c.truncation) *
                                          novb.retruncate(c.truncation))
        return out

    return K


def _tagged_generators(embA, embB):
    """All embedded factor basis elements, remembering which factor they
    came from.  The shared unit appears once per factor; identities are
    checked per tag, so no double counting occurs."""
    tags = [("A", nm) for nm in embA.source.names]
    tags += [("B", nm) for nm in embB.source.names]
    return tags


def _tag_elem(embA, embB, tag) -> AlgElement:
    side, nm = tag
    return (embA if side == "A" else embB).apply_name(nm)


def _tag_degree(embA, embB, tag) -> int:
    side, nm = tag
    return (embA if side == "A" else embB).source.degree(nm)


def _is_strict(emb, tag, side) -> bool:
    return tag[0] == side and tag[1] != emb.source.unit


def check_commuting(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding) -> dict:
    """The commuting-pair equations, scanned over embedded basis tuples.

    Clause (a): mixed tuples vanish except the graded (2,0) anticommutator;
    pure tuples vanish at beta outside their factor monoid.  Clause (b):
    curvature splits as iota_A(m^A_0) + iota_B(m^B_0).  Clause (c): one
    K-inserted argument reduces to a single factor operation; when the plain
    inputs are empty the all-A and all-B reductions both apply and the
    right-hand side is their sum.
    """
    if embA.target is not embB.target and embA.target.ops != embB.target.ops:
        raise ValueError("embeddings must share the target algebra")
    c = embA.target
    a_alg, b_alg = embA.source, embB.source
    if monoid_sum(a_alg.monoid, b_alg.monoid) != c.monoid:
        raise ValueError("target monoid must be the sum of the factor monoids")
    K = kunneth_K(embA, embB)
    violations = []
    betas = sorted(set(_scan_betas(embA)) | set(_scan_betas(embB)))
    tags = _tagged_generators(embA, embB)
    k_max = c.max_arity()

    def record(clause, beta, detail):
        violations.append({"clause": clause, "beta": beta_json(beta), **detail})

    # -- clause (a) ---------------------------------------------------------
    for beta in betas:
        in_ga, in_gb = beta in a_alg.monoid, beta in b_alg.monoid
        for k in range(1, k_max + 1):
            for tup in product(tags, repeat=k):
                has_a = any(_is_strict(embA, t, "A") for t in tup)
                has_b = any(_is_strict(embB, t, "B") for t in tup)
                elems = tuple(_tag_elem(embA, embB, t) for t in tup)
                if has_a and has_b:
                    if (k, beta) == (2, BETA_ZERO):
                        d1 = _tag_degree(embA, embB, tup[0])
                        d2 = _tag_degree(embA, embB, tup[1])
                        val = eval_op(c, 2, BETA_ZERO, elems) + eval_op(
                            c, 2, BETA_ZERO, (elems[1], elems[0])
                        ).scale(sign_pow(shifted(d1) * shifted(d2)))
                        if not val.is_zero():
                            record("a-anticommutator", beta,
                                   {"inputs": [list(t) for t in tup],
                                    "value": val.to_json()})
                    else:
                        val = eval_op(c, k, beta, elems)
                        if not val.is_zero():
                            record("a-mixed-vanishing", beta,
                                   {"k": k, "inputs": [list(t) for t in tup],
                                    "value": val.to_json()})
                else:
                    allowed = (in_ga and not has_b) or (in_gb and not has_a)
                    if allowed:
                        continue  # covered by the subalgebra check
                    val = eval_op(c, k, beta, elems)
                    if not val.is_zero():
                        record("a-pure-vanishing", beta,
                               {"k": k, "inputs": [list(t) for t in tup],
                                "value": val.to_json()})
        if len(violations) > 20:
            break

    # -- clause (b) ----------------------------------------------------------
    for beta in betas:
        if beta == BETA_ZERO:
            continue
        lhs = eval_op(c, 0, beta, ())
        rhs = AlgElement.zero(c.truncation)
        if beta in a_alg.monoid:
            rhs = rhs + embA.apply(eval_op(a_alg, 0, beta, ()))
        if beta in b_alg.monoid:
            rhs = rhs + embB.apply(eval_op(b_alg, 0, beta, ()))
        if lhs != rhs:
            record("b-curvature", beta,
                   {"lhs": lhs.to_json(), "rhs": rhs.to_json()})

    # -- clause (c) ----------------------------------------------------------
    a_window = list(a_alg.window)
    b_window = list(b_alg.window)
    window_tags = [("A", nm) for nm in a_window] + [("B", nm) for nm in b_window]
    mids = {(na, nb): K(AlgElement.basis(na, a_alg.truncation),
                        AlgElement.basis(nb, b_alg.truncation))
            for na in a_window for nb in b_window}
    for beta in betas:
        in_ga, in_gb = beta in a_alg.monoid, beta in b_alg.monoid
        for k in range(0, k_max):
            for plain in product(window_tags, repeat=k):
                all_a = all(t[0] == "A" for t in plain)
                all_b = all(t[0] == "B" for t in plain)
                plain_elems = [_tag_elem(embA, embB, t) for t in plain]
                plain_degs = [_tag_degree(embA, embB, t) for t in plain]
                for i in range(k + 1):
                    for na in a_window:
                        for nb in b_window:
                            da, db = a_alg.degree(na), b_alg.degree(nb)
                            mid = mids[(na, nb)]
                            args = tuple(plain_elems[:i]) + (mid,) + \
                                tuple(plain_elems[i:])
                            lhs = eval_op(c, k + 1, beta, args)
                            rhs = AlgElement.zero(c.truncation)
                            if all_a and in_ga:
                                inner_args = tuple(
                                    AlgElement.basis(t[1], a_alg.truncation)
                                    for t in plain[:i]
                                ) + (AlgElement.basis(na, a_alg.truncation),) + tuple(
                                    AlgElement.basis(t[1], a_alg.truncation)
                                    for t in plain[i:]
                                )
                                inner = eval_op(a_alg, k + 1, beta, inner_args)
                                s = sign_pow(db * sum(shifted(d)
                                                      for d in plain_degs[i:]))
                                rhs = rhs + K(
                                    inner, AlgElement.basis(nb, b_alg.truncation)
                                ).scale(Fraction(s))
                            if all_b and in_gb:
                                inner_args = tuple(
                                    AlgElement.basis(t[1], b_alg.truncation)
                                    for t in plain[:i]
                                ) + (AlgElement.basis(nb, b_alg.truncation),) + tuple(
                                    AlgElement.basis(t[1], b_alg.truncation)
                                    for t in plain[i:]
                                )
                                inner = eval_op(b_alg, k + 1, beta, inner_args)
                                s = sign_pow(da * (1 + sum(shifted(d)
                                                           for d in plain_degs[:i])))
                                rhs = rhs + K(
                                    AlgElement.basis(na, a_alg.truncation), inner
                                ).scale(Fraction(s))
                            if lhs != rhs:
                                record("c-insertion", beta, {
                                    "k": k, "slot": i,
                                    "plain": [list(t) for t in plain],
                                    "pair": [na, nb],
                                    "lhs": lhs.to_json(), "rhs": rhs.to_json(),
                                })
            if len(violations) > 40:
                break
        if len(violations) > 40:
            break

    return {
        "check": "commuting",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def box_product(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding,
                b1: AlgElement, b2: AlgElement) -> dict:
    """Combine factor bounding cochains into one for the product algebra.

    Returns the candidate iota_A(b1) + iota_B(b2) together with the three
    curvature-potential values and the exactness status of the combination.
    """
    c = embA.target
    p1, rem1 = mc_defect(embA.source, b1)
    p2, rem2 = mc_defect(embB.source, b2)
    bc = embA.apply(b1) + embB.apply(b2)
    pc, remc = mc_defect(c, bc)
    additive = pc == (p1.retruncate(c.truncation) + p2.retruncate(c.truncation))
    ok = rem1.is_zero() and rem2.is_zero() and remc.is_zero() and additive
    return {
        "check": "box-product",
        "status": "PASS" if ok else "FAIL",
        "element": bc,
        "P_A": p1, "P_B": p2, "P_C": pc,
        "remainder_A_zero": rem1.is_zero(),
        "remainder_B_zero": rem2.is_zero(),
        "remainder_C_zero": remc.is_zero(),
        "potential_additive": additive,
    }


# -- beta = 0 chain-level comparison ---------------------------------------------

def check_kunneth_hypothesis(embA: SubalgebraEmbedding,
                             embB: SubalgebraEmbedding) -> dict:
    """K is an injective chain map inducing a cohomology bijection at beta = 0.

    The tensor-product differential is
        D(a (x) b) = m^A_{1,0}(a) (x) b + (-1)^{|a|} a (x) m^B_{1,0}(b).
    """
    a_alg, b_alg, c_alg = embA.source, embB.source, embA.target
    K = kunneth_K(embA, embB)
    names_a, names_b, names_c = a_alg.names, b_alg.names, c_alg.names
    pairs = [(na, nb) for na in names_a for nb in names_b]
    pair_idx = {p: i for i, p in enumerate(pairs)}
    np_, nc = len(pairs), len(names_c)
    c_idx = {nm: i for i, nm in enumerate(names_c)}

    d_a, d_b = differential_matrix(a_alg), differential_matrix(b_alg)
    a_idx = {nm: i for i, nm in enumerate(names_a)}
    b_idx = {nm: i for i, nm in enumerate(names_b)}
    D = [[Fraction(0)] * np_ for _ in range(np_)]
    for (na, nb), j in pair_idx.items():
        for ia, nm2 in enumerate(names_a):
            cf = d_a[ia][a_idx[na]]
            if cf != 0:
                D[pair_idx[(nm2, nb)]][j] += cf
        s = sign_pow(a_alg.degree(na))
        for ib, nm2 in enumerate(names_b):
            cf = d_b[ib][b_idx[nb]]
            if cf != 0:
                D[pair_idx[(na, nm2)]][j] += s * cf
    mu = differential_matrix(c_alg)

    kmat = [[Fraction(0)] * np_ for _ in range(nc)]
    for (na, nb), j in pair_idx.items():
        img = K(AlgElement.basis(na, a_alg.truncation),
                AlgElement.basis(nb, b_alg.truncation))
        for out, nov in img.coeffs.items():
            kmat[c_idx[out]][j] = nov.coefficient(0)

    errors = []
    if not squares_to_zero(D, 0):
        errors.append("tensor differential does not square to zero")
    if not squares_to_zero(mu, 0):
        errors.append("target differential does not square to zero")
    k_rank = rational_matrix_rank(kmat)
    injective = k_rank == np_
    chain_map = sparse_product(mu, kmat, 0) == sparse_product(kmat, D, 0)

    rank_d = rational_matrix_rank(D)
    rank_mu = rational_matrix_rank(mu)
    dim_h_source = np_ - 2 * rank_d
    dim_h_target = nc - 2 * rank_mu

    # Induced map on cohomology: classes of K(ker D) modulo im(mu).
    ker_vectors = kernel_basis(D)
    k_of_ker = sparse_product(
        kmat, [[vec[j] for vec in ker_vectors] for j in range(np_)], 0)
    stacked = [mu[i] + [k_of_ker.get((i, c), Fraction(0))
                        for c in range(len(ker_vectors))] for i in range(nc)]
    induced_rank = rational_matrix_rank(stacked) - rank_mu
    bijective = induced_rank == dim_h_source == dim_h_target

    tensor_degrees = {p: a_alg.degree(p[0]) + b_alg.degree(p[1]) for p in pairs}
    dims_source = graded_dims(pairs, tensor_degrees, D)
    dims_target = graded_dims(names_c, dict(c_alg.basis), mu)

    ok = injective and chain_map and bijective and not errors
    return {
        "check": "kunneth-hypothesis",
        "status": "PASS" if ok else "FAIL",
        "errors": errors,
        "K_rank": k_rank,
        "tensor_dim": np_,
        "injective": injective,
        "chain_map": chain_map,
        "dim_H_source": dim_h_source,
        "dim_H_target": dim_h_target,
        "dims_by_degree_source": {str(d): v for d, v in dims_source.items()},
        "dims_by_degree_target": {str(d): v for d, v in dims_target.items()},
        "cohomology_bijective": bijective,
    }
