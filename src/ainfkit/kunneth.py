"""Subalgebra embeddings, commuting pairs and the product comparison map.

A commuting pair of subalgebras A, B inside C comes with the degree-zero map

    K(a (x) b) = (-1)^{|a|} mu_{2,0}(iota_A(a), iota_B(b)),

which is the comparison map from the tensor product to C; kunneth_K_table
keeps it on every pair of basis names.  The checks here verify, as exact
identities on stated scan sets:

  * the subalgebra equations (operations restrict along iota);
  * the commuting equations (mixed tuples vanish except the (2,0)
    anticommutator, curvature splits as a sum, and operations with one
    K-inserted argument reduce to one factor with explicit Koszul signs);
  * the quasi-isomorphism hypothesis for K on the beta = 0 chain level, on
    the tensor pairs with a factor in its window (the excluded pairs are
    listed).

The subalgebra and commuting scans evaluate the stored op tables
(ainf.eval_table) on sparse {name: Fraction} arguments: iota-images of basis
names and K-images of window pairs.  Every coefficient they meet is an
energy-zero scalar, so no Novikov arithmetic is needed; a violation's
elements are built only when it is recorded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    add_into,
    beta_json,
    differential_matrix,
    eval_table,
    linear_image,
    mc_defect,
)
from ainfkit.poly import (
    EchelonSpan,
    graded_dims,
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
        # iota is injective exactly when its sparse columns, indexed by
        # target name, are linearly independent.
        span = EchelonSpan()
        if not all(span.add(clean[nm]) for nm in source.names):
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


def _elem_json(vec: dict, truncation):
    return AlgElement(vec, truncation).to_json()


def check_subalgebra(emb: SubalgebraEmbedding) -> dict:
    """Operations of C restrict along iota to those of A, and vanish at
    beta outside A's monoid, on every source-basis tuple; the first
    violation is reported."""
    a, c = emb.source, emb.target
    k_max = max(a.max_arity(), c.max_arity())

    def mismatches():
        for beta in _scan_betas(emb):
            a_ops = a.ops if beta in a.monoid else {}
            for k in range(1, k_max + 1):
                a_table = a_ops.get((k, beta), {})
                if not a_table and (k, beta) not in c.ops:
                    continue
                for names in product(a.names, repeat=k):
                    lhs = eval_table(c.ops, k, beta,
                                     [emb.iota[nm] for nm in names])
                    rhs = linear_image(emb.iota, a_table.get(names, {}))
                    if lhs != rhs:
                        yield {"beta": beta_json(beta), "k": k,
                               "inputs": list(names),
                               "lhs": _elem_json(lhs, c.truncation),
                               "rhs": _elem_json(rhs, c.truncation)}
                        break

    violations = list(islice(mismatches(), 1))
    return {
        "check": "subalgebra",
        "status": "PASS" if not violations else "FAIL",
        "violations": violations,
    }


def kunneth_K_table(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding):
    """The comparison map on every pair of factor basis names:
    {(na, nb): {output: Fraction}} with
    K(na (x) nb) = (-1)^{|na|} m_{2,0}(iota_A(na), iota_B(nb))."""
    if embA.target is not embB.target and embA.target.ops != embB.target.ops:
        raise ValueError("embeddings must share the target algebra")
    ops, a_alg = embA.target.ops, embA.source
    return {(na, nb): {out: v * sign_pow(a_alg.degree(na)) for out, v in
                       eval_table(ops, 2, BETA_ZERO,
                                  (embA.iota[na], embB.iota[nb])).items()}
            for na in a_alg.names for nb in embB.source.names}


def kunneth_K(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding):
    """The comparison map as a bilinear function of factor elements, read
    from kunneth_K_table."""
    table = kunneth_K_table(embA, embB)
    trunc = embA.target.truncation

    def K(a: AlgElement, b: AlgElement) -> AlgElement:
        out = AlgElement.zero(trunc)
        for na, nova in a.coeffs.items():
            for nb, novb in b.coeffs.items():
                if table[(na, nb)]:
                    out = out + AlgElement(table[(na, nb)], trunc).scale(
                        nova.retruncate(trunc) * novb.retruncate(trunc))
        return out

    return K


def check_commuting(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding) -> dict:
    """The commuting-pair equations, scanned over embedded basis tuples.

    Clause (a): mixed tuples vanish except the graded (2,0) anticommutator;
    pure tuples vanish at beta outside their factor monoid.  Clause (b):
    curvature splits as iota_A(m^A_0) + iota_B(m^B_0).  Clause (c): one
    K-inserted argument reduces to a single factor operation; when the plain
    inputs are empty the all-A and all-B reductions both apply and the
    right-hand side is their sum.

    Every value is a lookup into the stored tables on sparse arguments
    (iota-images of basis names and K-images of window pairs), whose
    coefficients are energy-zero scalars, so plain Fractions.
    """
    if embA.target is not embB.target and embA.target.ops != embB.target.ops:
        raise ValueError("embeddings must share the target algebra")
    c = embA.target
    a_alg, b_alg = embA.source, embB.source
    if monoid_sum(a_alg.monoid, b_alg.monoid) != c.monoid:
        raise ValueError("target monoid must be the sum of the factor monoids")
    kt = kunneth_K_table(embA, embB)
    trunc = c.truncation
    violations = []
    betas = sorted(set(_scan_betas(embA)) | set(_scan_betas(embB)))
    k_max = c.max_arity()
    # A tag (side, name) is a factor basis element; the shared unit appears
    # once per factor and identities are checked per tag.
    embs = {"A": embA, "B": embB}
    tags = [("A", nm) for nm in a_alg.names] + [("B", nm) for nm in b_alg.names]
    image = {t: embs[t[0]].iota[t[1]] for t in tags}
    sdeg = {t: shifted(embs[t[0]].source.degree(t[1])) for t in tags}
    strict = {t: t[1] != embs[t[0]].source.unit for t in tags}

    def record(clause, beta, detail):
        violations.append({"clause": clause, "beta": beta_json(beta), **detail})

    # -- clause (a) ---------------------------------------------------------
    for beta in betas:
        in_ga, in_gb = beta in a_alg.monoid, beta in b_alg.monoid
        for k in range(1, k_max + 1):
            if (k, beta) not in c.ops:
                continue  # every value below is zero
            for tup in product(tags, repeat=k):
                has_a = any(t[0] == "A" and strict[t] for t in tup)
                has_b = any(t[0] == "B" and strict[t] for t in tup)
                mixed = has_a and has_b
                if not mixed and ((in_ga and not has_b) or (in_gb and not has_a)):
                    continue  # covered by the subalgebra check
                args = [image[t] for t in tup]
                val = eval_table(c.ops, k, beta, args)
                detail = {"k": k}
                if mixed and (k, beta) == (2, BETA_ZERO):
                    add_into(val, eval_table(c.ops, 2, beta, args[::-1]),
                             sign_pow(sdeg[tup[0]] * sdeg[tup[1]]))
                    val = {out: v for out, v in val.items() if v}
                    clause, detail = "a-anticommutator", {}
                else:
                    clause = "a-mixed-vanishing" if mixed else "a-pure-vanishing"
                if val:
                    record(clause, beta, {**detail, "inputs": [list(t) for t in tup],
                                          "value": _elem_json(val, trunc)})
        if len(violations) > 20:
            break

    # -- clause (b) ----------------------------------------------------------
    for beta in betas:
        if beta == BETA_ZERO:
            continue
        rhs = {}
        for emb in (embA, embB):
            if beta in emb.source.monoid:
                add_into(rhs, linear_image(
                    emb.iota, eval_table(emb.source.ops, 0, beta, ())))
        lhs = eval_table(c.ops, 0, beta, ())
        rhs = {out: v for out, v in rhs.items() if v}
        if lhs != rhs:
            record("b-curvature", beta, {"lhs": _elem_json(lhs, trunc),
                                         "rhs": _elem_json(rhs, trunc)})

    # -- clause (c) ----------------------------------------------------------
    window_tags = [("A", nm) for nm in a_alg.window] + \
        [("B", nm) for nm in b_alg.window]
    pairs = list(product(a_alg.window, b_alg.window))
    for beta in betas:
        a_ops = a_alg.ops if beta in a_alg.monoid else {}
        b_ops = b_alg.ops if beta in b_alg.monoid else {}
        for k in range(0, k_max):
            a_table = a_ops.get((k + 1, beta), {})
            b_table = b_ops.get((k + 1, beta), {})
            for plain in product(window_tags, repeat=k):
                all_a = all(t[0] == "A" for t in plain)
                all_b = all(t[0] == "B" for t in plain)
                names = tuple(t[1] for t in plain)
                args = [image[t] for t in plain]
                for i in range(k + 1):
                    # Koszul exponents of moving b past the plain inputs after
                    # slot i, and of moving a past those before it.
                    after = sum(sdeg[t] for t in plain[i:])
                    before = 1 + sum(sdeg[t] for t in plain[:i])
                    for na, nb in pairs:
                        lhs = eval_table(c.ops, k + 1, beta,
                                         args[:i] + [kt[(na, nb)]] + args[i:])
                        rhs = {}
                        if all_a:
                            s = sign_pow(b_alg.degree(nb) * after)
                            for nm, v in a_table.get(
                                    names[:i] + (na,) + names[i:], {}).items():
                                add_into(rhs, kt[(nm, nb)], s * v)
                        if all_b:
                            s = sign_pow(a_alg.degree(na) * before)
                            for nm, v in b_table.get(
                                    names[:i] + (nb,) + names[i:], {}).items():
                                add_into(rhs, kt[(na, nm)], s * v)
                        rhs = {out: v for out, v in rhs.items() if v}
                        if lhs != rhs:
                            record("c-insertion", beta, {
                                "k": k, "slot": i,
                                "plain": [list(t) for t in plain],
                                "pair": [na, nb],
                                "lhs": _elem_json(lhs, trunc),
                                "rhs": _elem_json(rhs, trunc),
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

    The scope is the tensor pairs with at least one factor in its window,
    where the models store m_2 and hence K; the other pairs are reported as
    excluded.  The scope must be a subcomplex (on the de Rham models d keeps
    the frequency, so it is); a D-image outside it is reported as an error.
    """
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
    mu = differential_matrix(c_alg)

    kmat = [[Fraction(0)] * np_ for _ in range(nc)]
    for (na, nb), j in pair_idx.items():
        for out, v in kt[(na, nb)].items():
            kmat[c_idx[out]][j] = v

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
    ker_vectors = EchelonSpan(D).kernel(np_)
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
        "excluded_pairs": [list(p) for p in kt if p not in pair_idx],
        "injective": injective,
        "chain_map": chain_map,
        "dim_H_source": dim_h_source,
        "dim_H_target": dim_h_target,
        "dims_by_degree_source": {str(d): v for d, v in dims_source.items()},
        "dims_by_degree_target": {str(d): v for d, v in dims_target.items()},
        "cohomology_bijective": bijective,
    }
