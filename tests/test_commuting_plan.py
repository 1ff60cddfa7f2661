"""The commuting-pair and subalgebra scans against the code they replaced.

`kunneth.check_commuting` and `kunneth.check_subalgebra` run the scans of
`kunneth.pullback_scanner`: one pass over the stored entries of the target
table, through an inverse index of the iota-supports (and of the K-images of
`kunneth_K_table` for the inserted slot), compared with the factor tables
pushed forward. Two earlier versions stay here, verbatim, as differential
oracles. The per-tuple table scan ran every tuple of `product(tags,
repeat=k)` through `eval_table` on sparse {name: Fraction} arguments; the
element scan before it pushed every tuple through `eval_op` on `AlgElement`s
with `NovikovElement` coefficients, with K as a bilinear function of
elements. Full reports must agree, down to the order of the violations and
where the silent caps cut the lists. The evaluators of both are kept here
as well: `eval_op` as it was before `ainf.eval_op` read its table through
`ainf.pull_back`, and `eval_table`, with the Q[t] evaluator `eval_poly_op`
it replaced; each is the oracle of the next. The per-tuple scans read K
from `kunneth_K_table` as it was before it became a pull-back, on
`eval_table`, so that they share no evaluation with the scan they check.
"""

from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import ainf, kunneth
from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    add_into,
    beta_json,
    beta_norm,
    constant_ids,
    flip_constant,
    linear_image,
    replaced,
)
from ainfkit.kunneth import SubalgebraEmbedding
from ainfkit.models import two_factor_gapped
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, NovikovElement, monoid_sum
from ainfkit.signs import shifted, sign_pow
from ainfkit.specio import load_spec
from elements import apply_name, basis_element, scale, zero_element
from test_golden_reports import stray_product

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ainfkit" / "fixtures"


# -- the replaced code, kept as the oracle ---------------------------------------

# The element evaluator of these scans, as it was before `ainf.eval_op` read
# its table through `ainf.pull_back`.

def eval_op(alg: AInfAlgebra, k: int, beta, inputs) -> AlgElement:
    """Multilinear extension of m_{k,beta} to Novikov-coefficient elements."""
    k = int(k)
    beta = beta_norm(beta)
    inputs = tuple(inputs)
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs, got {len(inputs)}")
    if beta not in alg.monoid:
        raise ValueError(f"beta {beta} outside the energy monoid")
    if alg.mode == "modulo" and beta[0] > alg.cutoff:
        raise ValueError(f"beta {beta} above cutoff {alg.cutoff}")
    trunc = alg.truncation
    table = alg.op_table(k, beta)
    if not table:
        return zero_element(trunc)
    acc = {}
    for combo in product(*[list(inp.coeffs.items()) for inp in inputs]):
        names = tuple(nm for nm, _ in combo)
        hit = table.get(names)
        if not hit:
            continue
        scalar = NovikovElement.scalar(1, trunc)
        for _, nov in combo:
            scalar = scalar * nov
        if scalar.is_zero():
            continue
        for out, coeff in hit.items():
            term = scalar * coeff
            acc[out] = acc[out] + term if out in acc else term
    return AlgElement(acc, trunc)



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
                lhs = eval_op(c, k, beta, tuple(apply_name(emb, nm) for nm in names))
                if in_ga:
                    rhs = emb.apply(eval_op(
                        a, k, beta,
                        tuple(basis_element(nm, a.truncation) for nm in names)))
                else:
                    rhs = zero_element(c.truncation)
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
        out = zero_element(c.truncation)
        for na, nova in a.coeffs.items():
            for nb, novb in b.coeffs.items():
                val = on_basis.get((na, nb))
                if val is None:
                    val = on_basis[(na, nb)] = scale(eval_op(
                        c, 2, BETA_ZERO,
                        (apply_name(embA, na), apply_name(embB, nb)),
                    ), sign_pow(embA.source.degree(na)))
                if not val.is_zero():
                    out = out + scale(val, nova.retruncate(c.truncation) *
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
    return apply_name(embA if side == "A" else embB, nm)


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
                        val = eval_op(c, 2, BETA_ZERO, elems) + scale(eval_op(
                            c, 2, BETA_ZERO, (elems[1], elems[0])
                        ), sign_pow(shifted(d1) * shifted(d2)))
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
        rhs = zero_element(c.truncation)
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
    mids = {(na, nb): K(basis_element(na, a_alg.truncation),
                        basis_element(nb, b_alg.truncation))
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
                            rhs = zero_element(c.truncation)
                            if all_a and in_ga:
                                inner_args = tuple(
                                    basis_element(t[1], a_alg.truncation)
                                    for t in plain[:i]
                                ) + (basis_element(na, a_alg.truncation),) + tuple(
                                    basis_element(t[1], a_alg.truncation)
                                    for t in plain[i:]
                                )
                                inner = eval_op(a_alg, k + 1, beta, inner_args)
                                s = sign_pow(db * sum(shifted(d)
                                                      for d in plain_degs[i:]))
                                rhs = rhs + scale(K(
                                    inner, basis_element(nb, b_alg.truncation)
                                ), Fraction(s))
                            if all_b and in_gb:
                                inner_args = tuple(
                                    basis_element(t[1], b_alg.truncation)
                                    for t in plain[:i]
                                ) + (basis_element(nb, b_alg.truncation),) + tuple(
                                    basis_element(t[1], b_alg.truncation)
                                    for t in plain[i:]
                                )
                                inner = eval_op(b_alg, k + 1, beta, inner_args)
                                s = sign_pow(da * (1 + sum(shifted(d)
                                                           for d in plain_degs[:i])))
                                rhs = rhs + scale(K(
                                    basis_element(na, a_alg.truncation), inner
                                ), Fraction(s))
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


def eval_poly_op(tables, k, beta, inputs) -> dict:
    """Multilinear evaluation of a polynomial family on poly-coefficient
    elements (dicts name -> Poly).  Returns a dict name -> Poly."""
    table = tables.get((int(k), beta_norm(beta)))
    out = {}
    if not table:
        return out
    for combo in product(*[list(inp.items()) for inp in inputs]):
        names = tuple(nm for nm, _ in combo)
        hit = table.get(names)
        if not hit:
            continue
        factor = Poly.ONE
        for _, p in combo:
            factor = factor * p
        if factor.is_zero():
            continue
        for o, poly in hit.items():
            term = factor * poly
            out[o] = out[o] + term if o in out else term
    return {o: p for o, p in out.items() if not p.is_zero()}


# -- the per-tuple table scans, kept as the second oracle ---------------------------

def eval_table(ops, k, beta, inputs) -> dict:
    """The multilinear extension of the stored table ops[(k, beta)] to sparse
    elements {name: coefficient}: {output: coefficient}, zeros dropped.  The
    coefficients may be Fractions or t-polynomials; (k, beta) must be in the
    stored key form."""
    table = ops.get((k, beta))
    acc = {}
    if not table:
        return acc
    for combo in product(*[inp.items() for inp in inputs]):
        hit = table.get(tuple(nm for nm, _ in combo))
        if not hit:
            continue
        factor = combo[0][1] if combo else None
        for _, c in combo[1:]:
            factor = factor * c
        add_into(acc, hit, factor)
    return {out: c for out, c in acc.items() if c}


# The comparison map as it was computed before `kunneth.kunneth_K_table` read
# m_{2,0} through `ainf.pull_back`, so that the per-tuple scans share no
# evaluation with the scan they check.

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


def _elem_json(vec: dict, truncation):
    return AlgElement(vec, truncation).to_json()


def per_tuple_check_subalgebra(emb: SubalgebraEmbedding) -> dict:
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


def per_tuple_check_commuting(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding) -> dict:
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


# -- the table scans agree with the oracle ------------------------------------------

def assert_same_reports(embA, embB, every_oracle=True):
    """The pull-back scans give the per-tuple scans' reports, and the
    element scans' too (with every_oracle false, only where a report
    fails: the per-tuple scans evaluate everything on their own, so the
    element scans add a second witness only to the failures); returns the
    commuting status."""
    reports = [kunneth.check_commuting(embA, embB),
               kunneth.check_subalgebra(embA), kunneth.check_subalgebra(embB)]
    oracles = [(per_tuple_check_commuting, per_tuple_check_subalgebra)]
    if every_oracle or any(r["status"] == "FAIL" for r in reports):
        oracles.append((check_commuting, check_subalgebra))
    for commuting, subalgebra in oracles:
        assert reports == [commuting(embA, embB),
                           subalgebra(embA), subalgebra(embB)]
    return reports[0]["status"]


def with_target(embA, embB, target):
    return replaced(embA, target=target), replaced(embB, target=target)


def flipped_factor(emb, cid):
    return replaced(emb, source=flip_constant(emb.source, cid))


@pytest.fixture(scope="module")
def minimal_pair():
    return load_spec(str(FIXTURES / "kunneth_minimal.json")).embedding_pair()


@pytest.fixture(scope="module")
def derham_pair():
    return load_spec(str(FIXTURES / "kunneth_derham.json")).embedding_pair()


def test_every_target_flip_of_kunneth_minimal(minimal_pair):
    embA, embB = minimal_pair
    target = embA.target
    assert_same_reports(embA, embB)
    statuses = [assert_same_reports(
        *with_target(embA, embB, flip_constant(target, cid)), every_oracle=False)
        for cid in constant_ids(target)]
    assert len(statuses) == 2393 and statuses.count("FAIL") == 9


def test_every_factor_flip_of_kunneth_minimal(minimal_pair):
    embA, embB = minimal_pair
    for cid in constant_ids(embA.source):
        assert_same_reports(flipped_factor(embA, cid), embB)
    for cid in constant_ids(embB.source):
        assert_same_reports(embA, flipped_factor(embB, cid))


def test_every_target_table_of_gapped_product_dropped():
    """The target without one of its (k, beta) tables, which a factor may
    still store: the scans must read the factors' side there too."""
    embA, embB = load_spec(str(FIXTURES / "gapped_product.json")).embedding_pair()
    target = embA.target
    assert assert_same_reports(embA, embB) == "PASS"
    statuses = [assert_same_reports(*with_target(embA, embB, replaced(
        target, ops={k: v for k, v in target.ops.items() if k != key})),
        every_oracle=False) for key in sorted(target.ops)]
    # Without m_{2,0} the target's arity bound drops to 1, where the
    # commuting check stops; the subalgebra checks still fail.
    assert statuses == ["FAIL"] * 5 + ["PASS"]


def test_spaced_target_flips_of_kunneth_derham(derham_pair):
    embA, embB = derham_pair
    target = embA.target
    ids = constant_ids(target)
    panel = list(dict.fromkeys(ids[::len(ids) // 50][:50] + [
        "m2:0/0:f0_0;d,f0_0;d->f0_0;d",
        "m2:0/0:f1_0;d,f0_1;d->f1_1;d",
        "m2:0/0:f-1_-1;d,f-1_0;d->f-2_-1;d",
        "m2:0/0:f-1_-1;d,f0_-1;d->f-1_-2;d",
        "m1:0/0:f1_0;d->f1_0;d1",
    ]))
    assert len(panel) >= 54
    assert_same_reports(embA, embB)
    for cid in panel:
        assert_same_reports(*with_target(embA, embB, flip_constant(target, cid)),
                            every_oracle=False)


def test_stray_product_reaches_the_caps():
    doc = stray_product()
    target = AInfAlgebra.from_json(doc["algebra"])
    embA, embB = (SubalgebraEmbedding.from_json(doc["embeddings"][side], target)
                  for side in "AB")
    report = kunneth.check_commuting(embA, embB)
    clauses = {v["clause"] for v in report["violations"]}
    assert {"a-mixed-vanishing", "a-pure-vanishing", "c-insertion"} <= clauses
    assert len(report["violations"]) > 40
    assert_same_reports(embA, embB)


def stray_pair(stray):
    """The gapped_product pair with entries of its target's m_{1,0} and
    m_{2,0} tables copied to higher energies: {(energy, arity): [inputs]}."""
    two = two_factor_gapped()
    c = two["C"]
    ops = dict(c.ops)
    for (energy, k), keys in stray.items():
        ops[(k, (Fraction(energy), 0))] = {
            key: c.ops[(k, BETA_ZERO)][key] for key in keys}
    return with_target(two["embA"], two["embB"], AInfAlgebra(
        c.basis, c.monoid, c.mode, c.cutoff, c.unit, ops, c.window))


# Clause (a) ends with 12 violations, and clause (c) reaches exactly 41
# after k = 0 at energy 3/2, so the cut leaves out k = 1 there, where the
# scan still finds violations.
STRAY_41 = {
    ("1/2", 2): [("eA|eB", "eA|eB"), ("eA|eB", "eA|zB"), ("eA|eB", "xA|eB"),
                 ("eA|xB", "xA|eB"), ("eA|zB", "eA|eB"), ("eA|zB", "zA|eB"),
                 ("zA|xB", "eA|eB")],
    ("1", 1): [("zA|xB",)],
    ("1", 2): [("eA|zB", "eA|eB"), ("xA|eB", "eA|eB"), ("zA|zB", "eA|eB")],
    ("3/2", 1): [("xA|eB",)],
    ("3/2", 2): [("eA|eB", "xA|zB"), ("eA|eB", "zA|eB"), ("eA|eB", "zA|xB"),
                 ("eA|xB", "eA|eB"), ("eA|xB", "zA|eB"), ("eA|zB", "zA|eB"),
                 ("xA|eB", "eA|eB"), ("xA|eB", "eA|xB")],
}

# Clause (a) reaches exactly 21 violations after energy 1 (14 at 1/2, 7 at
# 1), so its cut leaves out the mixed product copied to energy 3/2.
STRAY_21 = {
    ("1/2", 2): [("eA|eB", "xA|eB"), ("eA|eB", "zA|eB"), ("eA|xB", "xA|eB"),
                 ("eA|xB", "zA|eB"), ("eA|zB", "xA|eB"), ("eA|zB", "zA|eB"),
                 ("xA|eB", "eA|eB"), ("xA|eB", "eA|xB"), ("xA|eB", "eA|zB"),
                 ("zA|eB", "eA|xB"), ("zA|eB", "eA|zB")],
    ("1", 2): [("eA|xB", "xA|eB"), ("eA|xB", "zA|eB"), ("eA|zB", "xA|eB"),
               ("xA|eB", "eA|xB"), ("xA|eB", "eA|zB"), ("zA|eB", "eA|xB"),
               ("zA|eB", "eA|zB")],
    ("3/2", 2): [("zA|eB", "eA|zB")],
}


def test_clause_c_cut_before_the_last_k():
    embA, embB = stray_pair(STRAY_41)
    violations = kunneth.check_commuting(embA, embB)["violations"]
    assert len(violations) == 41 and embA.target.max_arity() == 2
    assert sum(v["clause"] == "c-insertion" for v in violations) == 29
    last = violations[-1]
    assert (last["clause"], last["beta"], last["k"]) == \
        ("c-insertion", ["3/2", 0], 0)
    beta = (Fraction(3, 2), 0)
    factors = tuple((emb.source.ops, emb.source.monoid) for emb in (embA, embB))
    assert kunneth.pullback_scanner(
        (embA, embB), (embA.source.window, embB.source.window),
        kt=kunneth.kunneth_K_table(embA, embB))(
        [("m", embA.target.ops, factors, (1, 1))], beta, 1)
    assert_same_reports(embA, embB)


def test_clause_a_cut_after_its_beta():
    embA, embB = stray_pair(STRAY_21)
    found = [v for v in kunneth.check_commuting(embA, embB)["violations"]
             if v["clause"].startswith("a-")]
    assert len(found) == 21
    assert {v["beta"][0] for v in found} == {"1/2", "1"}
    alone = stray_pair({("3/2", 2): STRAY_21[("3/2", 2)]})
    assert [v["beta"] for v in kunneth.check_commuting(*alone)["violations"]
            if v["clause"].startswith("a-")] == [["3/2", 0]]
    assert_same_reports(embA, embB)


nonzero = st.integers(-9, 9).filter(bool).map(Fraction) | \
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=15, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero, st.data())
def test_two_factor_gapped_with_one_flip(lam_a, rho_a, lam_b, rho_b, data):
    two = two_factor_gapped(lam_a, rho_a, lam_b, rho_b)
    embA, embB = two["embA"], two["embB"]
    assert_same_reports(embA, embB)
    target = embA.target
    cid = data.draw(st.sampled_from(constant_ids(target)), label="target flip")
    assert_same_reports(*with_target(embA, embB, flip_constant(target, cid)))
    side = data.draw(st.sampled_from("AB"), label="factor")
    emb = embA if side == "A" else embB
    cid = data.draw(st.sampled_from(constant_ids(emb.source)), label="factor flip")
    flipped = flipped_factor(emb, cid)
    assert_same_reports(*((flipped, embB) if side == "A" else (embA, flipped)))


def test_kunneth_K_matches_oracle(derham_pair):
    embA, embB = derham_pair
    old = kunneth_K(embA, embB)
    table = kunneth.kunneth_K_table(embA, embB)
    assert table == kunneth_K_table(embA, embB)
    trunc = embA.target.truncation
    assert len(table) == len(embA.source.names) * len(embB.source.names)
    for na, nb in table:
        a = basis_element(na, embA.source.truncation)
        b = basis_element(nb, embB.source.truncation)
        assert old(a, b) == AlgElement(table[(na, nb)], trunc)
    a = AlgElement({nm: NovikovElement.monomial(i + 1, Fraction(i, 3))
                    for i, nm in enumerate(embA.source.names[:4])})
    b = AlgElement({nm: NovikovElement.scalar(Fraction(-1, i + 2))
                    for i, nm in enumerate(embB.source.names[3:8])})
    bilinear = zero_element(trunc)
    for na, nova in a.coeffs.items():
        for nb, novb in b.coeffs.items():
            bilinear = bilinear + scale(
                AlgElement(table[(na, nb)], trunc),
                nova.retruncate(trunc) * novb.retruncate(trunc))
    assert old(a, b) == bilinear


# Small coefficients on a four-name basis, so that terms often cancel.
NAMES = ("e", "x", "y", "z")
small = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1),
                         Fraction(2)])
sparse = st.dictionaries(st.sampled_from(NAMES), small, max_size=3)


@st.composite
def tables(draw, k):
    return draw(st.dictionaries(
        st.tuples(*[st.sampled_from(NAMES)] * k),
        st.dictionaries(st.sampled_from(NAMES), small, min_size=1, max_size=2),
        max_size=8))


def lift(vec, t_part):
    return {nm: Poly([c, c * t_part]) for nm, c in vec.items()}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 3), small)
def test_eval_table_matches_eval_op_and_eval_poly_op(data, k, t_part):
    """eval_table over Fractions agrees with the element evaluator (on a
    degree-0 basis, where every arity-2 table is degree-correct) and over
    Q[t] with the evaluator it replaced; cancelled outputs are dropped in
    both.  ainf.eval_op agrees with the element evaluator on Novikov
    coefficients."""
    table = data.draw(tables(k))
    inputs = [data.draw(sparse) for _ in range(k)]
    ops = {(k, BETA_ZERO): table}
    got = eval_table(ops, k, BETA_ZERO, inputs)
    assert all(got.values())
    poly_ops = {(k, BETA_ZERO): {ins: lift(combo, t_part)
                                 for ins, combo in table.items()}}
    poly_inputs = [lift(vec, t_part) for vec in inputs]
    assert eval_table(poly_ops, k, BETA_ZERO, poly_inputs) == \
        eval_poly_op(poly_ops, k, BETA_ZERO, poly_inputs)
    if k == 2:
        alg = AInfAlgebra([(nm, 0) for nm in NAMES], EnergyMonoid([]),
                          ops=ops)
        old = eval_op(alg, 2, BETA_ZERO, [AlgElement(vec) for vec in inputs])
        assert got == {nm: nov.coefficient(0) for nm, nov in old.coeffs.items()}
        graded = [AlgElement({nm: NovikovElement.monomial(c, Fraction(i, 2))
                              for i, (nm, c) in enumerate(vec.items())})
                  for vec in inputs]
        assert ainf.eval_op(alg, 2, BETA_ZERO, graded) == \
            eval_op(alg, 2, BETA_ZERO, graded)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 3), small, st.booleans())
def test_pull_back_matches_eval_table(data, k, t_part, one_as_none):
    """ainf.pull_back gives the table evaluated on the images of every
    label tuple, over Q and over Q[t], whether a coefficient 1 is given as
    such or as None."""
    table = data.draw(tables(k))
    images = {label: data.draw(sparse) for label in ("p", "q", "r")}
    inverse = {}
    for label, image in images.items():
        for nm, c in image.items():
            inverse.setdefault(nm, []).append(
                (label, None if one_as_none and c == 1 else c))
    poly_table = {ins: lift(combo, t_part) for ins, combo in table.items()}
    for ops in (table, poly_table):
        pulled = ainf.pull_back(ops, [inverse] * k)
        for labels in product(images, repeat=k):
            got = {o: c for o, c in pulled.get(labels, {}).items() if c}
            assert got == eval_table({(k, BETA_ZERO): ops}, k, BETA_ZERO,
                                     [images[label] for label in labels])


def test_eval_table_drops_cancelled_outputs():
    ops = {(2, BETA_ZERO): {("x", "y"): {"z": Fraction(1)},
                            ("y", "x"): {"z": Fraction(1)}}}
    assert eval_table(ops, 2, BETA_ZERO, [{"x": 1, "y": 1},
                                          {"x": 1, "y": -1}]) == {}
