"""The commuting-pair and subalgebra scans against the code they replaced.

`kunneth.check_commuting` and `kunneth.check_subalgebra` read every value
from the stored op tables on sparse {name: Fraction} arguments (iota-images
and the K-images of `kunneth_K_table`), and build a violation's elements
only when it is recorded. The code below is the previous version, verbatim:
every tuple pushed through `eval_op` on `AlgElement`s with `NovikovElement`
coefficients, and K as a bilinear function of elements. It stays as a
differential oracle: the full reports must agree, down to the order of the
violations and where the silent caps cut the lists. `ainf.eval_table`, the
evaluator behind them, replaces `isotopy.eval_poly_op` over Q[t]; that is
kept here too, with `eval_op` as the oracle over Q.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit import kunneth
from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    beta_json,
    beta_norm,
    constant_ids,
    eval_op,
    eval_table,
    flip_constant,
    replaced,
)
from ainfkit.kunneth import SubalgebraEmbedding
from ainfkit.models import two_factor_gapped
from ainfkit.poly import Poly
from ainfkit.scalars import BETA_ZERO, EnergyMonoid, NovikovElement, monoid_sum
from ainfkit.signs import shifted, sign_pow
from ainfkit.specio import load_spec
from test_golden_reports import stray_product

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ainfkit" / "fixtures"


# -- the replaced code, kept as the oracle ---------------------------------------

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


# -- the table scans agree with the oracle ------------------------------------------

def assert_same_reports(embA, embB):
    """Both scans give the same reports; returns the commuting status."""
    report = kunneth.check_commuting(embA, embB)
    assert report == check_commuting(embA, embB)
    for emb in (embA, embB):
        assert kunneth.check_subalgebra(emb) == check_subalgebra(emb)
    return report["status"]


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
        *with_target(embA, embB, flip_constant(target, cid)))
        for cid in constant_ids(target)]
    assert len(statuses) == 2393 and statuses.count("FAIL") == 9


def test_every_factor_flip_of_kunneth_minimal(minimal_pair):
    embA, embB = minimal_pair
    for cid in constant_ids(embA.source):
        assert_same_reports(flipped_factor(embA, cid), embB)
    for cid in constant_ids(embB.source):
        assert_same_reports(embA, flipped_factor(embB, cid))


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
        assert_same_reports(*with_target(embA, embB, flip_constant(target, cid)))


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
    new, old = kunneth.kunneth_K(embA, embB), kunneth_K(embA, embB)
    table = kunneth.kunneth_K_table(embA, embB)
    assert len(table) == len(embA.source.names) * len(embB.source.names)
    for na, nb in table:
        a = AlgElement.basis(na, embA.source.truncation)
        b = AlgElement.basis(nb, embB.source.truncation)
        assert new(a, b) == old(a, b) == \
            AlgElement(table[(na, nb)], embA.target.truncation)
    a = AlgElement({nm: NovikovElement.monomial(i + 1, Fraction(i, 3))
                    for i, nm in enumerate(embA.source.names[:4])})
    b = AlgElement({nm: NovikovElement.scalar(Fraction(-1, i + 2))
                    for i, nm in enumerate(embB.source.names[3:8])})
    assert new(a, b) == old(a, b)


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
    """eval_table over Fractions agrees with eval_op (on a degree-0 basis,
    where every arity-2 table is degree-correct) and over Q[t] with the
    evaluator it replaced; cancelled outputs are dropped in both."""
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


def test_eval_table_drops_cancelled_outputs():
    ops = {(2, BETA_ZERO): {("x", "y"): {"z": Fraction(1)},
                            ("y", "x"): {"z": Fraction(1)}}}
    assert eval_table(ops, 2, BETA_ZERO, [{"x": 1, "y": 1},
                                          {"x": 1, "y": -1}]) == {}
