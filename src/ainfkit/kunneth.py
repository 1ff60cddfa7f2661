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

The subalgebra, commuting-pair and commuting-isotopy checks are one scan
over Q or Q[t], made by pullback_scanner: a stored target table is pulled
back to factor tags in one pass through an inverse index of the
iota-supports (and of the K-images for an inserted slot), compared with the
factor tables pushed forward, and the differences are reported in product
order.  Each check builds its scanners once: the tag positions, readings,
parities and inverse indexes serve every (beta, k), and a (beta, k) whose
tables are all empty is skipped as structurally zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import islice, product
from typing import NamedTuple

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    add_into,
    beta_json,
    differential_matrix,
    inverse_index,
    linear_image,
    mc_defect,
    pull_back,
    required,
)
from ainfkit.poly import (
    EchelonSpan,
    graded_spans,
    rational_matrix_rank,
    sparse_product,
    squares_to_zero,
    transpose,
)
from ainfkit.scalars import BETA_ZERO, frac, frac_str, located, monoid_sum
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

    def apply(self, elem: AlgElement) -> AlgElement:
        trunc = self.target.truncation
        return AlgElement(linear_image(self.iota, {
            nm: nov.retruncate(trunc) for nm, nov in elem.coeffs.items()}), trunc)

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "iota": {src: {t: frac_str(c) for t, c in sorted(combo.items())}
                     for src, combo in sorted(self.iota.items())},
        }

    @staticmethod
    def from_json(doc, target: AInfAlgebra) -> "SubalgebraEmbedding":
        return SubalgebraEmbedding(
            AInfAlgebra.from_json(required(doc, "source")),
            target,
            {src: {t: located(f"iota.{src}.{t}", frac, c)
                   for t, c in combo.items()}
             for src, combo in required(doc, "iota").items()},
        )


def scan_betas(*tables):
    """beta = 0 and every beta that any of the op tables stores, sorted: a
    product scan has nothing to compare at any other beta."""
    return sorted({BETA_ZERO}.union(*({b for _, b in ops} for ops in tables)))


def scan_report(check, violations) -> dict:
    """The report of a scan: PASS exactly when it found no violation."""
    return {"check": check, "status": "PASS" if not violations else "FAIL",
            "violations": violations}


class Mismatch(NamedTuple):
    """A key where a pull-back scan finds the two sides different: the plain
    tags, the K-inserted slot and window pair (None without a K table), the
    family name, the factors owning the tags, and both sides."""

    tags: tuple
    slot: int | None
    pair: tuple | None
    family: str
    owners: list
    lhs: dict
    rhs: dict


def pullback_scanner(embs, names, units=(), kt=None):
    """The pull-back scan of fixed factor embeddings, set up once per check:
    returns scan(fams, beta, k), the rows where stored families differ from
    their factors' at one (beta, k).

    embs are the factor embeddings and names the scanned names of each, as
    tags ("A", name), ("B", name).  fams lists (name, target ops, (ops,
    monoid) per factor, sign per factor), over Q or Q[t].  The left side is
    the target table pulled back along iota.  A tag tuple belongs to each
    factor whose reading covers it: a factor reads its own tags, and each
    tag of units as its unit.  The right side is the first owner's table
    (every owner's, on the empty tuple) read along the reading, pushed
    forward along iota and times the sign, and zero outside that factor's
    monoid or on a mixed tuple, which no factor owns.  With the K table kt,
    the tables are read at k + 1 with one input K(a (x) b), a and b in the
    source windows, and the right side is K(m^A(.., a, ..) (x) b), with the
    Koszul sign of moving b past the plain inputs after the slot, or
    K(a (x) m^B(.., b, ..)), with that of moving a past the slot and the
    inputs before it.

    What does not depend on (beta, k) is built here, once: tag positions,
    readings and their inverse indexes, parities, the inverse index of the
    K-images, the owners of each tag tuple.  scan returns a Mismatch
    wherever the two sides differ, in product order: tags by position, then
    slot, pair, family; nothing where every table is empty, which is
    structurally zero.
    """
    positions = {t: i for i, t in enumerate(
        (side, nm) for side, scanned in zip("AB", names) for nm in scanned)}
    sides = []  # (reading {tag: factor name}, its inverse, iota, degrees)
    for side, emb in zip("AB", embs):
        reading = {t: t[1] for t in positions if t[0] == side}
        reading.update((t, emb.source.unit) for t in units
                       if t[0] != side and t in positions)
        sides.append((reading,
                      inverse_index({t: {nm: 1} for t, nm in reading.items()}),
                      emb.iota, dict(emb.source.basis)))
    own = {t: sides["AB".index(t[0])] for t in positions}
    inverse = inverse_index({t: own[t][2][t[1]] for t in positions})
    parity = {t: shifted(own[t][3][t[1]]) for t in positions}
    extra, windows, slot_inverse = 0, [{}, {}], {}
    pair_positions = {None: None}
    if kt is not None:
        # The slot of a factor table keeps its window name a (or b).
        windows = [{nm: [(nm, None)] for nm in emb.source.window} for emb in embs]
        pair_positions = {p: i for i, p in enumerate(product(*windows))}
        slot_inverse = inverse_index({p: kt[p] for p in pair_positions})
        extra = 1

    @cache
    def owners(tup):
        return [s for s, (reading, _, _, _) in enumerate(sides)
                if all(t in reading for t in tup)]

    def pulled(table, n, column, slot_column):
        """{(plain tags, slot, slot label): value}; None, None without kt."""
        for i in range(n) if extra else [None]:
            for labels, vec in pull_back(table, [
                    slot_column if j == i else column for j in range(n)]).items():
                yield ((labels, None, None) if i is None else
                       (labels[:i] + labels[i + 1:], i, labels[i])), vec

    def scan(fams, beta, k):
        n = k + extra
        if not any(target.get((n, beta)) or
                   any(ops.get((n, beta)) for ops, _ in factors)
                   for _, target, factors, _ in fams):
            return []
        rows = []
        for f, (name, target, factors, signs) in enumerate(fams):
            lhs = dict(pulled(target.get((n, beta), {}), n, inverse,
                              slot_inverse))
            rhs = {}
            for s, (ops, monoid) in enumerate(factors):
                table = ops.get((n, beta))
                if not table or beta not in monoid:
                    continue
                _, reading_inverse, iota, _ = sides[s]
                for (plain, i, mid), vec in pulled(table, n, reading_inverse,
                                                   windows[s]):
                    # The first owner gives the right side; on the empty
                    # tuple every owner does, and the sides add up.
                    if s not in owners(plain) or plain and owners(plain)[0] != s:
                        continue
                    if i is None:
                        add_into(rhs.setdefault((plain, i, mid), {}),
                                 linear_image(iota, vec), signs[s])
                        continue
                    moved = s + sum(parity[t] for t in
                                    (plain[:i] if s else plain[i:]))
                    for other in windows[1 - s]:
                        pair = (other, mid) if s else (mid, other)
                        acc = rhs.setdefault((plain, i, pair), {})
                        odd = signs[s] * sign_pow(
                            sides[1 - s][3][other] * moved) < 0
                        for nm, c in vec.items():
                            add_into(acc, kt[(other, nm) if s else (nm, other)],
                                     -c if odd else c)
            for key in lhs.keys() | rhs.keys():
                left, right = lhs.get(key, {}), rhs.get(key, {})
                if left != right:  # then again without cancelled outputs
                    left, right = ({o: c for o, c in side.items() if c}
                                   for side in (left, right))
                if left == right:
                    continue
                plain, i, pair = key
                rows.append(((tuple(map(positions.get, plain)), i,
                              pair_positions[pair], f),
                             Mismatch(plain, i, pair, name, owners(plain),
                                      left, right)))
        return [row for _, row in sorted(rows, key=lambda row: row[0])]

    return scan


def check_subalgebra(emb: SubalgebraEmbedding) -> dict:
    """Operations of C restrict along iota to those of A, and vanish at
    beta outside A's monoid, on every source-basis tuple; the first
    violation is reported: the restriction clause of the pull-back scan
    with a single factor."""
    a, c = emb.source, emb.target
    k_max = max(a.max_arity(), c.max_arity())
    fams = [("m", c.ops, ((a.ops, a.monoid),), (1,))]
    scan = pullback_scanner((emb,), (a.names,))
    found = ({"beta": beta_json(beta), "k": k,
              "inputs": [t[1] for t in row.tags],
              "lhs": AlgElement(row.lhs, c.truncation).to_json(),
              "rhs": AlgElement(row.rhs, c.truncation).to_json()}
             for beta in scan_betas(a.ops, c.ops) for k in range(1, k_max + 1)
             for row in scan(fams, beta, k)[:1])
    return scan_report("subalgebra", list(islice(found, 1)))


def kunneth_K_table(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding):
    """The comparison map on every pair of factor basis names:
    {(na, nb): {output: Fraction}} with
    K(na (x) nb) = (-1)^{|na|} m_{2,0}(iota_A(na), iota_B(nb))."""
    if embA.target is not embB.target and embA.target.ops != embB.target.ops:
        raise ValueError("embeddings must share the target algebra")
    a_alg = embA.source
    m2 = pull_back(embA.target.ops.get((2, BETA_ZERO), {}),
                   [inverse_index(embA.iota), inverse_index(embB.iota)])
    return {(na, nb): {out: v * sign_pow(a_alg.degree(na))
                       for out, v in m2.get((na, nb), {}).items() if v}
            for na in a_alg.names for nb in embB.source.names}


def _anticommutator(table, alg: AInfAlgebra) -> dict:
    """The table (x, y) -> m(x, y) + (-1)^{||x|| ||y||} m(y, x) of a table
    m on pairs of basis names of alg."""
    anti = {}
    for (x, y), vec in table.items():
        add_into(anti.setdefault((x, y), {}), vec)
        add_into(anti.setdefault((y, x), {}), vec, sign_pow(
            shifted(alg.degree(x)) * shifted(alg.degree(y))))
    return anti


def check_commuting(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding) -> dict:
    """The commuting-pair equations, scanned over embedded basis tuples.

    Clause (a): mixed tuples vanish except the graded (2,0) anticommutator;
    pure tuples vanish at beta outside their factor monoid.  Clause (b):
    curvature splits as iota_A(m^A_0) + iota_B(m^B_0).  Clause (c): one
    K-inserted argument reduces to a single factor operation (to both, and
    their sum, when the plain inputs are empty).  Each is a pull-back scan;
    in (a) and (b) both units are tags, each read by the other factor as
    its unit.
    """
    kt = kunneth_K_table(embA, embB)
    c, a_alg, b_alg = embA.target, embA.source, embB.source
    if monoid_sum(a_alg.monoid, b_alg.monoid) != c.monoid:
        raise ValueError("target monoid must be the sum of the factor monoids")
    violations = []
    betas = scan_betas(a_alg.ops, b_alg.ops, c.ops)
    k_max = c.max_arity()
    factors = ((a_alg.ops, a_alg.monoid), (b_alg.ops, b_alg.monoid))
    fams = [("m", c.ops, factors, (1, 1))]
    embs = (embA, embB)
    tagged = pullback_scanner(embs, (a_alg.names, b_alg.names),
                              [("A", a_alg.unit), ("B", b_alg.unit)])

    def record(clause, beta, detail, **elements):
        violations.append({"clause": clause, "beta": beta_json(beta), **detail,
                           **{key: AlgElement(vec, c.truncation).to_json()
                              for key, vec in elements.items()}})

    # -- clause (a): every tuple must vanish that no factor whose monoid
    # holds beta owns (the subalgebra check covers the others), so the
    # factor tables are left empty, and a stored key is scanned only if it
    # has an input in the image of the other factor's strict names for
    # each such factor.  The (2, 0) table is read as the graded
    # anticommutator (beta = 0 lies in both monoids, so only mixed pairs
    # are left, and their keys are kept in both orders). ----------------------
    vanishing = (({}, a_alg.monoid), ({}, b_alg.monoid))
    foreign = [{nm for x in emb.source.names if x != emb.source.unit
                for nm in emb.iota[x]} for emb in (embB, embA)]
    support = inverse_index({nm: {nm: 1} for emb in embs
                             for image in emb.iota.values() for nm in image})
    for beta in betas:
        inside = [s for s, (_, monoid) in enumerate(factors) if beta in monoid]
        for k in range(1, k_max + 1):
            table = {key: vec for key, vec in pull_back(
                c.ops.get((k, beta), {}), [support] * k).items()
                if all(not foreign[s].isdisjoint(key) for s in inside)}
            if (k, beta) == (2, BETA_ZERO):
                table = _anticommutator(table, c)
            for row in tagged([("m", {(k, beta): table}, vanishing, (1, 1))],
                              beta, k):
                if any(s in inside for s in row.owners):
                    continue
                inputs = [list(t) for t in row.tags]
                if (k, beta) == (2, BETA_ZERO):
                    record("a-anticommutator", beta, {"inputs": inputs},
                           value=row.lhs)
                else:
                    record("a-pure-vanishing" if row.owners
                           else "a-mixed-vanishing",
                           beta, {"k": k, "inputs": inputs}, value=row.lhs)
        if len(violations) > 20:
            break

    # -- clause (b) ----------------------------------------------------------
    for beta in [b for b in betas if b != BETA_ZERO]:
        for row in tagged(fams, beta, 0):
            record("b-curvature", beta, {}, lhs=row.lhs, rhs=row.rhs)

    # -- clause (c) ----------------------------------------------------------
    inserted = pullback_scanner(embs, (a_alg.window, b_alg.window), kt=kt)
    for beta, k in product(betas, range(k_max)):
        for row in inserted(fams, beta, k):
            record("c-insertion", beta, {
                "k": k, "slot": row.slot,
                "plain": [list(t) for t in row.tags],
                "pair": list(row.pair)}, lhs=row.lhs, rhs=row.rhs)
        if len(violations) > 40:
            break
    return scan_report("commuting", violations)


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

    D, mu and K are {row: {column: Fraction}} matrices; D and mu have degree
    +1 (the algebras enforce the degree rule on m_1), so graded_spans
    reduces each once, giving its rank, its dimensions and the kernel of D.
    """
    a_alg, b_alg, c_alg = embA.source, embB.source, embA.target
    kt = kunneth_K_table(embA, embB)
    a_win, b_win = set(a_alg.window), set(b_alg.window)
    pairs = [p for p in kt if p[0] in a_win or p[1] in b_win]
    pair_idx = {p: i for i, p in enumerate(pairs)}
    names_c = c_alg.names
    np_, nc = len(pairs), len(names_c)
    c_idx = {nm: i for i, nm in enumerate(names_c)}

    # The two images of a pair never share an entry: their first factors
    # differ in degree.
    errors = []
    D = {}
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
            D.setdefault(pair_idx[p], {})[j] = cf
    mu = differential_matrix(c_alg)

    k_columns = {j: {c_idx[out]: v for out, v in kt[p].items()}
                 for p, j in pair_idx.items()}
    kmat = transpose(k_columns)

    if not squares_to_zero(D):
        errors.append("tensor differential does not square to zero")
    if not squares_to_zero(mu):
        errors.append("target differential does not square to zero")
    k_rank = rational_matrix_rank(kmat)
    injective = k_rank == np_
    chain_map = sparse_product(mu, kmat) == sparse_product(kmat, D)

    spans_d, dims_source, rank_d = graded_spans(
        D, [a_alg.degree(na) + b_alg.degree(nb) for na, nb in pairs])
    _, dims_target, rank_mu = graded_spans(
        mu, [c_alg.degree(nm) for nm in names_c])
    dim_h_source = np_ - 2 * rank_d
    dim_h_target = nc - 2 * rank_mu

    # Induced map on cohomology: classes of K(ker D) modulo im(mu), counted
    # as the images K(v), v in ker D, that raise the rank of im(mu).
    kernel = [v for idxs, span in spans_d.values() for v in span.kernel(idxs)]
    image = EchelonSpan(transpose(mu).values())
    induced_rank = sum(image.add(kv) for kv in sparse_product(
        dict(enumerate(kernel)), k_columns).values())
    bijective = induced_rank == dim_h_source == dim_h_target

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
