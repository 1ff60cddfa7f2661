"""Concrete algebras used as fixtures: torus form models, tensor products,
gapped two-factor families, and isotopy/extension families.

The torus model uses trigonometric-polynomial forms on an n-torus, with the
differential normalized so that d(e_f omega_I) = sum_j f_j e_f dx_j ^ omega_I
(the 2*pi factor is absorbed into the basis).  Operations follow the de Rham
conventions of the rest of the package:

    m_{1,0} = (-1)^{n+1} d,      m_{2,0}(a, b) = (-1)^{|a|} a ^ b,

and the factor embeddings into a product torus carry the twists

    iota_1(xi) = (-1)^{|xi| n_2} p_1^*(xi),
    iota_2(xi) = (-1)^{|xi| n_1} p_2^*(xi),

under which the comparison map evaluates on basis forms to
K(xi_1 (x) xi_2) = (-1)^{|xi_1| n_2 + |xi_2| n_1} xi_1 x xi_2.

A frequency window of width w declares where the truncated multiplication
table is exact: products are stored whenever the result stays within twice
the window and at least one factor lies inside it, which makes every
checked relation instance close exactly.

Each builder loops only over the entries it stores, so its cost follows
their number: the T^3 model derham_model(3, 1), with 1000 forms and 100,155
stored entries, is built in about half a second.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import add

from ainfkit.ainf import AInfAlgebra, AlgElement, map_tables
from ainfkit.isotopy import Pseudoisotopy, extend_one_level
from ainfkit.kunneth import SubalgebraEmbedding
from ainfkit.poly import Poly
from ainfkit.scalars import (BETA_ZERO, EnergyMonoid, NovikovElement, frac,
                             monoid_sum)
from ainfkit.signs import merge_wedge, sign_pow


# -- torus form models ----------------------------------------------------------

def _form_name(freq, idx) -> str:
    return "f" + "_".join(str(f) for f in freq) + ";d" + "".join(
        str(i) for i in idx)


def _index_sets(n: int) -> list:
    """The ascending index tuples of the forms dx_idx on the n-torus."""
    return [idx for r in range(n + 1)
            for idx in combinations(range(1, n + 1), r)]


def _forms(n: int, w: int) -> dict:
    """{(freq, idx): name} of the forms e_freq dx_idx on the n-torus with
    every |freq_j| <= w, in basis order: by freq, then by idx."""
    idx_sets = _index_sets(n)
    return {(f, idx): _form_name(f, idx)
            for f in product(range(-w, w + 1), repeat=n) for idx in idx_sets}


def derham_model(n: int, w: int) -> AInfAlgebra:
    """Trigonometric-polynomial forms on the n-torus, frequency window w.

    Basis: all (freq, idx) with sup-norm of freq at most 2w.  The window of
    the algebra is the sub-basis with sup-norm at most w.  m_{1,0} is
    (-1)^{n+1} d on the whole basis; m_{2,0} is stored on pairs whose product
    stays in the basis and where at least one factor is inside the window.
    Each stored entry is written once: a frequency is paired only with the
    partners its product allows, and an index pair only if its wedge is
    nonzero, so the cost follows the entries stored.
    """
    names = _forms(n, 2 * w)
    s_d = sign_pow(n + 1)
    d = {}
    for (f, idx), name in names.items():
        row = {}
        for j in range(1, n + 1):
            if f[j - 1] and j not in idx:
                ws, merged = merge_wedge((j,), idx)
                row[names[f, merged]] = Fraction(s_d * ws * f[j - 1])
        if row:
            d[(name,)] = row
    idx_pairs = [(i1, i2, Fraction(sign_pow(len(i1)) * wedge[0]), wedge[1])
                 for i1, i2 in product(_index_sets(n), repeat=2)
                 if (wedge := merge_wedge(i1, i2))]
    m2 = {}
    for f1 in product(range(-2 * w, 2 * w + 1), repeat=n):
        # A factor inside the window takes any partner that keeps the sum
        # within 2w; one outside it takes only partners inside.
        r = 2 * w if all(abs(a) <= w for a in f1) else w
        for f2 in product(*(range(max(-r, -2 * w - a), min(r, 2 * w - a) + 1)
                            for a in f1)):
            total = tuple(map(add, f1, f2))
            for i1, i2, sign, merged in idx_pairs:
                m2[names[f1, i1], names[f2, i2]] = {names[total, merged]: sign}
    basis = [(name, len(idx)) for (_, idx), name in names.items()]
    window = [name for (f, _), name in names.items()
              if all(abs(a) <= w for a in f)]
    return AInfAlgebra(basis, EnergyMonoid([]), "gapped", None,
                       names[(0,) * n, ()],
                       {(1, BETA_ZERO): d, (2, BETA_ZERO): m2}, window)


def derham_factor_embeddings(n1: int, n2: int, w: int, target=None,
                             factor_w=None):
    """Embed the two factor models into the product model with sign twists."""
    if factor_w is None:
        factor_w = w
    a_model = derham_model(n1, factor_w)
    b_model = derham_model(n2, factor_w)
    c_model = target if target is not None else derham_model(n1 + n2, w)

    def iota(n, before, after):
        """The forms of the T^n factor, whose coordinates sit after `before`
        and before `after` others, as product forms with their twist."""
        return {name: {_form_name((0,) * before + f + (0,) * after,
                                  tuple(i + before for i in idx)):
                       Fraction(sign_pow(len(idx) * (before + after)))}
                for (f, idx), name in _forms(n, 2 * factor_w).items()}

    emb_a = SubalgebraEmbedding(a_model, c_model, iota(n1, 0, n2))
    emb_b = SubalgebraEmbedding(b_model, c_model, iota(n2, n1, 0))
    return emb_a, emb_b


# -- abstract tensor products ----------------------------------------------------

def _unit_products(names_degrees, unit):
    """The (2, 0) unit multiplication table."""
    table = {}
    for nm, d in names_degrees:
        table[(unit, nm)] = {nm: Fraction(1)}
        if nm != unit:
            table[(nm, unit)] = {nm: Fraction(sign_pow(d))}
    return table


def tensor_dga(a_alg: AInfAlgebra, b_alg: AInfAlgebra, monoid, mode, cutoff,
               curvature=None):
    """Tensor product of two differential graded algebras, as a product model.

    Basis a|b; differential d(a|b) = da|b + (-1)^{|a|} a|db; product
    m_{2,0}(a1|b1, a2|b2) = (-1)^{|b1||a2|} m_{2,0}(a1, a2)|m_{2,0}(b1, b2),
    read off the factors' stored tables.  Nonzero-energy operations are
    supplied through `curvature`: a dict mapping beta to {product-name:
    coefficient} for the arity-0 operation at beta.
    """
    def pname(a, b):
        return f"{a}|{b}"

    basis = [(pname(a, b), a_alg.degree(a) + b_alg.degree(b))
             for a, _ in a_alg.basis for b, _ in b_alg.basis]
    d = {}
    for (a,), row in a_alg.op_table(1, BETA_ZERO).items():
        for b in b_alg.names:
            d[(pname(a, b),)] = {pname(out, b): c for out, c in row.items()}
    for (b,), row in b_alg.op_table(1, BETA_ZERO).items():
        for a, da in a_alg.basis:
            d.setdefault((pname(a, b),), {}).update(
                (pname(a, out), sign_pow(da) * c) for out, c in row.items())
    m2 = {}
    b_products = b_alg.op_table(2, BETA_ZERO).items()
    for (a1, a2), row_a in a_alg.op_table(2, BETA_ZERO).items():
        for (b1, b2), row_b in b_products:
            s = sign_pow(b_alg.degree(b1) * a_alg.degree(a2))
            m2[pname(a1, b1), pname(a2, b2)] = {
                pname(oa, ob): s * ca * cb
                for oa, ca in row_a.items() for ob, cb in row_b.items()}
    ops = {(1, BETA_ZERO): d, (2, BETA_ZERO): m2}
    for beta, combo in (curvature or {}).items():
        ops[(0, beta)] = {(): combo}
    return AInfAlgebra(basis, monoid, mode, cutoff,
                       pname(a_alg.unit, b_alg.unit), ops)


def _tensor_embeddings(a_alg, b_alg, c_alg):
    iota_a = {a: {f"{a}|{b_alg.unit}": Fraction(1)} for a, _ in a_alg.basis}
    iota_b = {b: {f"{a_alg.unit}|{b}": Fraction(1)} for b, _ in b_alg.basis}
    return (SubalgebraEmbedding(a_alg, c_alg, iota_a),
            SubalgebraEmbedding(b_alg, c_alg, iota_b))


# -- curved lines and the gapped two-factor fixture ----------------------------

def _curved_line(prefix, monoid, mode, cutoff, energy, lam=0, rho=0, zeta=0):
    """e (the unit), x and z of degrees 0, 1 and 2, each name followed by
    prefix, with m_1(x) = z and the unit products; at beta = (energy, 0) the
    curvature lam*z and m_2(x, x) = zeta*z, at (energy, 2) the potential
    rho*e.  A zero term is not stored."""
    e, x, z = (s + prefix for s in "exz")
    basis = [(e, 0), (x, 1), (z, 2)]
    energy = frac(energy)
    ops = {(2, BETA_ZERO): _unit_products(basis, e),
           (1, BETA_ZERO): {(x,): {z: Fraction(1)}}}
    for key, inputs, out, value in (((0, (energy, 0)), (), z, lam),
                                    ((2, (energy, 0)), (x, x), z, zeta),
                                    ((0, (energy, 2)), (), e, rho)):
        if value:
            ops[key] = {inputs: {out: value}}
    return AInfAlgebra(basis, monoid, mode, cutoff, e, ops)


def two_factor_gapped(lam_a=3, rho_a=5, lam_b=2, rho_b=7):
    """Two curved factors (energies 1 and 1/2), their tensor product, the
    factor embeddings and the exact factor bounding cochains."""
    a_alg, b_alg = (
        _curved_line(prefix, EnergyMonoid([(energy, 0), (energy, 2)]),
                     "gapped", None, energy, lam, rho)
        for prefix, energy, lam, rho in (("A", 1, lam_a, rho_a),
                                         ("B", Fraction(1, 2), lam_b, rho_b)))
    monoid = monoid_sum(a_alg.monoid, b_alg.monoid)
    curvature = {
        (Fraction(1), 0): {"zA|eB": frac(lam_a)},
        (Fraction(1), 2): {"eA|eB": frac(rho_a)},
        (Fraction(1, 2), 0): {"eA|zB": frac(lam_b)},
        (Fraction(1, 2), 2): {"eA|eB": frac(rho_b)},
    }
    c_alg = tensor_dga(a_alg, b_alg, monoid, "gapped", None, curvature)
    emb_a, emb_b = _tensor_embeddings(a_alg, b_alg, c_alg)
    b1 = AlgElement({"xA": NovikovElement.monomial(-frac(lam_a), 1)})
    b2 = AlgElement({"xB": NovikovElement.monomial(-frac(lam_b), Fraction(1, 2))})
    return {"A": a_alg, "B": b_alg, "C": c_alg,
            "embA": emb_a, "embB": emb_b, "b1": b1, "b2": b2}


def barcode_fixture():
    """One finite bar of length 1 next to one infinite bar."""
    basis = [("e", 0), ("x", 0), ("y", 1)]
    monoid = EnergyMonoid([(1, 0)])
    ops = {(2, BETA_ZERO): _unit_products(basis, "e")}
    ops[(1, (Fraction(1), 0))] = {("x",): {"y": Fraction(1)}}
    alg = AInfAlgebra(basis, monoid, "gapped", None, "e", ops)
    return alg, AlgElement({})


# -- isotopy and extension fixtures ---------------------------------------------

def extension_fixture(n=0, lam=3, sig=2, zeta=5, rho=7, kappa=11, nu=13,
                      omega=17, kappa_p=19):
    """A one-level extension problem with a genuinely t-dependent isotopy.

    Returns m0 (modulo T), the isotopy P between m0 and the endpoint at t=1,
    and m1 (modulo T^2) carrying new level-2 operations.  The correction
    family is c_{0,(1,0)} = (-1)^{n+1} sig * x, compatible with the moving
    curvature (lam + sig*t) * z.
    """
    monoid = EnergyMonoid([(1, 0), (1, 2)])
    m0 = _curved_line("", monoid, "modulo", 1, 1, lam, rho, zeta)
    basis = m0.basis

    mt = map_tables(m0.ops, Poly.const)
    mt[(0, (Fraction(1), 0))] = {(): {"z": Poly([frac(lam), frac(sig)])}}
    ct = {(0, (Fraction(1), 0)): {(): {"x": Poly.const(
        sign_pow(n + 1) * frac(sig))}}}
    p_iso = Pseudoisotopy(n, basis, monoid, 1, "e", mt, ct)

    m1_ops = dict(_curved_line("", monoid, "modulo", 1, 1,
                               frac(lam) + frac(sig), rho, zeta).ops)
    m1_ops[(0, (Fraction(2), 0))] = {(): {"z": frac(kappa)}}
    m1_ops[(1, (Fraction(2), 0))] = {("x",): {"z": frac(nu)}}
    m1_ops[(2, (Fraction(2), 0))] = {("x", "x"): {"z": frac(omega)}}
    m1_ops[(0, (Fraction(2), 2))] = {(): {"e": frac(kappa_p)}}
    m1 = AInfAlgebra(basis, monoid, "modulo", 2, "e", m1_ops)
    return {"m0": m0, "P": p_iso, "m1": m1,
            "params": {"n": n, "lam": frac(lam), "sig": frac(sig),
                       "zeta": frac(zeta), "rho": frac(rho),
                       "kappa": frac(kappa), "nu": frac(nu),
                       "omega": frac(omega), "kappa_p": frac(kappa_p)}}


def chain_fixture(theta=23, **kw):
    """A three-level extension chain: a moving first step, then a constant
    isotopy carrying one further curvature term at energy 3."""
    fix = extension_fixture(**kw)
    m0, p1, m1 = fix["m0"], fix["P"], fix["m1"]
    m_ext1, _ = extend_one_level(m0, m1, p1)
    p2 = Pseudoisotopy(fix["params"]["n"], m0.basis, m0.monoid, 2, "e",
                       map_tables(m_ext1.ops, Poly.const), {})
    m2_ops = {**m_ext1.ops, (0, (Fraction(3), 0)): {(): {"z": frac(theta)}}}
    m2 = AInfAlgebra(m0.basis, m0.monoid, "modulo", 3, "e", m2_ops)
    return {"m0": m0, "chain": [(m1, p1), (m2, p2)], "theta": frac(theta)}


def commuting_isotopy_fixture(lam_a=3, sig_a=2, lam_b=5, rho_b=7):
    """Factor isotopies on two curved lines and the induced product isotopy.

    The first factor (dimension parameter 1) moves its curvature; the second
    (also 1) is constant.  The product family carries the correction
    c^t_{0,(1,0)} = (-1)^{n_2} iota_A(c^{t,A}_{0,(1,0)}).  The higher-cutoff
    algebras add one pure-second-factor curvature term at energy 3/2.
    """
    n1 = n2 = 1
    e0, e1 = Fraction(1), Fraction(3, 2)
    m0a = _curved_line("A", EnergyMonoid([(1, 0)]), "modulo", e0, 1, lam_a)
    mta = map_tables(m0a.ops, Poly.const)
    mta[(0, (Fraction(1), 0))] = {(): {"zA": Poly([frac(lam_a), frac(sig_a)])}}
    cta = {(0, (Fraction(1), 0)): {(): {"xA": Poly.const(
        sign_pow(n1 + 1) * frac(sig_a))}}}
    pa = Pseudoisotopy(n1, m0a.basis, m0a.monoid, e0, "eA", mta, cta)

    mon_b = EnergyMonoid([(Fraction(1, 2), 2), (Fraction(3, 2), 2)])
    m0b = _curved_line("B", mon_b, "modulo", e0, Fraction(1, 2), rho=lam_b)
    pb = Pseudoisotopy(n2, m0b.basis, mon_b, e0, "eB",
                       map_tables(m0b.ops, Poly.const), {})

    mon_c = monoid_sum(m0a.monoid, mon_b)
    a_end0 = pa.endpoint(0)
    curvature = {
        (Fraction(1), 0): {"zA|eB": frac(lam_a)},
        (Fraction(1, 2), 2): {"eA|eB": frac(lam_b)},
    }
    m0c = tensor_dga(a_end0, m0b, mon_c, "modulo", e0, curvature)
    mtc = map_tables(m0c.ops, Poly.const)
    mtc[(0, (Fraction(1), 0))] = {(): {"zA|eB": Poly([frac(lam_a),
                                                      frac(sig_a)])}}
    ctc = {(0, (Fraction(1), 0)): {(): {"xA|eB": Poly.const(
        sign_pow(n2) * sign_pow(n1 + 1) * frac(sig_a))}}}
    pc = Pseudoisotopy(n1 + n2, m0c.basis, mon_c, e0, "eA|eB", mtc, ctc)

    emb_a, emb_b = _tensor_embeddings(a_end0, m0b, m0c)

    def recut(alg, extra_ops, cutoff):
        return AInfAlgebra(alg.basis, alg.monoid, "modulo", cutoff, alg.unit,
                           {**alg.ops, **extra_ops}, alg.window)

    m1a = recut(pa.endpoint(1), {}, e1)
    m1b = recut(pb.endpoint(1),
                {(0, (Fraction(3, 2), 2)): {(): {"eB": frac(rho_b)}}}, e1)
    m1c = recut(pc.endpoint(1),
                {(0, (Fraction(3, 2), 2)): {(): {"eA|eB": frac(rho_b)}}}, e1)
    return {"PA": pa, "PB": pb, "PC": pc, "embA": emb_a, "embB": emb_b,
            "m0A": m0a, "m0B": m0b, "m0C": m0c,
            "m1A": m1a, "m1B": m1b, "m1C": m1c, "E1": e1,
            "n1": n1, "n2": n2}
