from fractions import Fraction
from itertools import product

import pytest

from ainfkit.ainf import AInfAlgebra, check_ainf, check_unit, replaced
from ainfkit.isotopy import (
    Pseudoisotopy,
    check_commuting_isotopy,
    check_pseudoisotopy,
    extend_one_level,
    extend_to,
    flip_isotopy_constant,
    isotopy_constant_ids,
)
from ainfkit.kunneth import check_commuting, check_subalgebra
from ainfkit.models import (
    chain_fixture,
    commuting_isotopy_fixture,
    derham_model,
    extension_fixture,
)
from ainfkit.poly import Poly
from ainfkit.scalars import EnergyMonoid


def test_family_degree_rules_enforced():
    fix = extension_fixture()
    p = fix["P"]
    # t-dependent family at beta = 0 is rejected
    mt = {key: {ins: dict(cmb) for ins, cmb in tbl.items()}
          for key, tbl in p.mT.items()}
    mt[(1, (Fraction(0), 0))][("x",)]["z"] = Poly([1, 1])
    with pytest.raises(ValueError):
        Pseudoisotopy(p.n, p.basis, p.monoid, p.cutoff, p.unit, mt, p.cT)
    # corrections with unit inputs are rejected
    ct = {(1, (Fraction(1), 0)): {("e",): {"x": Poly.const(1)}}}
    with pytest.raises(ValueError):
        Pseudoisotopy(p.n, p.basis, p.monoid, p.cutoff, p.unit, p.mT, ct)


def test_isotopy_axioms_and_endpoints():
    fix = extension_fixture()
    report = check_pseudoisotopy(fix["P"], m0=fix["m0"])
    assert report["status"] == "PASS"


def test_parity_factor_is_load_bearing():
    # n reaches the check only through (-1)^{n+1}: with n even the family
    # passes, and the same family read with n odd breaks the differential
    # equation
    fix = extension_fixture(n=0)
    assert check_pseudoisotopy(fix["P"])["status"] == "PASS"
    flipped = replaced(fix["P"], n=fix["P"].n + 1)
    assert check_pseudoisotopy(flipped)["status"] == "FAIL"


def test_extension_matches_hand_computed_transport():
    fix = extension_fixture()
    pr = fix["params"]
    m_ext, p_ext = extend_one_level(fix["m0"], fix["m1"], fix["P"])
    lvl2 = (Fraction(2), 0)
    # terms with no correction insertions come through verbatim
    assert m_ext.ops[(0, lvl2)][()] == {"z": pr["kappa"]}
    assert m_ext.ops[(2, lvl2)][("x", "x")] == {"z": pr["omega"]}
    assert m_ext.ops[(0, (Fraction(2), 2))][()] == {"e": pr["kappa_p"]}
    # the one-input term picks up the transport correction: nu - 2 sig zeta
    expected = pr["nu"] - 2 * pr["sig"] * pr["zeta"]
    assert m_ext.ops[(1, lvl2)][("x",)] == {"z": expected}
    assert check_ainf(m_ext)["status"] == "PASS"
    assert check_unit(m_ext)["status"] == "PASS"
    # the extended family interpolates m_ext and m1
    assert check_pseudoisotopy(p_ext, m0=m_ext, m1=fix["m1"])["status"] == "PASS"


def test_trivial_isotopy_copies_new_level():
    fix = extension_fixture(sig=0)
    m_ext, _ = extend_one_level(fix["m0"], fix["m1"], fix["P"])
    for key, tbl in fix["m1"].ops.items():
        if key[1][0] == 2:
            assert m_ext.ops[key] == tbl


def test_extension_validates_inputs():
    fix = extension_fixture()
    with pytest.raises(ValueError):
        extend_one_level(fix["m1"], fix["m0"], fix["P"])  # cutoffs reversed


def test_chain_extension():
    fix = chain_fixture()
    m_final, isotopies = extend_to(fix["m0"], fix["chain"])
    assert m_final.cutoff == 3
    assert check_ainf(m_final)["status"] == "PASS"
    assert len(isotopies) == 2
    # the energy-3 curvature term of the constant second step is untouched
    assert m_final.ops[(0, (Fraction(3), 0))][()] == {"z": fix["theta"]}


def test_commuting_isotopy_fixture_passes():
    fix = commuting_isotopy_fixture()
    report = check_commuting_isotopy(fix["PC"], fix["PA"], fix["PB"],
                                     fix["embA"], fix["embB"])
    assert report["status"] == "PASS"
    for key in ("PA", "PB", "PC"):
        assert check_pseudoisotopy(fix[key])["status"] == "PASS"


def test_commuting_isotopy_extension_preserves_structure():
    fix = commuting_isotopy_fixture()
    m_ext_a, _ = extend_one_level(fix["m0A"], fix["m1A"], fix["PA"])
    m_ext_b, _ = extend_one_level(fix["m0B"], fix["m1B"], fix["PB"])
    m_ext_c, _ = extend_one_level(fix["m0C"], fix["m1C"], fix["PC"])
    for alg in (m_ext_a, m_ext_b, m_ext_c):
        assert check_ainf(alg)["status"] == "PASS"
    from ainfkit.kunneth import SubalgebraEmbedding
    emb_a = SubalgebraEmbedding(m_ext_a, m_ext_c, fix["embA"].iota)
    emb_b = SubalgebraEmbedding(m_ext_b, m_ext_c, fix["embB"].iota)
    assert check_subalgebra(emb_a)["status"] == "PASS"
    assert check_subalgebra(emb_b)["status"] == "PASS"
    assert check_commuting(emb_a, emb_b)["status"] == "PASS"


def test_commuting_isotopy_sign_sensitivity():
    fix = commuting_isotopy_fixture()
    # negating the product correction removes the (-1)^{n2} restriction factor
    pc = flip_isotopy_constant(fix["PC"], "ic0:1/0:->xA|eB")
    report = check_commuting_isotopy(pc, fix["PA"], fix["PB"],
                                     fix["embA"], fix["embB"])
    assert report["status"] == "FAIL"


def test_isotopy_constant_ids_roundtrip():
    fix = extension_fixture()
    ids = isotopy_constant_ids(fix["P"])
    assert any(i.startswith("im") for i in ids)
    assert any(i.startswith("ic") for i in ids)
    cid = next(i for i in ids if i.startswith("ic"))
    flipped = flip_isotopy_constant(fix["P"], cid)
    back = flip_isotopy_constant(flipped, cid)
    assert back.cT == fix["P"].cT and back.mT == fix["P"].mT


@pytest.mark.parametrize("w", [1, 2])
def test_constant_isotopy_of_a_windowed_model_passes(w):
    """m^t = m and c^t = 0 on a model whose relations hold on its window:
    the isotopy check scans the same scope as check_ainf."""
    alg = derham_model(1, w)
    assert alg.window != alg.names
    assert check_ainf(alg)["status"] == "PASS"
    assert check_pseudoisotopy(constant_isotopy(alg), alg, alg)["status"] \
        == "PASS"


def constant_isotopy(alg):
    """m^t = m and c^t = 0 at cutoff 1, on the algebra's window."""
    mt = {key: {ins: {o: Poly.const(c) for o, c in combo.items()}
                for ins, combo in table.items()}
          for key, table in alg.ops.items()}
    return Pseudoisotopy(1, alg.basis, alg.monoid, 1, alg.unit, mt, {},
                         alg.window)


def test_isotopy_window_survives_a_round_trip():
    """to_json writes the window when it is not the whole basis, so the
    reloaded isotopy is checked on the same scope."""
    P = constant_isotopy(derham_model(1, 1))
    assert (len(P.names), len(P.window)) == (10, 6)
    back = Pseudoisotopy.from_json(P.to_json())
    assert back.window == P.window
    assert back.to_json() == P.to_json()
    assert check_pseudoisotopy(back)["status"] == "PASS"
    whole = Pseudoisotopy.from_json(dict(P.to_json(), window=list(P.names)))
    assert whole.window == P.names and "window" not in whole.to_json()


def test_endpoint_drops_the_entries_that_vanish_there():
    fix = extension_fixture()
    p, lam, sig = fix["P"], fix["params"]["lam"], fix["params"]["sig"]
    lvl1 = (Fraction(1), 0)
    # m^t_{0,(1,0)}() = (lam + sig t) z is the only entry of its table.
    assert p.mT[(0, lvl1)] == {(): {"z": Poly([lam, sig])}}
    mt = {**p.mT, (1, lvl1): {("x",): {"z": Poly([1, 1])},
                              ("e",): {"x": Poly([2])}}}
    q = Pseudoisotopy(p.n, p.basis, p.monoid, p.cutoff, p.unit, mt, p.cT)
    at_root = q.endpoint(-lam / sig).ops
    assert (0, lvl1) not in at_root
    assert at_root[(1, lvl1)] == {("x",): {"z": 1 - lam / sig},
                                  ("e",): {"x": 2}}
    assert q.endpoint(-1).ops[(1, lvl1)] == {("e",): {"x": 2}}
    assert q.endpoint(-1).ops[(0, lvl1)] == {(): {"z": lam - sig}}


def test_endpoint_comparisons_read_the_coefficients_as_the_endpoint_does():
    """m^t_1(x) = (1 - t) z and m^t_1(w) = t z: one entry vanishes at each
    end.  Both endpoint comparisons, of check_pseudoisotopy and of
    extend_one_level, accept a target exactly when its ops are those of
    P.endpoint(t), on every target with each entry absent, 1 or -1."""
    half = (Fraction(1, 2), 0)
    basis = [("x", 1), ("w", 1), ("z", 2)]
    monoid = EnergyMonoid([half])
    P = Pseudoisotopy(0, basis, monoid, Fraction(1, 2), None,
                      {(1, half): {("x",): {"z": Poly([1, -1])},
                                   ("w",): {"z": Poly([0, 1])}}}, {})

    def algebra(cutoff, x_value, w_value):
        row = {inputs: {"z": c} for inputs, c in ((("x",), x_value),
                                                   (("w",), w_value)) if c}
        return AInfAlgebra(basis, monoid, "modulo", cutoff, None,
                           {(1, half): row} if row else {})

    assert P.endpoint(0).ops == algebra(Fraction(1, 2), 1, 0).ops
    assert P.endpoint(1).ops == algebra(Fraction(1, 2), 0, 1).ops
    values = (0, 1, -1)
    for x_value, w_value in product(values, values):
        target = algebra(Fraction(1, 2), x_value, w_value)
        above = algebra(Fraction(1), x_value, w_value)
        for clause, t in (("endpoint-0", 0), ("endpoint-1", 1)):
            matches = target.ops == P.endpoint(t).ops
            report = check_pseudoisotopy(P, **{f"m{t}": target})
            assert (clause not in [v["clause"] for v in report["violations"]]) \
                == matches
            m0, m1 = (target, algebra(Fraction(1), 0, 1)) if t == 0 else \
                (P.endpoint(0), above)
            try:
                extend_one_level(m0, m1, P)
            except ValueError as exc:
                assert not matches and f"P at t = {t}" in str(exc)
            else:
                assert matches
