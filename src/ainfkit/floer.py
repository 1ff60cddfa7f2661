"""Cohomology of deformed differentials, over exact scalars.

For a gapped algebra with energies in (1/N) * Z_{>=0} and a bounding cochain
b, the deformed differential m^b_1 has matrix entries in Q[q] with q = T^{1/N}.
Its rank over the fraction field Q(q) gives the cohomology dimension, and a
Smith normal form over the PID Q[q] gives the torsion-module barcode: each
invariant factor q^e contributes a bar of length e/N.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ainfkit.ainf import (
    AInfAlgebra,
    AlgElement,
    deformed_table,
    differential_matrix,
    mc_defect,
    validate_bounding_candidate,
)
from ainfkit.kunneth import SubalgebraEmbedding, box_product
from ainfkit.poly import (
    EchelonSpan,
    Poly,
    graded_spans,
    matrix_rank_fraction_field,
    smith_normal_form,
    squares_to_zero,
    transpose,
)
from ainfkit.scalars import frac_str


def scalar_cohomology(matrix, grading) -> dict:
    """Cohomology of a degree +1 differential on a finite graded Q-space.

    matrix: {row: {column: Fraction}}, zeros absent, column j the image of
    basis vector j; grading: list of integer degrees, one per basis vector.
    Returns the per-degree dimensions and a representative basis of each
    degree's cohomology (kernel vectors independent modulo the image).
    """
    indices = range(len(grading))
    if any(i not in indices or any(j not in indices for j in row)
           for i, row in matrix.items()):
        raise ValueError("matrix shape does not match the grading")
    if not squares_to_zero(matrix):
        raise ValueError("differential does not square to zero")
    if any(x and grading[i] != grading[j] + 1
           for i, row in matrix.items() for j, x in row.items()):
        raise ValueError("differential does not have degree +1")
    # Per degree, the representatives are the kernel vectors of the outgoing
    # block that are independent modulo the incoming image (the columns of
    # degree d - 1): an echelon basis of the image grows by each chosen
    # vector, and a kernel vector is chosen when it does not reduce to zero.
    spans, dims, _ = graded_spans(matrix, grading)
    columns = transpose(matrix)
    reps = {}
    for d, (idxs, outgoing) in spans.items():
        incoming = spans[d - 1][0] if d - 1 in spans else ()
        image = EchelonSpan(columns[j] for j in incoming if j in columns)
        reps[d] = [{str(i): frac_str(x) for i, x in sorted(v.items())}
                   for v in outgoing.kernel(idxs) if image.add(v)]
    return {
        "dims": {str(d): v for d, v in sorted(dims.items())},
        "total": sum(dims.values()),
        "representatives": {str(d): reps[d] for d in sorted(reps) if reps[d]},
    }


def algebra_cohomology(alg: AInfAlgebra) -> dict:
    """Cohomology of the undeformed beta = 0 differential of an algebra."""
    return scalar_cohomology(differential_matrix(alg),
                             [alg.degree(nm) for nm in alg.names])


def _energy_denominator(alg: AInfAlgebra, b: AlgElement) -> int:
    dens = [1]
    dens += [beta[0].denominator for _, beta in alg.ops]
    for nov in b.coeffs.values():
        dens += [e.denominator for e, _ in nov.terms]
    return lcm(*dens)


def deformed_differential_matrix(alg: AInfAlgebra, b: AlgElement, flat=None):
    """(matrix of m^b_1 over Q[q] as {row: {column: Poly}}, N), q = T^{1/N},
    of a gapped algebra and a genuine bounding cochain (zero curvature
    remainder).  Raises ValueError unless (m^b_1)^2 = 0 exactly.  flat says
    whether the curvature remainder of b vanishes, for a caller that has
    validated b and computed that remainder already (None validates and
    computes it here).
    """
    if alg.mode != "gapped":
        raise ValueError("exact cohomology needs a gapped algebra; "
                         "truncated data only determines it up to the cutoff")
    if flat is None:
        # b is validated before mc_defect asks for a unit, so its message
        # comes first.
        validate_bounding_candidate(alg, b)
        flat = mc_defect(alg, b, validated=True)[1].is_zero()
    if not flat:
        raise ValueError("b does not satisfy the weak Maurer-Cartan equation")
    n_den = _energy_denominator(alg, b)
    idx = {nm: i for i, nm in enumerate(alg.names)}
    mat = {}
    for (nm,), column in deformed_table(alg, b, 1).items():
        for out, nov in column.items():
            coeffs = {}
            for e, cf in nov.terms:
                power = e * n_den
                if power.denominator != 1:
                    raise ValueError("energy outside (1/N)Z lattice")
                coeffs[power.numerator] = cf
            mat.setdefault(idx[out], {})[idx[nm]] = Poly(
                [coeffs.get(p, Fraction(0)) for p in range(max(coeffs) + 1)])
    if not squares_to_zero(mat):
        raise ValueError("deformed differential does not square to zero")
    return mat, n_den


def hf_dimension(alg: AInfAlgebra, b: AlgElement) -> int:
    """dim over the Novikov field of the m^b_1 cohomology."""
    mat, _ = deformed_differential_matrix(alg, b)
    rank = matrix_rank_fraction_field(mat)
    return len(alg.names) - 2 * rank


def barcode(alg: AInfAlgebra, b: AlgElement) -> dict:
    """Bar lengths of the torsion part of the m^b_1 cohomology over Q[q].

    Monomial invariant factors q^e give finite bars of length e/N; any
    non-monomial factor is reported verbatim rather than converted.
    """
    mat, n_den = deformed_differential_matrix(alg, b)
    factors = smith_normal_form(mat)
    bars = sorted(Fraction(f.degree(), n_den) for f in factors
                  if f.is_monomial() and f.degree())
    nonmonomial = [f.to_json() for f in factors if not f.is_monomial()]
    return {
        "check": "barcode",
        "N": n_den,
        "bars": [frac_str(x) for x in bars],
        "free_rank": len(alg.names) - 2 * len(factors),
        "nonmonomial_factors": nonmonomial,
        "status": "PASS" if not nonmonomial else "FAIL",
    }


def check_hf_kunneth(embA: SubalgebraEmbedding, embB: SubalgebraEmbedding,
                     b1: AlgElement, b2: AlgElement) -> dict:
    """Floer cohomology dimension is multiplicative under the box product."""
    box = box_product(embA, embB, b1, b2)
    # box_product has validated each cochain and computed its curvature
    # remainder; the three dimensions reuse them.
    dim_a, dim_b, dim_c = (
        len(alg.names) - 2 * matrix_rank_fraction_field(
            deformed_differential_matrix(
                alg, b, box[f"remainder_{tag}_zero"])[0])
        for tag, alg, b in (("A", embA.source, b1), ("B", embB.source, b2),
                            ("C", embA.target, box["element"])))
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
