"""Degree bookkeeping and Koszul sign calculus.

Degrees are plain integers; all signs depend only on parities.  The shifted
degree of a is |a| - 1, and it is the shifted degree that feeds every
insertion sign in the quadratic relations.
"""

from __future__ import annotations

from functools import cache


def shifted(degree: int) -> int:
    """Shifted degree ||a|| = |a| - 1."""
    return degree - 1


def shifted_parities(degrees) -> dict:
    """{name: ||a|| mod 2} for a {name: degree} map, for insertion signs."""
    return {nm: shifted(d) % 2 for nm, d in degrees.items()}


def sign_pow(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def koszul_prefix_sign(degrees, i: int) -> int:
    """(-1) to the sum of shifted degrees strictly before position i.

    Positions are 1-based: i = 1 means an empty prefix.  This is the sign
    (-1)^* with * = sum_{l=1}^{i-1} ||a_l|| appearing in the quadratic
    relation when an inner operation is inserted at slot i.
    """
    if not (1 <= i <= len(degrees) + 1):
        raise IndexError(f"insertion index {i} out of range for {len(degrees)} entries")
    return sign_pow(sum(shifted(d) for d in degrees[: i - 1]))


@cache
def merge_wedge(I, J):
    """Merge two ascending index tuples of odd symbols (the dx_i of a form):
    (sign, merged) with merged ascending and sign the Koszul sign of sorting
    I + J, one (-1) per pair (i in I, j in J) with j < i; None when they
    share an index.  Kept per (I, J): the index sets in use are few."""
    if set(I) & set(J):
        return None
    inversions = sum(1 for a in I for b in J if b < a)
    return sign_pow(inversions), tuple(sorted(I + J))


def gamma_ledger(degs_b, deg_a: int, deg_b: int, n1: int, n2: int, k: int, i: int):
    """The five intermediate parities of the mixed-insertion sign computation.

    degs_b: degrees |b_1|..|b_k| of the second-factor inputs; deg_a, deg_b the
    degrees of the inserted pair; n1, n2 the two dimension parities; i the
    insertion slot (0 <= i <= k).  Returns (g1..g5) as parities in {0,1}.
    """
    if not (0 <= i <= k):
        raise ValueError("insertion slot i must satisfy 0 <= i <= k")
    if len(degs_b) != k:
        raise ValueError("degree list length must equal k")
    a, b = deg_a, deg_b
    bl = degs_b  # 0-indexed; b_l in formulas is bl[l-1]
    sum_all = sum(bl)
    sum_le_i = sum(bl[:i])

    g1 = (
        sum((k + 1 - l) * bl[l - 1] for l in range(1, i + 1))
        + (k - i) * (a + b)
        + sum((k - l) * bl[l - 1] for l in range(i + 1, k + 1))
        + k * (k - 1) // 2
        + n2 * a
        + n1 * (b + sum_all)
    )
    g2 = g1 + a * sum_le_i
    g3 = g2 + (k + 1) * (a + n1)
    g4 = g3 + (
        sum((k + 1 - l) * bl[l - 1] for l in range(1, i + 1))
        + (k - i) * b
        + sum((k - l) * bl[l - 1] for l in range(i + 1, k + 1))
        + k * (k - 1) // 2
    )
    g5 = g4 + n2 * a + n1 * (b + sum_all + k + 1)
    return tuple(g % 2 for g in (g1, g2, g3, g4, g5))


def gamma_ledger_check(degs_b, deg_a: int, deg_b: int, n1: int, n2: int, k: int, i: int):
    """Compute gamma1..gamma5 mod 2 and test the closed-form identity.

    holds is True iff gamma5 == |a| * (1 + sum_{l<=i} ||b_l||) mod 2.
    """
    gammas = gamma_ledger(degs_b, deg_a, deg_b, n1, n2, k, i)
    target = (deg_a * (1 + sum(shifted(d) for d in degs_b[:i]))) % 2
    return gammas, gammas[4] == target
