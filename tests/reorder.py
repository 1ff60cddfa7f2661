"""The Koszul sign of a graded permutation, by adjacent transpositions: the
oracle of `signs.merge_wedge` and of the integer torus calculus."""

from ainfkit.signs import sign_pow


def reorder_sign(degrees, perm) -> int:
    """Koszul sign of reordering graded symbols by a permutation.

    perm[j] is the source position whose entry lands in target slot j, i.e.
    the reordered list is [entries[perm[0]], entries[perm[1]], ...].  The
    sign is accumulated by adjacent transpositions, each contributing
    (-1)^{|x||y|} for the pair it swaps.
    """
    n = len(degrees)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    # Bubble the permutation to the identity, tracking graded swap signs.
    work = perm[:]
    exp = 0
    for j in range(n):
        pos = work.index(j)
        while pos > j:
            a, b = work[pos - 1], work[pos]
            exp += degrees[a] * degrees[b]
            work[pos - 1], work[pos] = b, a
            pos -= 1
    return sign_pow(exp)
