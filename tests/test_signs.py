import itertools

import pytest
from hypothesis import given, strategies as st

from ainfkit.signs import (
    gamma_ledger,
    gamma_ledger_check,
    koszul_prefix_sign,
    merge_wedge,
    shifted,
    sign_pow,
)

from reorder import reorder_sign


def test_shifted_and_sign_pow():
    assert shifted(0) == -1
    assert shifted(3) == 2
    assert sign_pow(0) == 1
    assert sign_pow(-3) == -1
    assert sign_pow(4) == 1


def test_koszul_prefix_sign_basic():
    # degrees (2, 0): shifted (1, -1)
    assert koszul_prefix_sign([2, 0], 1) == 1
    assert koszul_prefix_sign([2, 0], 2) == -1
    assert koszul_prefix_sign([2, 0], 3) == 1
    with pytest.raises(IndexError):
        koszul_prefix_sign([2, 0], 4)
    with pytest.raises(IndexError):
        koszul_prefix_sign([2, 0], 0)


def test_reorder_sign_transposition():
    # swapping two odd-degree symbols gives -1, with an even one gives +1
    assert reorder_sign([1, 1], [1, 0]) == -1
    assert reorder_sign([1, 2], [1, 0]) == 1
    assert reorder_sign([3, 3, 2], [2, 1, 0]) == -1
    with pytest.raises(ValueError):
        reorder_sign([1, 1], [0, 0])


perms3 = st.permutations(range(3))


@given(st.lists(st.integers(0, 3), min_size=3, max_size=3), perms3, perms3)
def test_reorder_sign_composes(degrees, p, q):
    # applying q after p equals the composite permutation's sign
    composed = [p[q[j]] for j in range(3)]
    degs_after_p = [degrees[p[j]] for j in range(3)]
    assert reorder_sign(degrees, composed) == \
        reorder_sign(degrees, p) * reorder_sign(degs_after_p, q)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_reorder_identity(degrees):
    assert reorder_sign(degrees, range(len(degrees))) == 1


def test_gamma_ledger_small_case():
    gammas, holds = gamma_ledger_check([1], 1, 0, 0, 0, 1, 1)
    assert holds
    assert gammas == gamma_ledger([1], 1, 0, 0, 0, 1, 1)


def test_gamma_ledger_validation():
    with pytest.raises(ValueError):
        gamma_ledger([1], 0, 0, 0, 0, 1, 2)
    with pytest.raises(ValueError):
        gamma_ledger([1, 1], 0, 0, 0, 0, 1, 1)


def test_gamma_ledger_exhaustive_k2():
    for degs in itertools.product(range(4), repeat=2):
        for a, b, n1, n2 in itertools.product(range(4), repeat=4):
            for i in range(3):
                _, holds = gamma_ledger_check(list(degs), a, b, n1, n2, 2, i)
                assert holds


def test_merge_wedge_is_the_reorder_sign_of_odd_symbols():
    """On every pair of ascending index tuples on T^1 to T^5: None when they
    share an index, else the sorted union with the Koszul sign of sorting
    I + J, every dx being odd."""
    for n in range(1, 6):
        subsets = [c for r in range(n + 1)
                   for c in itertools.combinations(range(1, n + 1), r)]
        for I, J in itertools.product(subsets, repeat=2):
            if set(I) & set(J):
                assert merge_wedge(I, J) is None
                continue
            merged = tuple(sorted(I + J))
            sign = reorder_sign([1] * len(merged),
                                [(I + J).index(x) for x in merged])
            assert merge_wedge(I, J) == (sign, merged)
