"""The suite's draws and projection fast paths against the code they replaced.

`appendix_suite` draws through `random.Random.getrandbits` (`_below`,
`_sample`) where it called `randint`, `choice` and `sample`, and keeps each
coordinate projection with its fiber data in a cache. A report that passes
lists only groups and trial counts, so it cannot show that the suite still
checks the same instances: the forms and maps it draws are recorded here, in
order, by wrapping the module's draw functions. The previous draw functions
stay below, verbatim, as the oracle, and `PARENT_DRAWS` is the digest of
what the previous suite drew on seeds 0-19 at 200 trials.
"""

import hashlib
import itertools
import json
import random

from hypothesis import given, settings, strategies as st

from ainfkit import torus
from ainfkit.torus import TorusMap, _form, _map, _qi

from test_torus_integers import projection, term_dicts


# -- the replaced draws, kept as the oracle ------------------------------------------

def _projection(source_dim: int, coords) -> TorusMap:
    """The coordinate projection onto coords, which must already be
    ascending source coordinates; unchecked."""
    coords = tuple(coords)
    return _map(source_dim, len(coords),
                tuple(tuple(int(j == c) for j in range(1, source_dim + 1))
                      for c in coords), coords)


def _random_coeff(rng):
    """a/p + (b/q) i with a in [-3, 3], b in [-2, 2] and p, q in {1, 2}."""
    a, p = rng.randint(-3, 3), rng.choice([1, 2])
    b, q = rng.randint(-2, 2), rng.choice([1, 2])
    return _qi(a * q, b * p, p * q)


def random_form(rng, dim: int, degree=None, max_terms=3):
    """Random form with frequencies in [-2, 2]; homogeneous if degree given."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        freq = tuple(rng.randint(-2, 2) for _ in range(dim))
        deg = degree if degree is not None else rng.randint(0, dim)
        idx = tuple(sorted(rng.sample(range(1, dim + 1), deg))) if deg else ()
        terms[(freq, idx)] = _random_coeff(rng)
    return _form(dim, terms)


def _random_projection(rng, source_dim: int, target_dim: int) -> TorusMap:
    coords = sorted(rng.sample(range(1, source_dim + 1), target_dim))
    return _projection(source_dim, coords)


def _random_linear(rng, source_dim: int, target_dim: int) -> TorusMap:
    return _map(source_dim, target_dim, tuple(
        tuple(rng.randint(-2, 2) for _ in range(source_dim))
        for _ in range(target_dim)))


ORACLE = {"random_form": random_form, "_random_projection": _random_projection,
          "_random_linear": _random_linear}

# sha256 of the logs of `drawn` on seeds 0-19 at 200 trials, each followed by
# a newline, recorded from the suite as it was when it called randint, choice
# and sample.
PARENT_DRAWS = "15ef7dd0be63265e70952e63a5374133f506d7b4c8c9c36762a6b8b546ba4ce9"


# -- recording the instances ---------------------------------------------------------

def described(value):
    if isinstance(value, TorusMap):
        return [value.source_dim, value.target_dim, value.rows, value.proj_coords]
    return value.to_json()


def drawn(monkeypatch, seed, trials, draws):
    """The report of `appendix_suite(seed, trials)` and the JSON list of
    every (function, arguments, result) its draws made, in order, with the
    module's draw functions replaced by `draws`."""
    log = []
    with monkeypatch.context() as patch:
        for name, fn in draws.items():
            def wrapped(rng, *args, _fn=fn, _name=name, **kwargs):
                out = _fn(rng, *args, **kwargs)
                log.append([_name, args, sorted(kwargs.items()), described(out)])
                return out
            patch.setattr(torus, name, wrapped)
        report = torus.appendix_suite(seed, trials)
    return report, json.dumps(log)


def test_suite_draws_the_same_instances_and_reports(monkeypatch):
    current = {name: getattr(torus, name) for name in ORACLE}
    digest = hashlib.sha256()
    for seed in range(20):
        report, log = drawn(monkeypatch, seed, 200, current)
        assert (report, log) == drawn(monkeypatch, seed, 200, ORACLE)
        assert report["status"] == "PASS"
        assert [g["trials"] for g in report["groups"]] == [200] * 8
        digest.update(log.encode() + b"\n")
    assert digest.hexdigest() == PARENT_DRAWS


def test_draw_helpers_match_random():
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in range(1, 6):
            for a in (-3, 0, 1):
                assert a + torus._below(bits, n) == theirs.randint(a, a + n - 1)
            seq = [7 * i + 1 for i in range(n)]
            assert seq[torus._below(bits, n)] == theirs.choice(seq)
            for k in range(n + 1):
                assert torus._sample(bits, n, k) == \
                    theirs.sample(range(1, n + 1), k)
        assert ours.getstate() == theirs.getstate()


# -- the projection fast paths against the general ones ------------------------------

def inversion_sign(order):
    inversions = sum(1 for a, b in itertools.combinations(order, 2) if a > b)
    return -1 if inversions % 2 else 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_projection_pullback_matches_the_matrix_pullback(m, data):
    coords = sorted(data.draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
    pi = TorusMap.projection(m, coords)
    alpha = torus.TorusForm(len(coords), {
        key: torus.QI(re, im)
        for key, (re, im) in data.draw(term_dicts(len(coords))).items()})
    matrix = TorusMap(m, len(coords), pi.rows)
    assert not matrix.is_projection()
    assert torus.pullback(pi, alpha) == torus.pullback(matrix, alpha)


def test_kept_fiber_data_matches_a_fresh_computation():
    for m in range(6):
        for r in range(m + 1):
            for coords in itertools.combinations(range(1, m + 1), r):
                fiber = tuple(c for c in range(1, m + 1) if c not in coords)
                phi, kept_fiber, target_pos, gather = \
                    torus._projection_data(m, coords)
                pi = TorusMap.projection(m, coords)
                assert kept_fiber == pi.fiber_coords() == fiber
                assert torus.projection_orientation_sign(pi) == \
                    inversion_sign(fiber + coords)
                assert target_pos == {c: t for t, c in enumerate(coords, 1)}
                freq = tuple(range(10, 10 + r)) + (0,)
                assert tuple(freq[g] for g in gather) == tuple(
                    10 + coords.index(c) if c in coords else 0
                    for c in range(1, m + 1))
                expected = projection(m, coords)
                for built in (phi, pi, torus._projection(m, list(coords))):
                    assert (built.source_dim, built.target_dim, built.rows,
                            built.proj_coords) == (
                        expected.source_dim, expected.target_dim,
                        expected.rows, expected.proj_coords)
