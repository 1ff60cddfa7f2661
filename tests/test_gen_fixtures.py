"""The bundled fixtures are exactly what scripts/gen_fixtures.py writes.

The generator builds every document through `AInfAlgebra.to_json` and
`Pseudoisotopy.to_json`, so this also pins both canonical writers.
"""

import importlib.util
import os

import pytest

from ainfkit.specio import dump_document

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "src", "ainfkit", "fixtures")


@pytest.fixture(scope="module")
def generated():
    """{file name: bytes} of one run of the generator, whose `write` is
    replaced so that nothing is written."""
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", os.path.join(ROOT, "scripts", "gen_fixtures.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    written = {}
    gen.write = lambda name, document: written.__setitem__(
        name, dump_document(document).encode("utf-8"))
    gen.main()
    return written


def test_generator_writes_every_bundled_fixture(generated):
    assert sorted(generated) == sorted(
        name for name in os.listdir(FIXTURES) if name.endswith(".json"))


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(FIXTURES) if name.endswith(".json")))
def test_bundled_fixture_matches_the_generator(name, generated):
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        assert generated[name] == fh.read()
