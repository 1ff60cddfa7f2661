"""Loading and validation of ainfctl/1 JSON documents.

A document bundles the objects one invocation needs: the main algebra,
optional factor embeddings (targets are always the main algebra), named
bounding-cochain candidates, an operation/correction family, factor
families, and extension targets.  All scalars are 'p/q' strings; all
energies are exact rationals.
"""

from __future__ import annotations

import json

from ainfkit.ainf import AInfAlgebra, AlgElement
from ainfkit.isotopy import Pseudoisotopy
from ainfkit.kunneth import SubalgebraEmbedding

FORMAT = "ainfctl/1"

# What parsing a malformed section raises; a "1/0" scalar raises
# ZeroDivisionError.  The parsers read objects with .get and .items(), so
# every object they read is checked to be one before they run.
_BAD_INPUT = (KeyError, ValueError, TypeError, ZeroDivisionError)

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


class SpecError(Exception):
    """Malformed or incomplete input document."""


class SpecDocument:
    """Parsed contents of an ainfctl/1 file."""

    def __init__(self, raw, path="<spec>"):
        self.path = path
        if not isinstance(raw, dict):
            raise SpecError(f"{path}: top level must be an object")
        if raw.get("format") != FORMAT:
            raise SpecError(
                f"{path}: missing or unsupported format "
                f"(expected {FORMAT!r}, got {raw.get('format')!r})")
        self.raw = raw
        self._algebra = None
        self._embeddings = None
        self._isotopy = None
        self._factor_isotopies = None

    def _section(self, key, kind=dict):
        if key not in self.raw:
            raise SpecError(f"{self.path}: missing section {key!r}")
        return self._expect(self.raw[key], key, kind)

    def _expect(self, value, where, kind=dict):
        """value, which the document must give as a `kind` (dict or list)."""
        if not isinstance(value, kind):
            got = _JSON_TYPES.get(type(value), type(value).__name__)
            raise SpecError(f"{self.path}: {where}: expected "
                            f"{_JSON_TYPES[kind]}, got {got}")
        return value

    def _member(self, section, name, where):
        if name not in section:
            raise SpecError(f"{self.path}: {where}.{name} is required")
        return section[name]

    def _parse(self, parse, value, where, *args):
        """parse(value, *args) of the object value, with errors located."""
        self._expect(value, where)
        try:
            return parse(value, *args)
        except _BAD_INPUT as exc:
            raise SpecError(f"{self.path}: {where}: {exc}") from exc

    @property
    def algebra(self) -> AInfAlgebra:
        if self._algebra is None:
            self._algebra = self._parse(AInfAlgebra.from_json,
                                        self._section("algebra"), "algebra")
        return self._algebra

    def embeddings(self) -> dict:
        if self._embeddings is None:
            out = {}
            for name, doc in self._section("embeddings").items():
                where = f"embeddings.{name}"
                self._expect(doc, where)
                for key in ("source", "iota"):
                    if key in doc:
                        self._expect(doc[key], f"{where}.{key}")
                for src, combo in doc.get("iota", {}).items():
                    self._expect(combo, f"{where}.iota.{src}")
                out[name] = self._parse(SubalgebraEmbedding.from_json, doc,
                                        where, self.algebra)
            self._embeddings = out
        return self._embeddings

    def embedding_pair(self):
        embs = self.embeddings()
        for name in ("A", "B"):
            if name not in embs:
                raise SpecError(f"{self.path}: embeddings.{name} is required")
        return embs["A"], embs["B"]

    def bounding(self, name="b", alg=None) -> AlgElement:
        """The named bounding cochain, on alg's basis (default: the algebra)."""
        section = self._member(self._section("bounding"), name, "bounding")
        alg = self.algebra if alg is None else alg
        elem = self._parse(AlgElement.from_json, section, f"bounding.{name}",
                           alg.truncation)
        for nm in elem.coeffs:
            if nm not in alg._degrees:
                raise SpecError(
                    f"{self.path}: bounding.{name}: unknown basis name {nm!r}")
        return elem

    @property
    def isotopy(self) -> Pseudoisotopy:
        if self._isotopy is None:
            self._isotopy = self._parse(Pseudoisotopy.from_json,
                                        self._section("isotopy"), "isotopy")
        return self._isotopy

    def factor_isotopies(self):
        if self._factor_isotopies is None:
            section = self._section("factor_isotopies")
            self._factor_isotopies = tuple(
                self._parse(Pseudoisotopy.from_json,
                            self._member(section, name, "factor_isotopies"),
                            f"factor_isotopies.{name}")
                for name in ("A", "B"))
        return self._factor_isotopies

    def extension_target(self) -> AInfAlgebra:
        return self._parse(AInfAlgebra.from_json,
                           self._member(self._section("extension"), "m1",
                                        "extension"),
                           "extension.m1")

    def extension_chain(self):
        steps = []
        for i, step in enumerate(self._section("chain", list)):
            where = f"chain[{i}]"
            self._expect(step, where)
            steps.append(tuple(
                self._parse(parse, self._member(step, key, where),
                            f"{where}.{key}")
                for key, parse in (("m", AInfAlgebra.from_json),
                                   ("isotopy", Pseudoisotopy.from_json))))
        return steps

    def has(self, key) -> bool:
        return key in self.raw


def load_spec(path) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return SpecDocument(raw, path)


def dump_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, one trailing
    newline — byte-identical across runs for identical content."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
