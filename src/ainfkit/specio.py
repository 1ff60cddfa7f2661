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
# ZeroDivisionError.
_BAD_INPUT = (KeyError, ValueError, TypeError, ZeroDivisionError)


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

    def _section(self, key):
        if key not in self.raw:
            raise SpecError(f"{self.path}: missing section {key!r}")
        return self.raw[key]

    @property
    def algebra(self) -> AInfAlgebra:
        if self._algebra is None:
            try:
                self._algebra = AInfAlgebra.from_json(self._section("algebra"))
            except _BAD_INPUT as exc:
                raise SpecError(f"{self.path}: algebra: {exc}") from exc
        return self._algebra

    def embeddings(self) -> dict:
        if self._embeddings is None:
            out = {}
            for name, doc in self._section("embeddings").items():
                try:
                    out[name] = SubalgebraEmbedding.from_json(doc, self.algebra)
                except _BAD_INPUT as exc:
                    raise SpecError(
                        f"{self.path}: embeddings.{name}: {exc}") from exc
            self._embeddings = out
        return self._embeddings

    def embedding_pair(self):
        embs = self.embeddings()
        for name in ("A", "B"):
            if name not in embs:
                raise SpecError(f"{self.path}: embeddings.{name} is required")
        return embs["A"], embs["B"]

    def bounding(self, name="b") -> AlgElement:
        section = self._section("bounding")
        if name not in section:
            raise SpecError(f"{self.path}: bounding.{name} is required")
        try:
            elem = AlgElement.from_json(section[name], self.algebra.truncation)
        except _BAD_INPUT as exc:
            raise SpecError(f"{self.path}: bounding.{name}: {exc}") from exc
        for nm in elem.coeffs:
            if nm not in self.algebra._degrees:
                raise SpecError(
                    f"{self.path}: bounding.{name}: unknown basis name {nm!r}")
        return elem

    def factor_bounding(self, name, emb) -> AlgElement:
        section = self._section("bounding")
        if name not in section:
            raise SpecError(f"{self.path}: bounding.{name} is required")
        try:
            return AlgElement.from_json(section[name], emb.source.truncation)
        except _BAD_INPUT as exc:
            raise SpecError(f"{self.path}: bounding.{name}: {exc}") from exc

    @property
    def isotopy(self) -> Pseudoisotopy:
        if self._isotopy is None:
            try:
                self._isotopy = Pseudoisotopy.from_json(self._section("isotopy"))
            except _BAD_INPUT as exc:
                raise SpecError(f"{self.path}: isotopy: {exc}") from exc
        return self._isotopy

    def factor_isotopies(self):
        if self._factor_isotopies is None:
            section = self._section("factor_isotopies")
            out = {}
            for name in ("A", "B"):
                if name not in section:
                    raise SpecError(
                        f"{self.path}: factor_isotopies.{name} is required")
                try:
                    out[name] = Pseudoisotopy.from_json(section[name])
                except _BAD_INPUT as exc:
                    raise SpecError(
                        f"{self.path}: factor_isotopies.{name}: {exc}") from exc
            self._factor_isotopies = (out["A"], out["B"])
        return self._factor_isotopies

    def extension_target(self) -> AInfAlgebra:
        section = self._section("extension")
        if "m1" not in section:
            raise SpecError(f"{self.path}: extension.m1 is required")
        try:
            return AInfAlgebra.from_json(section["m1"])
        except _BAD_INPUT as exc:
            raise SpecError(f"{self.path}: extension.m1: {exc}") from exc

    def extension_chain(self):
        section = self._section("chain")
        steps = []
        for i, step in enumerate(section):
            parts = []
            for key, parse in (("m", AInfAlgebra.from_json),
                               ("isotopy", Pseudoisotopy.from_json)):
                try:
                    parts.append(parse(step[key]))
                except _BAD_INPUT as exc:
                    raise SpecError(
                        f"{self.path}: chain[{i}].{key}: {exc}") from exc
            steps.append(tuple(parts))
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
