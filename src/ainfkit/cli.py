"""Command-line front end: ainfctl.

Every check subcommand reads an ainfctl/1 JSON document, runs one verifier,
prints a JSON report, and exits 0 on PASS, 1 on FAIL, 2 on bad input.
`--mutate flip:<id>` negates one structure constant (ids starting with
"im"/"ic" address the isotopy family, everything else the algebra) before
running, which is how sign conventions are stress-tested from the shell.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ainfkit.ainf import (
    assemble,
    check_ainf,
    check_unit,
    constant_ids,
    flip_constant,
    mc_defect,
    stored_entries,
)
from ainfkit.floer import algebra_cohomology, barcode, check_hf_kunneth, hf_dimension
from ainfkit.isotopy import (
    check_commuting_isotopy,
    check_pseudoisotopy,
    extend_one_level,
    extend_to,
    flip_isotopy_constant,
)
from ainfkit.kunneth import (
    box_product,
    check_commuting,
    check_kunneth_hypothesis,
    check_subalgebra,
)
from ainfkit.scalars import frac, frac_str
from ainfkit.specio import SpecError, dump_document, load_spec
from ainfkit.torus import appendix_suite


def _apply_mutation(doc, spec):
    """flip:<id> -- negate one constant of the document's algebra or isotopy."""
    if not spec.startswith("flip:"):
        raise SpecError(f"unsupported mutation {spec!r} (expected flip:<id>)")
    cid = spec[len("flip:"):]
    if cid.startswith(("im", "ic")):
        doc._isotopy = flip_isotopy_constant(doc.isotopy, cid)
    else:
        doc._algebra = flip_constant(doc.algebra, cid)


def _cmd_check_ainf(doc, args):
    return check_ainf(doc.algebra)


def _cmd_check_unit(doc, args):
    return check_unit(doc.algebra)


def _cmd_check_subalgebra(doc, args):
    embs = doc.embeddings()
    if args.embedding not in embs:
        raise SpecError(f"no embedding named {args.embedding!r} in the document")
    return check_subalgebra(embs[args.embedding])


def _cmd_check_commuting(doc, args):
    emb_a, emb_b = doc.embedding_pair()
    return check_commuting(emb_a, emb_b)


def _cmd_check_kunneth(doc, args):
    return check_kunneth_hypothesis(*doc.embedding_pair())


def _cmd_mc_defect(doc, args):
    b = doc.bounding(args.bounding)
    p, rem = mc_defect(doc.algebra, b)
    return {
        "check": "mc-defect",
        "bounding": args.bounding,
        "potential": p.to_json(),
        "remainder": rem.to_json(),
        "status": "PASS" if rem.is_zero() else "FAIL",
    }


def _factor_pair(doc):
    emb_a, emb_b = doc.embedding_pair()
    b1 = doc.bounding("b1", emb_a.source)
    b2 = doc.bounding("b2", emb_b.source)
    return emb_a, emb_b, b1, b2


def _cmd_box_product(doc, args):
    report = box_product(*_factor_pair(doc))
    for key in ("element", "P_A", "P_B", "P_C"):
        report[key] = report[key].to_json()
    return report


def _cmd_cohomology(doc, args):
    report = algebra_cohomology(doc.algebra)
    report["check"] = "cohomology"
    report["status"] = "PASS"
    return report


def _cmd_hf(doc, args):
    b = doc.bounding(args.bounding)
    dim = hf_dimension(doc.algebra, b)
    return {"check": "hf", "bounding": args.bounding, "dim": dim,
            "status": "PASS"}


def _cmd_barcode(doc, args):
    return barcode(doc.algebra, doc.bounding(args.bounding))


def _cmd_check_hf_kunneth(doc, args):
    emb_a, emb_b, b1, b2 = _factor_pair(doc)
    return check_hf_kunneth(emb_a, emb_b, b1, b2)


def _cmd_check_isotopy(doc, args):
    # The document's algebra is the t = 0 endpoint when it lives at the same
    # cutoff; extension targets live one level higher and are matched against
    # the endpoint only below the cutoff, which is the extend command's job.
    m0 = None
    if doc.has("algebra") and doc.algebra.cutoff == doc.isotopy.cutoff:
        m0 = doc.algebra
    return check_pseudoisotopy(doc.isotopy, m0=m0)


def _new_level_constants(m0, m_ext):
    old = set(constant_ids(m0))
    return {cid: frac_str(entry[-1]) for cid, entry in
            zip(constant_ids(m_ext), stored_entries(m_ext.ops)) if cid not in old}


def _cmd_extend(doc, args):
    m0 = doc.algebra
    if doc.has("chain"):
        m_ext, isotopies = extend_to(m0, doc.extension_chain())
        iso_reports = [check_pseudoisotopy(p)["status"] for p in isotopies]
    else:
        m_ext, p_ext = extend_one_level(m0, doc.extension_target(), doc.isotopy)
        iso_reports = [check_pseudoisotopy(p_ext)["status"]]
    structure = check_ainf(m_ext)
    ok = structure["status"] == "PASS" and all(s == "PASS" for s in iso_reports)
    return {
        "check": "extend",
        "cutoff": frac_str(m_ext.cutoff),
        "new_constants": _new_level_constants(m0, m_ext),
        "extended_algebra": m_ext.to_json(),
        "ainf_status": structure["status"],
        "isotopy_statuses": iso_reports,
        "status": "PASS" if ok else "FAIL",
    }


def _cmd_check_commuting_isotopy(doc, args):
    emb_a, emb_b = doc.embedding_pair()
    p_a, p_b = doc.factor_isotopies()
    return check_commuting_isotopy(doc.isotopy, p_a, p_b, emb_a, emb_b)


def _cmd_torus_suite(args):
    return appendix_suite(args.seed, args.trials)


_SPEC_COMMANDS = {
    "check-ainf": _cmd_check_ainf,
    "check-unit": _cmd_check_unit,
    "check-subalgebra": _cmd_check_subalgebra,
    "check-commuting": _cmd_check_commuting,
    "check-kunneth": _cmd_check_kunneth,
    "mc-defect": _cmd_mc_defect,
    "box-product": _cmd_box_product,
    "cohomology": _cmd_cohomology,
    "hf": _cmd_hf,
    "barcode": _cmd_barcode,
    "check-hf-kunneth": _cmd_check_hf_kunneth,
    "check-isotopy": _cmd_check_isotopy,
    "extend": _cmd_extend,
    "check-commuting-isotopy": _cmd_check_commuting_isotopy,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfctl",
        description="exact verification of filtered A-infinity structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_bounding=False, needs_embedding=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to an ainfctl/1 JSON document")
        if needs_bounding:
            p.add_argument("--bounding", default="b",
                           help="name in the bounding section (default: b)")
        if needs_embedding:
            p.add_argument("--embedding", default="A",
                           help="embedding to check (default: A)")
        p.add_argument("--cutoff", metavar="p/q",
                       help="truncate a gapped algebra at this energy first")
        p.add_argument("--report", metavar="PATH",
                       help="write the JSON report to this file")
        p.add_argument("--mutate", metavar="flip:<id>",
                       help="negate one structure constant before running")
        return p

    add("check-ainf", "verify the quadratic structure relations")
    add("check-unit", "verify the strict unit axioms")
    add("check-subalgebra", "verify one factor embedding", needs_embedding=True)
    add("check-commuting", "verify the commuting-pair conditions")
    add("check-kunneth", "verify that K is a quasi-isomorphism at beta = 0")
    add("mc-defect", "curvature of a bounding candidate", needs_bounding=True)
    add("box-product", "combine factor bounding cochains")
    add("cohomology", "classical cohomology of the energy-zero differential")
    add("hf", "deformed cohomology dimension", needs_bounding=True)
    add("barcode", "torsion bars of the deformed differential",
        needs_bounding=True)
    add("check-hf-kunneth", "dimension multiplicativity under box products")
    add("check-isotopy", "verify the pseudoisotopy axioms")
    add("extend", "transport new-level operations back along an isotopy")
    add("check-commuting-isotopy",
        "product-compatibility of an isotopy with factor isotopies")

    p = sub.add_parser("torus-suite",
                       help="randomized exact identity suite on torus forms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON report to this file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "torus-suite":
            report = _cmd_torus_suite(args)
        else:
            doc = load_spec(args.spec)
            if getattr(args, "cutoff", None):
                try:
                    cutoff = frac(args.cutoff)
                except ZeroDivisionError as exc:
                    raise SpecError(f"--cutoff {args.cutoff}: {exc}") from exc
                doc._algebra = assemble(doc.algebra, cutoff)
            if args.mutate:
                _apply_mutation(doc, args.mutate)
            report = _SPEC_COMMANDS[args.command](doc, args)
    except (SpecError, ValueError, KeyError, OSError) as exc:
        print(f"ainfctl: error: {exc}", file=sys.stderr)
        return 2
    payload = dump_document(report)
    sys.stdout.write(payload)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return 0 if report.get("status") == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
