"""Output oracle: what every benchmark op must print and exit with.

A check is a callable `check(rc, text) -> str | None` taking the exit code
returned by `ainfkit.cli.main` and the report it wrote to stdout. It returns
None when the output is right and a one-line reason when it is wrong. The
expected values are facts about the inputs, not recorded outputs: de Rham
cohomology of the n-torus has dimension C(n, k) in degree k, and so on.
"""

from __future__ import annotations

import json
from math import comb


def expect(rc, *clauses):
    """Exit code `rc` (0 = PASS, 1 = FAIL), a JSON report whose status
    agrees with it, and every extra clause `clause(report) -> str | None`."""
    status = "PASS" if rc == 0 else "FAIL"

    def check(got_rc, text):
        if got_rc != rc:
            return f"exit code {got_rc}, expected {rc}"
        try:
            report = json.loads(text)
        except ValueError:
            return "report is not JSON"
        if not isinstance(report, dict) or report.get("status") != status:
            return f"status is not {status}"
        for clause in clauses:
            reason = clause(report)
            if reason:
                return reason
        return None

    return check


def _findings(report):
    return report.get("counterexamples", []) + report.get("violations", [])


def clean(report):
    if _findings(report):
        return "PASS report lists counterexamples"
    return None


def caught(report):
    if not _findings(report):
        return "FAIL report has no counterexample"
    return None


def torus_dims(n):
    want = {str(k): comb(n, k) for k in range(n + 1)}

    def clause(report):
        if report.get("dims") != want:
            return f"cohomology dims {report.get('dims')}, expected {want}"
        return None

    return clause


def hf_dim(dim):
    def clause(report):
        if report.get("dim") != dim:
            return f"hf dim {report.get('dim')}, expected {dim}"
        return None

    return clause


def bars(expected=None):
    """No nonmonomial invariant factor; optionally exactly these bars."""
    def clause(report):
        if report.get("nonmonomial_factors") != []:
            return "barcode has nonmonomial factors"
        if expected is not None and report.get("bars") != expected:
            return f"bars {report.get('bars')}, expected {expected}"
        return None

    return clause


def multiplicative(report):
    if report.get("multiplicative") is not True:
        return "hf dimension is not multiplicative"
    return None


def new_constant(cid, value):
    def clause(report):
        got = report.get("new_constants", {}).get(cid)
        if got != value:
            return f"new constant {cid} = {got}, expected {value}"
        return None

    return clause


def potential(terms):
    def clause(report):
        if report.get("potential") != terms:
            return f"potential {report.get('potential')}, expected {terms}"
        return None

    return clause


def torus_groups(trials):
    def clause(report):
        groups = report.get("groups") or []
        if not groups:
            return "torus suite ran no groups"
        for g in groups:
            if g.get("status") != "PASS" or g.get("failures") \
                    or g.get("trials") != trials:
                return f"torus group {g.get('group')} did not pass {trials} trials"
        return None

    return clause
