"""Per-layer tracing by wrapping ainfkit's public functions from outside.

Nothing under src/ changes: `Tracer.install()` replaces each target function
in every ainfkit module namespace that binds it (so `cli.check_ainf` and
`ainf.check_ainf` both go through the wrapper), and each target method on its
class. `uninstall()` puts the originals back.

A spanned call records calls, inclusive time and self time (inclusive time
minus the time of spanned calls directly below it), and appends a span
(id, parent id, name, op id, start, end) to an in-memory list that is written
out at the end of the run. Very hot functions are only counted: a span around
each would cost more than the function itself.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# The layers whose time is split by spans. signs is absent: its only hot
# function is counted, so its time stays in its callers' self time.
SPANNED = {
    "cli": ["main"],
    "specio": ["load_spec", "dump_document"],
    "ainf": ["AInfAlgebra.__init__", "AInfAlgebra.from_json",
             "AInfAlgebra.to_json", "AInfAlgebra.beta_range",
             "AInfAlgebra.beta_splits", "eval_op", "ainf_defect",
             "check_ainf", "check_unit", "deformed_eval", "deform",
             "mc_defect", "assemble", "constant_ids", "flip_constant"],
    "scalars": ["EnergyMonoid.enumerate", "EnergyMonoid.__contains__"],
    "kunneth": ["SubalgebraEmbedding.__init__", "check_subalgebra",
                "check_commuting", "box_product", "check_kunneth_hypothesis"],
    "floer": ["scalar_cohomology", "algebra_cohomology",
              "deformed_differential_matrix", "hf_dimension", "barcode",
              "check_hf_kunneth"],
    "poly": ["rational_matrix_rank", "matrix_rank_fraction_field",
             "smith_normal_form"],
    "isotopy": ["Pseudoisotopy.__init__", "check_pseudoisotopy",
                "isotopy_sums", "extend_one_level", "extend_to",
                "check_commuting_isotopy", "flip_isotopy_constant"],
    "torus": ["appendix_suite", "fiber_integrate", "correspondence"],
}

COUNTED = {
    "scalars": ["NovikovElement.__init__"],
    "signs": ["koszul_prefix_sign"],
    "torus": ["form_wedge", "pullback"],
}

# Observers turn return values into the ratio and size counters.
OBSERVED = {
    "ainf.ainf_defect": lambda r: not r.is_zero(),
    "ainf.eval_op": lambda r: r.is_zero(),
    "scalars.EnergyMonoid.enumerate": len,
}

# Spans beyond this many are counted in `dropped` but not kept, so that
# memory stays bounded on long runs; the statistics still see every call.
SPAN_CAP = 100_000


def metric_name(module, qualname):
    """`ainf.AInfAlgebra.__init__` is reported as `ainf.AInfAlgebra.init`."""
    for dunder, plain in (("__init__", "init"), ("__contains__", "contains")):
        qualname = qualname.replace(dunder, plain)
    return f"{module}.{qualname}"


class Tracer:
    def __init__(self):
        self.stats = {}     # name -> [calls, total_s, self_s, observed sum]
        self.counts = {}    # name -> [calls]
        self.spans = []
        self.dropped = 0
        self.op_id = 0
        self._stack = []    # frames [span id, child time]
        self._depth = {}    # name -> active calls, for recursion-safe totals
        self._next_id = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------------
    def _spanned(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        observe = OBSERVED.get(name)
        stack, depth, spans = self._stack, self._depth, self.spans
        depth[name] = 0
        name_idx = len(self.stats) - 1

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            depth[name] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                dt = t1 - t0
                stat[0] += 1
                if depth[name] == 0:
                    stat[1] += dt
                stat[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0] if parent else -1,
                                  name_idx, self.op_id, t0, t1))
                else:
                    self.dropped += 1
            if observe is not None:
                stat[3] += observe(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------------
    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ainfkit" or n.startswith("ainfkit.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, qualnames in table.items():
                mod = importlib.import_module(f"ainfkit.{layer}")
                for qualname in qualnames:
                    self._patch(modules, mod, layer, qualname, make)

    def _patch(self, modules, mod, layer, qualname, make):
        name = metric_name(layer, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(name, original))
            self._restore.append((owner, attr, original))
            return
        original = getattr(mod, qualname)
        wrapper = make(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------
    def layer_self(self):
        out = dict.fromkeys(SPANNED, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat[2]
        return out

    def values(self):
        """Every counter by metric name, summed over the traced run."""
        out = {}
        for name, (calls, total, self_s, observed) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}.observed"] = observed
        for name, (calls,) in self.counts.items():
            out[f"{name}.calls"] = calls
        for layer, self_s in self.layer_self().items():
            out[f"layer.{layer}.self_s"] = self_s
        return out

    def write_spans(self, path):
        names = list(self.stats)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "dropped": self.dropped,
                       "fields": ["id", "parent", "name", "op", "start", "end"],
                       "spans": self.spans}, fh)
