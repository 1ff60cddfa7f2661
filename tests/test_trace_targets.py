"""The names the benchmark's tracer wraps still exist in ainfkit.

perfbench/tracing.py finds its targets by module and name when a traced run
installs it, so a renamed or removed target (`poly.rational_matrix_rank`,
`AInfAlgebra.beta_splits`, ...) would otherwise only fail in such a run.
Here install() and uninstall() run on the tracer's source, which is read and
compiled in memory: nothing is imported from or written under perfbench/.
"""

import importlib
import sys
import types
from pathlib import Path

import ainfkit.cli  # noqa: F401 - loads every ainfkit module

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("tracing")
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def targets(tracing):
    """(owner, attribute) of every wrapped function and method."""
    for table in (tracing.SPANNED, tracing.COUNTED):
        for layer, qualnames in table.items():
            mod = importlib.import_module(f"ainfkit.{layer}")
            for qualname in qualnames:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    yield getattr(mod, cls_name), attr
                else:
                    yield mod, qualname


def test_tracer_installs_on_every_target_and_uninstalls():
    tracing = load_tracing()
    namespaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name == "ainfkit" or name.startswith("ainfkit.")}
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr in targets(tracing)]
    assert any(attr == "rational_matrix_rank" for _, attr, _ in originals)
    assert any(attr == "beta_splits" for _, attr, _ in originals)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)
    for name, before in namespaces.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items()), name
