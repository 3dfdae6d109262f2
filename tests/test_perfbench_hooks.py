"""The benchmark's tracer (perfbench/tracer.py) wraps cxva functions and
methods by name. A renamed or deleted target would otherwise show up only
as a failed benchmark run, so install and uninstall it here."""

import sys
from pathlib import Path

import cxva.cli  # noqa: F401  (loads every cxva module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings() -> dict:
    """(owner, attribute) -> bound object for every loaded cxva module and
    every class those modules define."""
    owners = [m for name, m in sys.modules.items()
              if (name == "cxva" or name.startswith("cxva.")) and m is not None]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("cxva.")]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_tracer_install_and_uninstall_restore_cxva(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install()
        patched = {key for key, value in _bindings().items()
                   if before.get(key) is not value}
    finally:
        tracer.uninstall()
    after = _bindings()

    assert patched, "the tracer patched nothing"
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
