"""perfbench's span tracer: it must reach every name it is required to
rebind, and uninstalling it must leave the package as it found it."""

import importlib
import importlib.util
from pathlib import Path

from ndqc import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_required_names_and_uninstalls(capsys):
    tracer = _load_tracer()
    mods = {m: importlib.import_module(f"ndqc.{m}") for m in tracer.MODULES}
    owners = list(mods.values()) + [importlib.import_module("ndqc")]
    owners += [getattr(mods[m], cls) for m, cls, _ in tracer.METHODS]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    try:
        # install raises unless every MUST_REBIND name became a wrapper
        t.install()
        assert all(hasattr(getattr(mods[m], name), "__wrapped__")
                   for m, name in tracer.MUST_REBIND)
        assert cli.main(["separation", "comm", "--n", "2"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    spans = {rec[0] for rec in t.spans}
    assert {"cli.cmd_separation", "commsim.run_protocol",
            "statevec.apply_gate", "linalg.nullspace",
            "commsim.NondetMatrix.rank"} <= spans
    for owner, snap in zip(owners, before):
        assert all(vars(owner)[name] is obj for name, obj in snap.items()), \
            owner
