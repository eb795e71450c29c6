"""The benchmark tracer wraps program functions by name; renaming or deleting
one of them must fail here, not only in traced benchmark runs."""
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_every_target(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._originals)
        patched = [(holder, attr) for holder, attr, _ in saved]
        for modname, attr, _, _ in tracing.TARGETS:
            owner, _, name = attr.rpartition(".")
            mod = importlib.import_module(modname)
            holder = getattr(mod, owner) if owner else mod
            assert patched.count((holder, name)) == 1, (modname, attr)
    finally:
        tracer.uninstall()
    assert all(vars(holder)[attr] is orig for holder, attr, orig in saved)
