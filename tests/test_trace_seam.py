"""The benchmark's outside-in tracer must find every ricadi hook it needs.

perfbench/ looks up ricadi's layer functions by module attribute; a rename
would turn its per-layer metrics into nulls without failing a run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    t = tracer.Tracer()
    try:
        layers.install(t)
        layers.install_problems(t)
        assert t.missing == set()
    finally:
        t.restore()
