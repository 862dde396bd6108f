"""The traced benchmark run replaces nhoc functions at the names their
callers look up (``perfbench/tracing.py``).  Installing and removing those
hooks here makes a refactor that drops one of the names fail the test
suite instead of the traced run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    names = [(owner, attr) for owner, attr, _, _ in tracing.SPANS]
    before = [owner.__dict__.get(attr) for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()  # raises KeyError for a name that no longer exists
    try:
        for (owner, attr), original in zip(names, before):
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(names, before):
        assert owner.__dict__[attr] is original
