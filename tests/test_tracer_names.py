"""The benchmark tracer wraps ncds functions by name, so a rename would
surface only as a crash in a traced benchmark run.  This reads the tracer's
name tables as literals (without importing or changing it) and checks that
every name still resolves."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name):
    """The literal value of a top-level assignment in tracer.py."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py has no table %s" % name)


def test_every_span_function_resolves():
    spans = _table("SPANS")
    assert spans
    for span, funcs, _counter in spans:
        module = importlib.import_module("ncds." + span.split(".")[0])
        for fname in funcs:
            assert callable(getattr(module, fname, None)), (span, fname)


def test_every_lru_cache_has_cache_info():
    caches = _table("LRU_CACHES")
    assert caches
    for prefix, module, fname in caches:
        fn = getattr(importlib.import_module("ncds." + module), fname, None)
        assert callable(getattr(fn, "cache_info", None)), (prefix, fname)
