"""The benchmark tracer wraps ncds functions by name, and the benchmark
worker calls ncds.harness by name and position, so a rename or a changed
signature would surface only as a failed benchmark run.  This reads the
tracer's name tables as literals and the worker's calls as syntax (importing
and changing neither) and checks that every name still resolves and every
call still binds."""

import ast
import importlib
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


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


def _worker_harness_uses():
    """The h.<name> attribute nodes of worker.py and the calls among them,
    h being its name for ncds.harness."""
    tree = ast.parse(WORKER.read_text())
    attrs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "h"]
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.func in attrs]
    return attrs, calls


def test_every_worker_call_binds():
    harness = importlib.import_module("ncds.harness")
    _attrs, calls = _worker_harness_uses()
    assert calls
    for call in calls:
        name = call.func.attr
        fn = getattr(harness, name, None)
        assert callable(fn), name
        assert not any(isinstance(a, ast.Starred) for a in call.args), name
        assert all(k.arg is not None for k in call.keywords), name
        try:
            inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError("worker.py line %d: h.%s: %s"
                                 % (call.lineno, name, exc)) from None


def test_worker_ceilings_cover_every_theorem():
    harness = importlib.import_module("ncds.harness")
    attrs, _calls = _worker_harness_uses()
    assert "DEFAULT_CEILINGS" in {a.attr for a in attrs}
    assert sorted(harness.DEFAULT_CEILINGS) == ["A", "B", "C", "D", "E"]


def test_disk_cache_is_one_function():
    # the tracer wraps lie.cached_space wherever that function is bound, so
    # the CLI's calls count as disk hits and misses only while every name
    # holds the same object
    import ncds.cache
    import ncds.cli
    import ncds.lie
    assert ncds.lie.cached_space is ncds.cache.cached_space is ncds.cli.cached_space
