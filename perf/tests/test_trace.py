"""Self-time arithmetic, and that tracing leaves the program as it found it."""

import sys

import pytest

from perf.trace import LAYERS, TARGETS, UNATTRIBUTED, Tracer, self_times


def span(sid, layer, start, end, parent=0, thread="MainThread"):
    return [sid, layer, f"{layer}#{sid}", start, end, parent, 1, thread]


def test_self_time_of_nested_spans():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 2.0, 3.0, parent=2),
        span(4, "c", 5.0, 9.0, parent=1),
    ]
    got = self_times(spans)
    assert got["root"] == {"self_s": 3.0, "calls": 1}
    assert got["a"]["self_s"] == pytest.approx(2.0)
    assert got["b"]["self_s"] == pytest.approx(1.0)
    assert got["c"]["self_s"] == pytest.approx(4.0)
    # Without threads self times partition the root's wall exactly.
    assert sum(v["self_s"] for v in got.values()) == pytest.approx(10.0)


def test_overlapping_thread_children_are_charged_as_a_union():
    spans = [
        span(1, "plugin", 0.0, 10.0),
        span(2, "gzip", 1.0, 6.0, parent=1, thread="T-1"),
        span(3, "gzip", 4.0, 9.0, parent=1, thread="T-2"),
    ]
    got = self_times(spans)
    # The parent waited while [1, 9) was covered: 2 s of its own.
    assert got["plugin"]["self_s"] == pytest.approx(2.0)
    # The children did 10 s of work in those 8 s of wall.
    assert got["gzip"] == {"self_s": pytest.approx(10.0), "calls": 2}


def test_child_is_clipped_to_its_parent_and_same_layer_nests():
    spans = [
        span(1, "storage", 0.0, 4.0),
        span(2, "storage", 1.0, 3.0, parent=1),     # get inside get_bytes
        span(3, "late", 3.5, 6.0, parent=1, thread="T-1"),
    ]
    got = self_times(spans)
    # 4 s - [1,3) - [3.5,4) = 1.5 s for the outer, 2 s for the inner.
    assert got["storage"]["self_s"] == pytest.approx(3.5)
    assert got["storage"]["calls"] == 2
    assert got["late"]["self_s"] == pytest.approx(2.5)


def _repro_attributes():
    return {
        (name, key): id(value)
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
        for key, value in vars(module).items()
    }


def _class_attributes():
    import importlib
    out = {}
    for _layer, module, qualname in TARGETS:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(module, qualname)] = id(vars(owner)[attr])
    return out


def test_traced_run_restores_every_attribute():
    from perf.child import run_pass
    from perf.workloads import WORKLOAD_CLASSES

    tracer = Tracer()
    wl = WORKLOAD_CLASSES["func_stage"](0, True, tracer)
    run_pass(wl)  # warm-up: lazy imports done before the snapshot
    modules_before, classes_before = _repro_attributes(), _class_attributes()

    import repro.core.codegen as codegen
    import repro.core.plugin_cloud as plugin
    import repro.perfmodel.compression as compression
    original = compression.gzip_compress
    assert plugin.gzip_compress is original and codegen.gzip_compress is original

    with tracer.installed():
        # Replaced where it is defined *and* where it was imported by name.
        assert compression.gzip_compress is not original
        assert plugin.gzip_compress is compression.gzip_compress
        assert codegen.gzip_compress is compression.gzip_compress
        assert compression.gzip_compress.__wrapped__ is original
    assert not tracer.active

    result = run_pass(wl, tracer=tracer)
    assert result.failed == 0
    assert _repro_attributes() == modules_before
    assert _class_attributes() == classes_before

    # The staging threads' spans hang under the client's open span.
    by_id = {s[0]: s for s in tracer.spans}
    threaded = [s for s in tracer.spans
                if s[1] == "compression" and s[7] != "MainThread"]
    assert threaded, "func_stage stages two large buffers from two threads"
    assert {by_id[s[5]][1] for s in threaded} == {"plugin.data_begin"}
    layers = self_times(tracer.spans)
    assert set(layers) <= set(LAYERS)
    assert layers["kernel"]["calls"] > 0 and layers[UNATTRIBUTED]["calls"] == 3


def test_install_twice_is_an_error_and_uninstall_is_idempotent():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    tracer.uninstall()
    assert not tracer.active
