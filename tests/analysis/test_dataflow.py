"""The AST dataflow pass: aliasing, closure keys, opacity limits."""

import numpy as np

from repro.analysis import analyze_body


def test_direct_subscript_accesses():
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = arrays["A"][lo:hi] + 1.0

    access = analyze_body(body, "i")
    assert access.reads == {"A"}
    assert access.writes == {"C"}
    assert access.complete


def test_alias_chain_through_numpy_views():
    def body(lo, hi, arrays, scalars):
        c = arrays["C"]
        row = np.asarray(c[lo:hi]).reshape(-1)
        row[:] = 0.0

    access = analyze_body(body, "i")
    assert access.writes == {"C"}
    assert "C" not in access.reads  # pure alias creation is not a read
    assert access.complete


def test_augmented_assignment_reads_and_writes():
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] += arrays["A"][lo:hi]

    access = analyze_body(body, "i")
    assert access.reads == {"A", "C"}
    assert access.writes == {"C"}


def test_closure_resolved_dynamic_keys():
    out_name = "C2"

    def make(in_name):
        def body(lo, hi, arrays, scalars):
            arrays[out_name][lo:hi] = arrays[in_name][lo:hi]
        return body

    access = analyze_body(make("A2"), "i")
    assert access.reads == {"A2"}
    assert access.writes == {"C2"}
    assert access.complete


def test_scalar_reads_are_tracked_separately():
    def body(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        arrays["C"][lo * n:hi * n] = float(scalars["alpha"])

    access = analyze_body(body, "i")
    assert access.scalar_reads == {"N", "alpha"}
    assert access.reads == set()


def test_opaque_call_makes_summary_incomplete_but_keeps_read():
    def helper(x):
        x[:] = 1  # invisible to the analyzer

    def body(lo, hi, arrays, scalars):
        c = arrays["C"]
        helper(c)

    access = analyze_body(body, "i")
    assert "C" in access.reads  # conservative: the callee sees the buffer
    assert not access.complete
    assert any("opaque call helper()" in reason for reason in access.limits)


def test_escaping_arrays_mapping_is_a_limit():
    def consume(mapping):
        pass

    def body(lo, hi, arrays, scalars):
        consume(arrays)

    access = analyze_body(body, "i")
    assert not access.complete
    assert any("opaquely" in reason for reason in access.limits)


def test_readonly_numpy_calls_stay_complete():
    def body(lo, hi, arrays, scalars):
        a = arrays["A"]
        arrays["C"][lo:hi] = np.sqrt(np.abs(a[lo:hi]))

    access = analyze_body(body, "i")
    assert access.reads == {"A"}
    assert access.writes == {"C"}
    assert access.complete


def test_np_clip_is_readonly_and_complete():
    def body(lo, hi, arrays, scalars):
        a = arrays["A"]
        arrays["C"][lo:hi] = np.clip(a[lo:hi], 0.0, 1.0)

    access = analyze_body(body, "i")
    assert access.reads == {"A"}
    assert access.writes == {"C"}
    assert access.complete


def test_np_take_is_readonly_and_complete():
    def body(lo, hi, arrays, scalars):
        idx = arrays["I"]
        arrays["C"][lo:hi] = np.take(arrays["A"], idx[lo:hi])

    access = analyze_body(body, "i")
    assert access.reads == {"A", "I"}
    assert access.writes == {"C"}
    assert access.complete


def test_clip_and_take_methods_are_readonly():
    def body(lo, hi, arrays, scalars):
        a = arrays["A"]
        arrays["C"][lo:hi] = a[lo:hi].clip(0.0, 1.0) + a.take(lo)

    access = analyze_body(body, "i")
    assert access.reads == {"A"}
    assert access.writes == {"C"}
    assert access.complete


def test_transpose_method_aliases_the_receiver():
    def body(lo, hi, arrays, scalars):
        t = arrays["C"].transpose()
        t[lo:hi] = 0.0

    access = analyze_body(body, "i")
    assert access.writes == {"C"}
    assert access.complete


def test_np_transpose_aliases_the_first_argument():
    def body(lo, hi, arrays, scalars):
        t = np.transpose(arrays["C"])
        t[lo:hi] = 0.0

    access = analyze_body(body, "i")
    assert access.writes == {"C"}
    assert access.complete


def test_slice_of_slice_aliasing_reaches_the_root():
    def body(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        row = arrays["C"][lo * n:hi * n]
        seg = row[:n]
        seg[:] = arrays["A"][lo * n:hi * n][:n]

    access = analyze_body(body, "i")
    assert access.reads == {"A"}
    assert access.writes == {"C"}
    assert access.complete


def test_out_keyword_records_a_write():
    def body(lo, hi, arrays, scalars):
        a = arrays["A"]
        np.clip(a[lo:hi], 0.0, 1.0, out=arrays["C"][lo:hi])

    access = analyze_body(body, "i")
    assert "A" in access.reads
    assert "C" in access.writes
    assert access.complete


def test_unavailable_source_degrades_gracefully():
    access = analyze_body(len, "i")
    assert not access.source_available
    assert not access.complete
    assert access.reads == frozenset()


def test_custom_parameter_names_are_respected():
    def body(lo, hi, bufs, env):
        bufs["C"][lo:hi] = env["N"]

    access = analyze_body(body, "i")
    assert access.writes == {"C"}
    assert access.scalar_reads == {"N"}
