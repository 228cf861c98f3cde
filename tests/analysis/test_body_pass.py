"""The single body pass: rules where names and windows follow different arms.

The verifier's name sets and the inference engine's windows come from one
traversal (:func:`repro.analysis.dataflow.analyze_body`).  These tests pin
the places where the two outputs deliberately differ, and that a body is
parsed once however many passes ask about it.
"""

from __future__ import annotations

import inspect

from repro.analysis import infer_region, verify_region
from repro.analysis.dataflow import analyze_body
from repro.analysis.infer import analyze_ranges
from repro.core.api import ParallelLoop, TargetRegion
from repro.workloads.polybench import _mm_first_tile


def _text(window):
    return None if window is None else f"{window[0]}:{window[1]}"


ROW = "(i*N):((i+1)*N)"


# ------------------------------------------------ statically decided branches
def _make_scaled(scale_key):
    def tile(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        row = arrays["A"][lo * n:hi * n]
        if scale_key is not None:
            row = arrays["bias"] * scalars[scale_key]
        else:
            arrays["log"][lo:hi] = 0.0
        arrays["C"][lo * n:hi * n] = row

    return tile


def test_static_branch_names_come_from_both_arms_windows_from_the_live_one():
    scaled = analyze_body(_make_scaled("alpha"), "i")
    plain = analyze_body(_make_scaled(None), "i")
    for access in (scaled, plain):
        assert access.complete
        assert "bias" in access.reads
        assert access.writes == {"C", "log"}
        assert _text(access.write_windows["C"]) == ROW
    assert scaled.scalar_reads == {"N", "alpha"}
    assert plain.scalar_reads == {"N"}
    # ``log`` is stored only where scale_key is None: a window there, a bare
    # name (no provable coverage) in the factory's other product.
    assert scaled.write_windows["log"] is None
    assert _text(plain.write_windows["log"]) == "i:(i+1)"
    # ``bias`` is loaded only where scale_key is set; the other product names
    # it without claiming which part (None: assume the whole array).
    assert plain.read_windows["bias"] is None


def test_dead_arm_does_not_rebind_what_the_live_code_sees():
    # scale_key set: the live arm rebinds ``row``, the A view is never read.
    assert analyze_body(_make_scaled("alpha"), "i").reads == {"bias"}
    # scale_key None: ``row = ...`` never runs, so the store after the
    # branch still reads A through the row view.
    plain = analyze_body(_make_scaled(None), "i")
    assert plain.reads == {"A", "bias"}
    assert _text(plain.read_windows["A"]) == ROW


def test_shipped_factory_kernel_keeps_exact_coverage_either_way():
    scaled = analyze_body(_mm_first_tile("tmp", "A", "B", "alpha"), "i")
    plain = analyze_body(_mm_first_tile("E", "A", "B", None), "i")
    assert scaled.scalar_reads == {"N", "alpha"}
    assert plain.scalar_reads == {"N"}
    assert _text(scaled.write_windows["tmp"]) == ROW
    assert _text(plain.write_windows["E"]) == ROW
    assert scaled.complete and plain.complete


def test_runtime_branch_store_has_no_provable_coverage():
    def body(lo, hi, arrays, scalars):
        if scalars["flag"]:
            arrays["C"][lo:hi] = 1.0

    access = analyze_body(body, "i")
    assert access.complete
    assert access.writes == {"C"}
    assert access.write_windows == {"C": None}


# ------------------------------------------------------------ analysis limits
def test_unresolved_array_key_is_a_limit_and_voids_every_window():
    def body(lo, hi, arrays, scalars):
        k = "A" if lo else "B"
        arrays["C"][lo:hi] = arrays[k][lo:hi] + arrays["D"][lo:hi]

    access = analyze_body(body, "i")
    assert access.limits == ("array key 'k' is not a resolvable constant",)
    assert not access.complete
    assert access.reads == {"D"} and access.writes == {"C"}
    assert access.read_windows == {"D": None}
    assert access.write_windows == {"C": None}


# -------------------------------------------------------------- reshaped views
def test_store_through_a_reshaped_view_is_a_write_of_unknown_coverage():
    def body(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        block = arrays["C"][lo * n:hi * n].reshape(hi - lo, n)
        block[0, :] = arrays["A"][lo * n:hi * n].reshape(hi - lo, n)[0]

    access = analyze_body(body, "i")
    assert access.complete
    assert access.writes == {"C"}
    assert access.write_windows == {"C": None}
    # the read is merely *contained* in the row: still a sound staging window
    assert _text(access.read_windows["A"]) == ROW


# ------------------------------------------------------------ tuple assignment
def test_tuple_assignment_binds_sizes_like_single_assignments():
    def body(lo, hi, arrays, scalars):
        n, m = int(scalars["N"]), 2
        arrays["C"][lo * n:hi * n] = arrays["A"][lo * m:hi * m]

    access = analyze_body(body, "i")
    assert _text(access.write_windows["C"]) == ROW
    assert _text(access.read_windows["A"]) == "(i*2):((i+1)*2)"


def test_swapping_aliases_reads_both_and_drops_both():
    def body(lo, hi, arrays, scalars):
        a = arrays["A"][lo:hi]
        b = arrays["B"]
        a, b = b, a
        b[0] = 1.0  # through a dropped alias: not attributed to any array
        arrays["C"][lo:hi] = 0.0

    access = analyze_body(body, "i")
    assert access.complete
    assert access.reads == {"A", "B"}  # the right-hand side loads both views
    assert access.writes == {"C"}
    # evaluated under the old bindings: ``a`` was still the [lo, hi) view
    assert _text(access.read_windows["A"]) == "i:(i+1)"
    assert access.read_windows["B"] is None


# ------------------------------------------------------------- parsed once
def _two_loop_region():
    def first(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        arrays["T"][lo * n:hi * n] = 2.0 * arrays["A"][lo * n:hi * n]

    def second(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        arrays["C"][lo * n:hi * n] = arrays["T"][lo * n:hi * n] + 1.0

    def loop(body, reads, writes):
        return ParallelLoop(pragma="omp parallel for", loop_var="i",
                            trip_count="N", reads=reads, writes=writes, body=body)

    region = TargetRegion(
        name="two_loops",
        pragmas=["omp target device(CLOUD)",
                 "omp map(tofrom: A[0:N*N]) map(from: C[0:N*N])"],
        loops=[loop(first, ("A",), ("T",)), loop(second, ("T",), ("C",)),
               loop(first, ("A",), ("T",))],
        locals_={"T": "N*N"},
    )
    return region, [first, second]


def test_verifier_then_inference_parse_each_body_once(monkeypatch):
    region, bodies = _two_loop_region()
    parsed = []
    real_getsource = inspect.getsource

    def counting_getsource(obj):
        parsed.append(obj)
        return real_getsource(obj)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    verify_region(region, {"N": 8})
    report = infer_region(region, {"N": 8})
    assert report.changed  # inference really ran: A narrows, partitions appear
    assert parsed == bodies


def test_same_summary_object_serves_verifier_and_inference():
    region, (first, _) = _two_loop_region()
    assert analyze_ranges(region.loops[0]) is analyze_body(first, "i")
    assert analyze_ranges(region.loops[2]) is analyze_body(first, "i")
