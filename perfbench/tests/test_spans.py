"""Span bookkeeping: parents, self times and the switch between rounds."""

import threading

from spans import Tracer


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    # Parent 0-10 s; children 1-4 and 3-6 overlap (as threads do) and
    # cover 1-6, so the parent's self time is 5 s.
    t.spans = [(1, "p", 0.0, 10.0, None, "a"), (2, "c", 1.0, 4.0, 1, "a"),
               (3, "c", 3.0, 6.0, 1, "a")]
    selfs = t.self_times()
    assert selfs["p"] == 5.0
    assert selfs["c"] == 6.0


def test_wrapped_calls_record_parent_and_case():
    t = Tracer()

    def inner(x):
        return x + 1

    inner_traced = t.wrap(inner, "inner")
    outer = t.wrap(lambda case: inner_traced(1), "pipeline.process_case", case_of=lambda a: a[0])
    assert outer("case7") == 2
    (sid_in, name_in, *_rest_in, parent_in, case_in), (sid_out, name_out, *_r, parent_out,
                                                       case_out) = t.spans
    assert (name_in, name_out) == ("inner", "pipeline.process_case")
    assert parent_in == sid_out and parent_out is None
    assert case_in == case_out == "case7"


def test_threads_take_the_ambient_span_as_parent():
    t = Tracer()
    child = t.wrap(lambda: None, "child")

    def run_all():
        worker = threading.Thread(target=child)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap(run_all, "pipeline.run_manifest", ambient=True)()
    by_name = {s[1]: s for s in t.spans}
    assert by_name["child"][4] == by_name["pipeline.run_manifest"][0]


def test_disabled_tracer_records_nothing():
    t = Tracer()
    t.enabled = False
    assert t.wrap(lambda: 3, "x")() == 3
    assert t.spans == []
