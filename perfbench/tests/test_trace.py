"""Span recorder, self time on a hand-built tree, Chrome-trace export."""
import json

from perfbench.trace import (
    Recorder, Span, chrome_trace, format_self_times, self_times,
    write_chrome_trace,
)


def _tree():
    # step [0, 10]
    #   compile [1, 3]
    #   execute [3, 9]
    #     leaf [4, 6]
    #     leaf [6, 7]
    return [
        Span(0, None, "step", 0.0, 10.0),
        Span(1, 0, "compile", 1.0, 3.0),
        Span(2, 0, "execute", 3.0, 9.0),
        Span(3, 2, "leaf", 4.0, 6.0),
        Span(4, 2, "leaf", 6.0, 7.0),
    ]


def test_self_time_is_span_minus_direct_children():
    t = self_times(_tree())
    assert t["step"]["self_s"] == 10.0 - (2.0 + 6.0)
    assert t["compile"]["self_s"] == 2.0
    assert t["execute"]["self_s"] == 6.0 - 3.0
    assert t["leaf"] == {"count": 2, "total_s": 3.0, "self_s": 3.0,
                         "self_share": 0.3}
    # self times partition the root span exactly
    assert sum(r["self_s"] for r in t.values()) == 10.0
    assert abs(sum(r["self_share"] for r in t.values()) - 1.0) < 1e-12
    assert "leaf" in format_self_times(t)


def test_recorder_nests_by_with_block():
    rec = Recorder()
    with rec.span("step", k=3) as outer:
        with rec.span("compile"):
            pass
        with rec.span("execute") as ex:
            with rec.span("leaf"):
                pass
    with rec.span("step"):
        pass
    by_name = {s.name: s for s in rec.spans[:4]}
    assert outer.parent is None and outer.args == {"k": 3}
    assert by_name["compile"].parent == outer.id
    assert by_name["leaf"].parent == ex.id
    assert rec.spans[4].parent is None
    assert all(s.end >= s.start > 0 for s in rec.spans)
    assert outer.duration >= by_name["compile"].duration + ex.duration


def test_chrome_trace_is_complete_events_in_microseconds(tmp_path):
    doc = chrome_trace(_tree(), process="p")
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["step", "compile", "execute", "leaf", "leaf"]
    assert events[2]["ts"] == 3.0e6 and events[2]["dur"] == 6.0e6
    assert events[3]["args"]["parent"] == 2
    write_chrome_trace(tmp_path / "t.json", _tree())
    assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]
