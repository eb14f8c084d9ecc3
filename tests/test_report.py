"""Unit tests for `report.Report`: the row rules of its text and its document,
nesting, failures, and the checklist line."""

import pytest

from eulerlab.report import ASSUMED, FAIL, PASS, Report, checklist


def test_row_kinds():
    report = Report([
        ("both", "both rows", 3),
        ("doc_only", None, [1, 2]),
        (None, "text only", "shown"),
        (None, None, "  a raw line: kept as it stands"),
    ])
    assert report.to_doc() == {"both": 3, "doc_only": [1, 2]}
    assert report.to_text() == "both rows: 3\ntext only: shown\n  a raw line: kept as it stands"


def test_bool_is_yes_no_in_text_and_true_false_in_document():
    report = Report([("ok", "ok", True), ("bad", "bad", False), ("count", "count", 0)])
    assert report.to_text() == "ok: yes\nbad: no\ncount: 0"
    assert report.to_doc() == {"ok": True, "bad": False, "count": 0}
    assert report["ok"] is True and report["bad"] is False


def test_nested_none_is_null_without_text():
    report = Report([("a", "a", 1), ("inner", None, None), ("b", "b", 2)])
    assert report.to_doc() == {"a": 1, "inner": None, "b": 2}
    assert report.to_text() == "a: 1\nb: 2"
    assert report.applicable


def test_nested_report_renders_where_it_stands():
    inner = Report([("x", "x", 1), ("y", None, 2)])
    report = Report([("a", "a", 0), ("inner", None, inner), ("b", "b", 3)])
    assert report.to_doc() == {"a": 0, "inner": {"x": 1, "y": 2}, "b": 3}
    assert report.to_text() == "a: 0\nx: 1\nb: 3"
    assert report["inner"] == {"x": 1, "y": 2}


def test_nested_failure_reaches_the_parent():
    inner = Report([("x", "x", 1)], "hypothesis failure: inner")
    report = Report([("inner", None, inner)])
    assert report.failure == "hypothesis failure: inner"
    assert not report.applicable
    passing = Report([("inner", None, Report([("x", "x", 1)]))])
    assert passing.failure is None and passing.applicable


def test_own_failure_takes_precedence_over_a_nested_one():
    inner = Report([("x", "x", 1)], "hypothesis failure: inner")
    report = Report([("inner", None, inner)], "hypothesis failure: outer")
    assert report.failure == "hypothesis failure: outer"


def test_applicable_and_lookup():
    report = Report([("bound", None, 4), (None, "bound", 4)])
    assert report.applicable and report.failure is None
    assert report["bound"] == 4
    with pytest.raises(KeyError):
        report["missing"]
    refused = Report([("bound", None, None)], "hypothesis failure: V^E = 0")
    assert not refused.applicable
    assert refused["bound"] is None


def test_checklist_names_the_failed_items():
    assert checklist([("a", PASS, ""), ("b", ASSUMED, "")]) is None
    assert checklist([]) is None
    items = [("a", FAIL, "why"), ("b", PASS, ""), ("c", FAIL, "")]
    assert checklist(items) == "hypothesis failure: a; c"
    assert checklist([("quotient-dimension", FAIL)]) == "hypothesis failure: quotient-dimension"
