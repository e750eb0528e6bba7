import json

import jsonschema
import pytest

from sgw.constructions import make
from sgw.errors import GuardExceededError
from sgw.schemas import REPORT_SCHEMA
from sgw.verify import (
    CYCLE_TABLE,
    Report,
    ReportEntry,
    _checked_chi,
    verify_cycle_table,
    verify_grid_fig1c,
    verify_k18,
    verify_k4_classes,
    verify_kpq,
    verify_uc_bc_gap,
)


def entry(passed=True):
    return ReportEntry(
        claim="c", parameters={"x": 1}, expected=1,
        computed=1 if passed else 2, passed=passed, elapsed=0.01,
    )


class TestReport:
    def test_summary_and_passed(self):
        r = Report("demo", [entry(True), entry(False)])
        assert not r.passed
        assert r.summary() == {"total": 2, "passed": 1, "failed": 1}

    def test_json_matches_schema(self):
        r = Report("demo", [entry(True), entry(False)])
        payload = json.loads(r.to_json())
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_text_marks_failures(self):
        text = Report("demo", [entry(False)]).to_text()
        assert "report: demo" in text and "[FAIL]" in text
        assert "1" in text and "0/1 passed" in text


class TestSuites:
    def test_k4_classes(self):
        report = verify_k4_classes()
        assert report.passed
        assert report.entries[0].computed == 3

    def test_grid_fig1c(self):
        report = verify_grid_fig1c()
        assert report.passed
        claims = [e.claim for e in report.entries]
        assert len(claims) == 3

    def test_kpq_smallest(self):
        report = verify_kpq(2, 2)
        assert report.passed
        assert report.entries[0].computed == 2  # ceil(4/2)

    def test_kpq_order_seven(self):
        # K2+ box K7- needs an order-7 target: the largest enumerated
        report = verify_kpq(2, 7)
        assert report.passed
        last = report.entries[-1]
        assert last.parameters == {"p": 2, "q": 7}
        assert last.computed == 7

    def test_cycle_table_smallest_lengths(self):
        report = verify_cycle_table(4)
        assert report.passed
        # only lengths 3 and 4 fit, one pair per class pair
        assert len(report.entries) == 16
        jsonschema.validate(json.loads(report.to_json()), REPORT_SCHEMA)

    def test_uc_bc_gap_smallest(self):
        report = verify_uc_bc_gap(3, 3)
        assert report.passed

    def test_cycle_table_values_match_frozen_table(self):
        assert len(CYCLE_TABLE) == 16
        assert sorted(set(CYCLE_TABLE.values())) == [2, 3, 4, 5]


class TestGuards:
    def test_cycle_table_guard(self):
        with pytest.raises(GuardExceededError):
            verify_cycle_table(7)
        with pytest.raises(GuardExceededError):
            verify_cycle_table(2)

    def test_kpq_guard(self):
        # too large, or selecting no entry, which would pass as "0/0"
        for max_p, max_q in ((4, 4), (1, 1), (1, 7), (7, 1), (2, 0)):
            with pytest.raises(GuardExceededError):
                verify_kpq(max_p, max_q)

    def test_uc_bc_gap_guard(self):
        for max_q, max_p in ((10, 9), (2, 2), (2, 9), (9, 2)):
            with pytest.raises(GuardExceededError):
                verify_uc_bc_gap(max_q, max_p)

    def test_k18_requires_unbounded(self):
        with pytest.raises(GuardExceededError):
            verify_k18()
        with pytest.raises(GuardExceededError):
            verify_k18(unbounded=False)

    def test_k18_unbounded_reports_an_open_interval(self):
        # the data checks out; chi stops at the underlying bound of 18,
        # past every target order, so the claim stays unverified
        data, chi = verify_k18(unbounded=True).entries
        assert data.passed and data.computed == (18, 153, 69)
        assert not chi.passed and chi.computed == "interval [18, unknown]"


class TestCheckedChi:
    def test_rejects_a_certificate_that_fails_validation(self, monkeypatch):
        g = make("UC", 4)
        assert _checked_chi(g, 4) == (4, True)
        monkeypatch.setattr("sgw.verify.validate", lambda *args: False)
        assert _checked_chi(g, 4) == (4, False)
