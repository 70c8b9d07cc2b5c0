"""Row statistics, span self-time, and the comparison verdicts."""

import json
import math

import pytest

from e2ebench import stats
from e2ebench.compare import verdict
from e2ebench.spans import Spans


def test_p50_is_the_geomean_of_row_medians_and_tail_pools_row_ratios():
    rows = {"a": [1.0] * 10 + [3.0], "b": [4.0] * 10 + [8.0]}
    s = stats.row_summary(rows)
    assert s["p50"] == pytest.approx(2.0)
    # 22 ratios to their row medians: twenty 1.0, then 2.0 and 3.0; the
    # highest with ten beyond it is the 12th, a 1.0.
    assert s["tail"] == pytest.approx(2.0)
    assert (s["samples"], s["fewest_row_samples"]) == (22, 11)


def test_tail_has_ten_samples_beyond_it():
    s = stats.row_summary({"a": [float(i) for i in range(1, 101)]})
    assert s["tail"] == pytest.approx(90.0)
    assert s["tail_percentile"] == 90.0


def test_thin_rows_normalise_to_p50():
    rows = {"a": [1.0, 1.0], "b": [4.0] * 9 + [8.0, 8.0]}
    s = stats.row_summary(rows, normalise="p50")
    assert s["p50"] == pytest.approx(2.0)
    # 13 ratios to p50: 0.5, 0.5, 2 x9, 4, 4; the third-smallest has ten beyond.
    assert s["tail"] == pytest.approx(4.0)
    assert s["tail_percentile"] == pytest.approx(100 * 3 / 13, abs=0.01)


def test_empty_rows_are_refused():
    with pytest.raises(ValueError):
        stats.row_summary({"a": [1.0], "b": []})


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_subtracts_covered_child_time_once(tmp_path):
    spans = Spans()
    with spans.span("service") as parent:
        pass
    parent.start, parent.end = 0.0, 10.0
    spans.add("service.queue", 1.0, 4.0, parent)
    spans.add("service.exec", 3.0, 6.0, parent)  # overlaps the queue span
    assert spans.self_times("service") == [pytest.approx(5.0)]
    out = tmp_path / "trace.json"
    spans.export_chrome(out)
    events = json.loads(out.read_text())["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert names == {"service", "service.queue", "service.exec"}
    child = next(e for e in events if e["name"] == "service.exec")
    assert child["args"]["parent"] == parent.sid and child["args"]["request"] == parent.rid


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(parent, faster, True, 0.1, 0, 0)["verdict"] == "improved"
    assert verdict(parent, faster, True, 0.1, 0, 3)["verdict"] != "improved"
    assert verdict(parent, slower, True, 0.1, 0, 0)["verdict"] == "regressed"
    assert verdict(parent, noisy, True, 0.1, 0, 0)["verdict"] == "unresolved"
    assert verdict(parent, list(parent), True, 0.1, 0, 0)["verdict"] == "no worse"
    assert verdict(parent, list(parent), True, 0.1, 0, 0)["win_share"] == 0.0
    assert math.isclose(verdict(parent, slower, False, 0.1, 0, 0)["win_share"], 1.0)
