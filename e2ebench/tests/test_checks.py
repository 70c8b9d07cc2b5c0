"""The benchmark counts wrong, degraded, unchecked, errored and timed-out
requests as failed.  Run with ``python3 -m pytest e2ebench/tests``."""

from types import SimpleNamespace

from e2ebench import checks

GOOD = "HAI 0\nHAI 1\n"


def spmd(output, degraded=False):
    return SimpleNamespace(output=output, degraded=degraded,
                           degraded_reason="engine 'c' unavailable" if degraded else None)


def job(output=GOOD, *, state="done", checker="pass", degraded=False):
    row = {"output": output, "checker": checker}
    if degraded:
        row.update(degraded=True, degraded_reason="ran fallback engine 'vm'")
    return {"state": state, "result": row, "error": "boom" if state != "done" else None}


def test_planted_corruption_and_degraded_rows_are_counted():
    tally = checks.Tally()
    tally.record("ok", checks.judge_spmd(spmd(GOOD), expect=GOOD))
    tally.record("corrupt", checks.judge_spmd(spmd("HAI 0\nHAI 2\n"), expect=GOOD))
    tally.record("degraded", checks.judge_spmd(spmd(GOOD, degraded=True), expect=GOOD))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert any("differs from the oracle" in p for p in tally.problems)
    assert any("degraded" in p for p in tally.problems)


def test_service_jobs_fail_on_checker_degraded_error_or_wrong_output():
    assert checks.judge_job(job(), expect=GOOD) == []
    assert checks.judge_job(job(checker=["PE 1: wrong sum"]), expect=GOOD)
    assert checks.judge_job(job(degraded=True), expect=GOOD)
    assert checks.judge_job(job(state="error"), expect=GOOD)
    assert checks.judge_job(job("HAI 0\n"), expect=GOOD)
    # No oracle for this row: the server-side checker alone decides.
    assert checks.judge_job(job("anything"), expect=None) == []


def test_cold_requests_fail_on_timeout_exit_status_or_output():
    assert checks.judge_process(0, GOOD, "", expect=GOOD) == []
    assert checks.judge_process(None, "", "", expect=GOOD) == ["timed out"]
    assert "exit status 1" in checks.judge_process(1, "", "E001: oops\n", expect=GOOD)[0]
    assert checks.judge_process(0, GOOD + "x", "", expect=GOOD)


def test_tally_keeps_only_the_first_problems():
    tally = checks.Tally()
    for i in range(checks.MAX_KEPT + 5):
        tally.record(f"r{i}", ["bad"])
    assert tally.failed == checks.MAX_KEPT + 5
    assert len(tally.problems) == checks.MAX_KEPT
