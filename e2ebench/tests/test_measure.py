"""The timed loop measures whole passes, so every row gets the same number
of samples, and spreads the extra set-ups through it."""

import time
from types import SimpleNamespace

import pytest

from e2ebench.programs import Row
from e2ebench.workloads import Workload


class Fake(Workload):
    name = "fake"

    def __init__(self, tmp_path, fail=()):
        scope = SimpleNamespace(repo=tmp_path, out_dir=tmp_path / "out")
        super().__init__(scope, seed=7)
        self.rows = [Row(key=k, kernel=k, engine=e, executor="thread", source="", filename="")
                     for k, e in (("a", "vm"), ("b", "vm"), ("c", "c"))]
        self.fail = set(fail)
        self.setups = 0
        self.passes_done = 0

    def setup(self):
        self.setups += 1
        time.sleep(0.002)
        return 0.5

    def request(self, row):
        time.sleep(0.001)
        if self.tally.record(row.key, ["wrong"] if row.key in self.fail else []):
            row.samples.append(0.001)

    def after_pass(self):
        self.passes_done += 1

    def peak_rss_kb(self):
        return 1024


def test_every_row_gets_the_same_samples_and_setups_are_spread(tmp_path):
    wl = Fake(tmp_path)
    setups = [0.5]
    wl.measure(0.05, setups, 4)
    counts = {len(r.samples) for r in wl.rows}
    assert counts == {wl.passes_done} and wl.passes_done > 1
    assert len(setups) == 5 and wl.setups == 4
    assert wl.tally.attempted == 3 * wl.passes_done
    # set-up time is left out of the loop's wall time
    assert wl.wall < 0.05 + 0.02
    m = wl.metrics()
    assert m["requests_per_s"][0] == pytest.approx(3 * wl.passes_done / wl.wall)


def test_a_row_whose_requests_all_failed_has_no_metrics(tmp_path):
    wl = Fake(tmp_path, fail={"b"})
    wl.measure(0.01, [], 1)
    assert wl.tally.failed == wl.passes_done
    with pytest.raises(ValueError, match="rows without samples"):
        wl.metrics()
