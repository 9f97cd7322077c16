"""Job-lifecycle trace invariants, checked on the determinism sanitizer's
line capture of real DCA runs (one ``t=<time> <kind> task=<id> [...]``
line per submit, dispatch, complete, timeout, decide and accept)."""

from collections import Counter

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import DcaConfig, DcaSimulation
from repro.lint.sanitizer import _TraceLines


def run_traced(strategy, **overrides):
    defaults = dict(strategy=strategy, tasks=20, nodes=10, reliability=0.7, seed=2)
    defaults.update(overrides)
    trace = _TraceLines()
    report = DcaSimulation(DcaConfig(**defaults), recorder=trace).run()
    return report, trace.lines


def kind_of(line):
    return line.split(" ")[1]


def detail_of(line):
    body = line[line.index("[") + 1 : -1]
    return dict(item.split("=", 1) for item in body.split(",")) if body else {}


def timeline(lines, task_id):
    return [line for line in lines if f" task={task_id} " in line]


class TestInstrumentedRuns:
    def test_every_task_has_submit_and_accept(self):
        report, lines = run_traced(TraditionalRedundancy(3))
        counts = Counter(kind_of(line) for line in lines)
        assert counts["submit"] == 20
        assert counts["accept"] == 20

    def test_dispatch_count_matches_server_counter(self):
        report, lines = run_traced(IterativeRedundancy(3))
        counts = Counter(kind_of(line) for line in lines)
        assert counts["dispatch"] == report.total_jobs_dispatched

    def test_complete_plus_timeout_equals_jobs_used(self):
        report, lines = run_traced(
            TraditionalRedundancy(3), unresponsive_prob=0.2, timeout=5.0
        )
        counts = Counter(kind_of(line) for line in lines)
        assert counts["timeout"] > 0
        assert counts["complete"] + counts["timeout"] == report.total_jobs
        assert counts["timeout"] == report.jobs_timed_out

    def test_timeline_is_ordered_and_ends_with_accept(self):
        report, lines = run_traced(IterativeRedundancy(2))
        events = timeline(lines, 5)
        assert kind_of(events[0]) == "submit"
        assert kind_of(events[-1]) == "accept"
        times = [float(line.split(" ")[0][len("t="):]) for line in events]
        assert times == sorted(times)

    def test_multi_wave_task_has_decide_events(self):
        report, lines = run_traced(IterativeRedundancy(3), tasks=60)
        multi_wave = [r for r in report.records if r.waves > 1]
        assert multi_wave, "expected at least one multi-wave task at r=0.7"
        events = timeline(lines, multi_wave[0].task_id)
        assert any(kind_of(line) == "decide" for line in events)

    def test_accept_detail_matches_record(self):
        report, lines = run_traced(IterativeRedundancy(2))
        for record in report.records[:5]:
            accepts = [
                line
                for line in timeline(lines, record.task_id)
                if kind_of(line) == "accept"
            ]
            assert len(accepts) == 1
            detail = detail_of(accepts[0])
            assert detail["jobs"] == repr(record.jobs_used)
            assert detail["waves"] == repr(record.waves)
