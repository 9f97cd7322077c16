# reprolint: disable-file=RL003 -- byte-exact equality is the property under test
"""Telemetry observes, never perturbs: the subsystem's core contract.

Three pins:

* recording on vs off leaves the same-seed DCA trace byte-identical
  (checked against the pre-optimization golden digests);
* replicate metrics and fingerprints are unchanged by telemetry;
* position-merged telemetry is byte-identical for ``jobs=4`` and
  ``jobs=1`` runs of the same specs.

The replicate pins hold on both engines.
"""

import copy
import hashlib
import json

import pytest

from repro.core import IterativeRedundancy, TraditionalRedundancy
from repro.dca import ENGINES, DcaConfig
from repro.dca.simulation import DcaSimulation
from repro.lint.sanitizer import _TraceLines, trace_fingerprint
from repro.obs import TeeRecorder, TelemetryRecorder, TelemetrySink, clear_sink, install_sink
from repro.parallel import (
    dca_replicate_specs,
    merge_telemetry,
    run_dca_replicates,
)

#: Mirrors two goldens from tests/lint/test_golden_fingerprints.py; if
#: those digests are ever (deliberately) refreshed, refresh these too.
GOLDENS = [
    (
        lambda: IterativeRedundancy(3),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "ed98c36d14c2ca0560fd760e9298d78fac3364cc6b48ba30cac21444e7991c6e",
    ),
    (
        lambda: TraditionalRedundancy(5),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "35b127eeeaa038f783440ea407385028a6ca47f5f53b396119d3c39e8047eef8",
    ),
]


def _digest_with(factory, config_kwargs, recorder):
    config = DcaConfig(strategy=factory(), **config_kwargs)
    trace = _TraceLines()
    DcaSimulation(copy.deepcopy(config), recorder=TeeRecorder(recorder, trace)).run()
    return hashlib.sha256(trace_fingerprint(trace.lines).encode()).hexdigest()


@pytest.mark.parametrize("factory,config_kwargs,expected", GOLDENS)
def test_golden_trace_identical_with_recorder_on_and_off(
    factory, config_kwargs, expected
):
    assert _digest_with(factory, config_kwargs, None) == expected
    assert _digest_with(factory, config_kwargs, TelemetryRecorder()) == expected


def _specs(engine, telemetry=False):
    return dca_replicate_specs(
        lambda: IterativeRedundancy(3),
        tasks=40,
        nodes=20,
        reliability=0.7,
        replications=4,
        seed=77,
        telemetry=telemetry,
        engine=engine,
    )


def test_telemetry_flag_does_not_change_fingerprints():
    for engine in ENGINES:
        plain = run_dca_replicates(_specs(engine, telemetry=False), jobs=1)
        recorded = run_dca_replicates(_specs(engine, telemetry=True), jobs=1)
        assert [e.fingerprint for e in plain] == [e.fingerprint for e in recorded], engine
        assert all(e.telemetry is None for e in plain)
        assert all(e.telemetry is not None for e in recorded)


def test_parallel_merged_telemetry_matches_serial_bytes():
    for engine in ENGINES:
        serial = merge_telemetry(run_dca_replicates(_specs(engine, telemetry=True), jobs=1))
        fanned = merge_telemetry(run_dca_replicates(_specs(engine, telemetry=True), jobs=4))
        assert json.dumps(serial, sort_keys=True) == json.dumps(fanned, sort_keys=True), engine


def test_merge_telemetry_none_without_payloads():
    for engine in ENGINES:
        assert merge_telemetry(run_dca_replicates(_specs(engine), jobs=1)) is None, engine


def test_installed_sink_upgrades_specs_and_collects_runs():
    for engine in ENGINES:
        sink = TelemetrySink()
        install_sink(sink)
        try:
            envelopes = run_dca_replicates(_specs(engine), jobs=1)
        finally:
            clear_sink()
        assert all(e.telemetry is not None for e in envelopes)
        (run,) = sink.runs
        assert run["label"] == "iterative(d=3) x4"
        assert run["metrics"]["dca.accept"]["series"][0]["value"] == 4 * 40
        capture = sink.capture({"label": "t"})
        assert capture.runs and capture.spans, engine
