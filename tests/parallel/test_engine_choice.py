"""One engine choice on the replicate and shard paths.

The spec builders check ``engine=`` against the config in the parent
process, before any worker starts: an unknown name is a ``ValueError``,
and a config outside the columnar regime is ``ColumnarUnsupported`` with
a message that names the way out.  The replicate path defaults to the
columnar engine, and Figure 6 pins the DES.
"""

import pytest

from repro.core import CredibilityManager, CredibilityStrategy, IterativeRedundancy
from repro.dca import (
    ENGINES,
    ColumnarUnsupported,
    DcaConfig,
    DcaReport,
    NonColludingFailures,
    run_dca,
)
from repro.experiments import figure6
from repro.experiments.common import replicate_dca
from repro.parallel import dca_replicate_specs, shard_specs

SMALL = dict(tasks=20, nodes=10, reliability=0.7, seed=3)


def _replicate_specs(factory, **kwargs):
    return dca_replicate_specs(factory, replications=2, **SMALL, **kwargs)


def _shard_specs(factory, **kwargs):
    return shard_specs(factory, shards=2, **SMALL, **kwargs)


BUILDERS = [
    pytest.param(_replicate_specs, id="replicate"),
    pytest.param(_shard_specs, id="shard"),
]


@pytest.mark.parametrize("build", BUILDERS)
def test_unknown_engine_is_a_value_error(build):
    with pytest.raises(ValueError, match="unknown engine 'quantum'"):
        build(lambda: IterativeRedundancy(2), engine="quantum")


@pytest.mark.parametrize("build", BUILDERS)
def test_node_aware_strategy_rejected_on_columnar(build):
    with pytest.raises(ColumnarUnsupported, match='node-aware.*engine="des"'):
        build(lambda: CredibilityStrategy(CredibilityManager()))


@pytest.mark.parametrize("build", BUILDERS)
def test_non_binary_failures_rejected_on_columnar(build):
    with pytest.raises(ColumnarUnsupported, match='colluding.*engine="des"'):
        build(
            lambda: IterativeRedundancy(2),
            failure_model=NonColludingFailures(value_space=8),
        )


@pytest.mark.parametrize("build", BUILDERS)
def test_des_accepts_what_columnar_rejects(build):
    specs = build(lambda: CredibilityStrategy(CredibilityManager()), engine="des")
    assert {spec.engine for spec in specs} == {"des"}


def test_replicate_path_defaults_to_columnar():
    assert {spec.engine for spec in _replicate_specs(lambda: IterativeRedundancy(2))} == {
        "columnar"
    }


def test_replicate_dca_rejects_before_running():
    with pytest.raises(ColumnarUnsupported):
        replicate_dca(
            lambda: CredibilityStrategy(CredibilityManager()), replications=1, **SMALL
        )


def test_run_dca_front_door():
    config = DcaConfig(strategy=IterativeRedundancy(2), **SMALL)
    assert isinstance(run_dca(config), DcaReport)
    with pytest.raises(ValueError, match="choose from"):
        run_dca(config, engine="quantum")


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_returns_a_dca_report(engine):
    config = DcaConfig(strategy=IterativeRedundancy(2), spot_check_rate=0.1, **SMALL)
    report = run_dca(config, engine=engine)
    assert isinstance(report, DcaReport)
    assert "iterative" in report.summary()
    lo, hi = report.reliability_confidence_interval()
    assert 0.0 <= lo <= report.system_reliability <= hi <= 1.0
    assert report.spot_checks > 0
    assert report.total_jobs_dispatched >= report.total_jobs + report.spot_checks


def test_figure6_runs_on_the_des(monkeypatch):
    seen = []
    real = figure6.run_dca_replicates

    def spy(specs, **kwargs):
        seen.extend(spec.engine for spec in specs)
        return real(specs, **kwargs)

    monkeypatch.setattr(figure6, "run_dca_replicates", spy)
    figure6.compute(ks=(3,), ds=(1,), tasks=20, nodes=10, replications=1)
    assert seen and set(seen) == {"des"}
