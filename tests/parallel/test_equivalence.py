# reprolint: disable-file=RL003 -- the point of this suite is byte-exact serial/parallel equality
"""Determinism equivalence: ``jobs=4`` must be indistinguishable from
``jobs=1`` for every technique on both engines, per replicate and in
aggregate, and a crashing worker must surface a clear error naming the
failed item's seed -- in every runner that fans out through the shared
skeleton."""

from dataclasses import replace

import pytest

from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.dca import ENGINES
from repro.parallel import (
    ReplicateError,
    VolunteerProblemSpec,
    aggregate_metrics,
    combined_fingerprint,
    dca_replicate_specs,
    run_dca_replicates,
    run_dca_shards,
    run_volunteer_problems,
    shard_specs,
)
from repro.volunteer import PlanetLabTestbed

SWEEP = [
    ("IR", lambda: IterativeRedundancy(2)),
    ("PR", lambda: ProgressiveRedundancy(5)),
    ("TR", lambda: TraditionalRedundancy(3)),
]

SMALL = dict(tasks=120, nodes=60, reliability=0.7, replications=3, seed=9)

#: Every technique on every engine; the DES cases keep their bare ids.
ENGINE_SWEEP = [
    pytest.param(factory, engine, id=name if engine == "des" else f"{name}-{engine}")
    for name, factory in SWEEP
    for engine in ENGINES
]


@pytest.mark.parametrize("factory,engine", ENGINE_SWEEP)
def test_parallel_equals_serial(factory, engine):
    serial = run_dca_replicates(dca_replicate_specs(factory, engine=engine, **SMALL), jobs=1)
    fanned = run_dca_replicates(dca_replicate_specs(factory, engine=engine, **SMALL), jobs=4)
    # Same seeds in the same order...
    assert [e.seed for e in serial] == [e.seed for e in fanned]
    # ...identical per-replicate metrics and fingerprints...
    assert [e.metrics for e in serial] == [e.metrics for e in fanned]
    assert combined_fingerprint(serial) == combined_fingerprint(fanned)
    # ...and identical aggregates.
    assert aggregate_metrics(serial) == aggregate_metrics(fanned)


def test_parallel_equals_serial_with_tiny_chunks():
    factory = SWEEP[0][1]
    for engine in ENGINES:
        serial = run_dca_replicates(
            dca_replicate_specs(factory, engine=engine, **SMALL), jobs=1
        )
        fanned = run_dca_replicates(
            dca_replicate_specs(factory, engine=engine, **SMALL), jobs=4, chunk_size=1
        )
        assert combined_fingerprint(serial) == combined_fingerprint(fanned), engine


class ExplodingStrategy(IterativeRedundancy):
    """Picklable strategy that detonates inside the worker process."""

    def decide(self, vote):
        raise RuntimeError("injected replicate failure")


def _replicate_specs():
    return dca_replicate_specs(
        lambda: IterativeRedundancy(2),
        tasks=10,
        nodes=10,
        reliability=0.7,
        replications=3,
        seed=5,
    )


def _shard_specs():
    return shard_specs(
        lambda: IterativeRedundancy(2),
        tasks=30,
        nodes=12,
        reliability=0.7,
        shards=3,
        seed=5,
        engine="des",  # the columnar engine never calls decide()
    )


def _volunteer_specs():
    testbed = PlanetLabTestbed(nodes=20)
    return [
        VolunteerProblemSpec(
            seed=5_000 + problem,
            strategy=IterativeRedundancy(2),
            testbed=testbed,
            sat_vars=6,
            tasks=8,
        )
        for problem in range(3)
    ]


RUNNERS = [
    ("replicate", _replicate_specs, run_dca_replicates),
    ("shard", _shard_specs, run_dca_shards),
    ("volunteer problem", _volunteer_specs, run_volunteer_problems),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "noun,make_specs,runner", RUNNERS, ids=[runner.__name__ for _, _, runner in RUNNERS]
)
def test_worker_crash_names_replicate_seed(noun, make_specs, runner, jobs):
    specs = make_specs()
    # Only the middle item explodes, so the error must name position 1.
    specs[1] = replace(specs[1], strategy=ExplodingStrategy(2))
    with pytest.raises(ReplicateError) as excinfo:
        runner(specs, jobs=jobs)
    message = str(excinfo.value)
    assert excinfo.value.position == 1
    assert message.startswith(f"{noun} #1 (seed {specs[1].seed}, ")
    assert "injected replicate failure" in message
    assert excinfo.value.error_type == "RuntimeError"
    # The worker's traceback travels home for debugging.
    assert "RuntimeError" in (excinfo.value.traceback_text or "")
