# reprolint: disable-file=RL003 -- byte-exact golden comparisons are the point
"""Golden same-seed trace fingerprints: the optimization contract.

These sha256 digests were captured from the pre-optimization engine (the
PR-3 seed) and must never change: the hot-path optimizations -- tuple
heap keys, ``__slots__`` events, queue compaction, memoized confidence
kernels, decision tables, hoisted lookups -- are all required to be
*order-preserving*.  Any change to RNG draw order, event ordering, or
vote accounting shows up here as a digest mismatch.

If one of these ever fails, the change under test altered simulation
*behaviour*, not just speed; fix the change, do not refresh the digests.
(Deliberate semantic changes to the DCA model would need new goldens --
and a very good reason.)
"""

import hashlib

import pytest

from repro.core import (
    IterativeRedundancy,
    ProgressiveRedundancy,
    TraditionalRedundancy,
)
from repro.dca import ENGINES, DcaConfig
from repro.lint.sanitizer import dca_runner, trace_fingerprint
from repro.parallel import combined_fingerprint, dca_replicate_specs, run_dca_replicates

#: (strategy factory, DcaConfig kwargs, pre-optimization sha256).
GOLDENS = [
    (
        "iterative_d3",
        lambda: IterativeRedundancy(3),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "ed98c36d14c2ca0560fd760e9298d78fac3364cc6b48ba30cac21444e7991c6e",
    ),
    (
        "progressive_k7",
        lambda: ProgressiveRedundancy(7),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "0d7ed8e8ebc0983fbb1669474c0fce9efc892162943c8933f3dc548efbf935a6",
    ),
    (
        "traditional_k5",
        lambda: TraditionalRedundancy(5),
        dict(tasks=60, nodes=25, reliability=0.7, seed=1234),
        "35b127eeeaa038f783440ea407385028a6ca47f5f53b396119d3c39e8047eef8",
    ),
    (
        # Churn + silent nodes: exercises cancellation, compaction, and
        # the deadline path, where lazily-deleted events actually pile up.
        "iterative_d2_churn",
        lambda: IterativeRedundancy(2),
        dict(
            tasks=40,
            nodes=15,
            reliability=0.65,
            seed=99,
            arrival_rate=0.5,
            departure_rate=0.5,
            unresponsive_prob=0.1,
        ),
        "e25de6eedcecb605fa4afa1c13a00691050366d436fead2e3b70fe7da6d12b34",
    ),
]


def _trace_digest(factory, config_kwargs) -> str:
    events, _metrics = dca_runner(DcaConfig(strategy=factory(), **config_kwargs))()
    return hashlib.sha256(trace_fingerprint(events).encode()).hexdigest()


@pytest.mark.parametrize(
    "name,factory,config_kwargs,expected",
    GOLDENS,
    ids=[g[0] for g in GOLDENS],
)
def test_trace_fingerprint_matches_pre_optimization_golden(
    name, factory, config_kwargs, expected
):
    assert _trace_digest(factory, config_kwargs) == expected, (
        f"{name}: same-seed trace diverged from the pre-optimization "
        "engine -- an optimization changed simulation behaviour"
    )


def test_goldens_are_deterministic():
    """The digest itself is reproducible back to back in one process."""
    name, factory, config_kwargs, expected = GOLDENS[0]
    del name
    assert _trace_digest(factory, config_kwargs) == expected
    assert _trace_digest(factory, config_kwargs) == expected


def test_parallel_replication_still_matches_serial():
    """``jobs=4 == jobs=1`` survives the hot-path rewrite end to end, on
    both engines."""
    for engine in ENGINES:
        params = dict(
            tasks=60, nodes=25, reliability=0.7, replications=3, seed=1234, engine=engine
        )
        serial = run_dca_replicates(
            dca_replicate_specs(lambda: IterativeRedundancy(3), **params), jobs=1
        )
        fanned = run_dca_replicates(
            dca_replicate_specs(lambda: IterativeRedundancy(3), **params), jobs=4
        )
        assert combined_fingerprint(serial) == combined_fingerprint(fanned), engine
