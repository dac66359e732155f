"""Learned rows: the preference index and the learned-row prefix scan.

Once a UG has learned state, the routing model answers candidate queries
from a per-UG :class:`~repro.core.routing_model.PreferenceIndex` (within-AS
pairs plus cross-AS pairs bucketed by competitor-ASN context) and the
evaluator's :class:`~repro.core.benefit.PrefixScan` extends an accepted set
one peering at a time instead of rebuilding the candidate set.  This suite
holds both to their brute-force definitions:

* the pair-scan oracle below walks every stored pair, as the model did
  before the index existed;
* the index must match it after every kind of belief change (fresh,
  stale and contradicting observations, v2 and legacy restores);
* a hypothesis differential drives random observation histories and accept
  orders and requires every learned-row query to equal
  ``expected_prefix_latency`` exactly (``None`` included);
* goldens pin the configurations of full three-round learning loops.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.benefit import BenefitEvaluator
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.routing_model import RoutingModel
from repro.scenario import prototype_scenario, tiny_scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_learned_configs.json"


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def oracle_applicable_pairs(model, ug, compliant):
    """Every stored pair that applies: within-AS, or observed under exactly
    the current competitor-ASN set."""
    deployment = model.catalog.topology.deployment

    def asn(pid):
        return deployment.peering(pid).peer_asn

    current = frozenset(asn(pid) for pid in compliant)
    return {
        (winner, loser)
        for (winner, loser), context in model._preferences.get(ug.ug_id, {}).items()
        if asn(winner) == asn(loser) or context == current
    }


def oracle_candidates(model, ug, advertised):
    """The candidate prediction by walking every pair."""
    compliant = model.catalog.compliant_subset(ug, advertised)
    if not compliant:
        return frozenset()
    remembered = model._outcomes.get((ug.ug_id, compliant))
    if remembered is not None and remembered in compliant:
        return frozenset({remembered})
    pairs = oracle_applicable_pairs(model, ug, compliant)
    winners = {w for (w, _loser) in pairs if w in compliant}
    after = set(compliant)
    if winners:
        losers = {l for (w, l) in pairs if w in compliant and l in compliant}
        if after - losers:
            after -= losers
    closest = min(model.distance_km(ug, pid) for pid in after)
    return frozenset(
        pid
        for pid in after
        if pid in winners
        or model.distance_km(ug, pid) - closest <= model.d_reuse_km
    )


def oracle_excluded(model, ug, peering_id, advertised):
    compliant = model.catalog.compliant_subset(ug, advertised)
    return any(
        loser == peering_id and winner in advertised and winner != peering_id
        for (winner, loser) in oracle_applicable_pairs(model, ug, compliant)
    )


def probe_sets(scenario, ug, k=6):
    """Advertised sets around the UG's first ``k`` ingresses: every prefix
    of the sorted list plus each one-out subset, so cross-AS contexts both
    match and miss."""
    ids = sorted(scenario.catalog.ingress_ids(ug))[:k]
    sets = [frozenset(ids[: i + 1]) for i in range(len(ids))]
    sets += [frozenset(ids) - {pid} for pid in ids]
    return [s for s in sets if s]


def assert_index_matches(scenario, model, ugs):
    for ug in ugs:
        for advertised in probe_sets(scenario, ug):
            compliant = model.catalog.compliant_subset(ug, advertised)
            assert model._applicable_pairs(ug, compliant) == (
                oracle_applicable_pairs(model, ug, compliant)
            ), (ug.ug_id, sorted(advertised))
            assert model.candidate_ingresses(ug, advertised) == (
                oracle_candidates(model, ug, advertised)
            )
            for pid in advertised:
                assert model.is_excluded_by_preference(ug, pid, advertised) == (
                    oracle_excluded(model, ug, pid, advertised)
                )


# ---------------------------------------------------------------------------
# index invalidation
# ---------------------------------------------------------------------------


class TestPreferenceIndexInvalidation:
    """The lazily built index is dropped with every belief change."""

    @staticmethod
    def _warm(scenario, model, ugs):
        # Build (and cache) the index before the change under test.
        assert_index_matches(scenario, model, ugs)

    def test_fresh_observe(self, scenario):
        model = RoutingModel(scenario.catalog)
        ugs = scenario.user_groups[:6]
        for ug in ugs:
            ids = sorted(scenario.catalog.ingress_ids(ug))[:5]
            model.observe(ug, frozenset(ids), ids[-1])
        self._warm(scenario, model, ugs)
        for ug in ugs:
            ids = sorted(scenario.catalog.ingress_ids(ug))[:6]
            model.observe(ug, frozenset(ids[1:]), ids[1])
        assert_index_matches(scenario, model, ugs)

    def test_stale_observe(self, scenario):
        model = RoutingModel(scenario.catalog)
        ugs = scenario.user_groups[:6]
        for ug in ugs:
            ids = sorted(scenario.catalog.ingress_ids(ug))[:4]
            model.observe(ug, frozenset(ids), ids[0])
        self._warm(scenario, model, ugs)
        for ug in ugs:
            ids = sorted(scenario.catalog.ingress_ids(ug))[:6]
            learned = model.observe(ug, frozenset(ids), ids[-1], stale=True)
            assert learned > 0  # pairs nothing fresh disputes were added
        assert_index_matches(scenario, model, ugs)

    def test_contradicting_pair_evicted(self, scenario):
        model = RoutingModel(scenario.catalog)
        ug = scenario.user_groups[0]
        ids = sorted(scenario.catalog.ingress_ids(ug))[:4]
        advertised = frozenset(ids)
        first, second = ids[0], ids[1]
        model.observe(ug, advertised, first)
        compliant = model.catalog.compliant_subset(ug, advertised)
        assert (first, second) in model._applicable_pairs(ug, compliant)
        model.observe(ug, advertised, second)
        pairs = model._applicable_pairs(ug, compliant)
        assert (first, second) not in pairs
        assert (second, first) in pairs
        assert_index_matches(scenario, model, [ug])

    @pytest.mark.parametrize("legacy", [False, True], ids=["v2", "legacy"])
    def test_restore(self, scenario, legacy):
        source = RoutingModel(scenario.catalog)
        target = RoutingModel(scenario.catalog)
        ugs = scenario.user_groups[:8]
        for ug in ugs:
            ids = sorted(scenario.catalog.ingress_ids(ug))[:6]
            source.observe(ug, frozenset(ids), ids[2])
            source.observe(ug, frozenset(ids[:3]), ids[0], stale=True)
            # The target learned something else first and indexed it.
            target.observe(ug, frozenset(ids[1:]), ids[-1])
        self._warm(scenario, target, ugs)
        snapshot = source.snapshot_preferences()
        target.restore_preferences(
            snapshot["preferences"] if legacy else snapshot
        )
        assert_index_matches(scenario, target, ugs)
        for ug in ugs:
            for advertised in probe_sets(scenario, ug):
                if legacy:
                    continue  # legacy snapshots drop the outcome memory
                assert target.candidate_ingresses(ug, advertised) == (
                    source.candidate_ingresses(ug, advertised)
                )


# ---------------------------------------------------------------------------
# hypothesis differential: learned-row scan vs the exact Eq.-2 path
# ---------------------------------------------------------------------------

#: UGs the histories below observe (their ingress sets overlap, so accepts
#: from one UG's list are compliant for others too).
N_LEARNED = 4
#: How many of each UG's lowest ingress ids the histories draw from.
K_INGRESSES = 6

observation = st.tuples(
    st.integers(min_value=0, max_value=N_LEARNED - 1),  # UG
    st.lists(
        st.integers(min_value=0, max_value=K_INGRESSES - 1),
        min_size=1,
        max_size=K_INGRESSES,
        unique=True,
    ),  # advertised positions
    st.integers(min_value=0, max_value=K_INGRESSES - 1),  # winner pick
    st.sampled_from(["fresh", "fresh", "stale", "roundtrip", "legacy"]),
)

history = st.lists(observation, min_size=1, max_size=12)

differential = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def sparse_latency(scenario):
    """True latencies with every fifth peering unmeasurable, so ``None``
    values reach the kept-set means and whole queries."""
    latency_model = scenario.latency_model
    deployment = scenario.deployment

    def latency_of(ug, peering_id):
        if peering_id % 5 == 0:
            return None
        return latency_model.latency_ms(ug, deployment.peering(peering_id))

    return latency_of


def replay(scenario, model, steps):
    ugs = scenario.user_groups[:N_LEARNED]
    for ug_pick, positions, winner_pick, kind in steps:
        ug = ugs[ug_pick]
        ids = sorted(scenario.catalog.ingress_ids(ug))[:K_INGRESSES]
        advertised = frozenset(ids[p % len(ids)] for p in positions)
        winner = sorted(advertised)[winner_pick % len(advertised)]
        if kind == "roundtrip":
            snapshot = model.snapshot_preferences()
            model.restore_preferences(snapshot)
        elif kind == "legacy":
            model.restore_preferences(model.snapshot_preferences()["preferences"])
        model.observe(ug, advertised, winner, stale=(kind == "stale"))


def same(a, b):
    return a == b and (a is None) == (b is None)


class TestLearnedScanDifferential:
    @given(
        steps=history,
        order=st.permutations(range(3 * K_INGRESSES)),
        dense=st.booleans(),
    )
    @differential
    def test_query_equals_expected_prefix_latency(self, scenario, steps, order, dense):
        model = RoutingModel(scenario.catalog)
        evaluator = BenefitEvaluator(
            scenario, model, latency_of=sparse_latency(scenario)
        )
        if dense:
            evaluator.materialize_latency_matrices()
        replay(scenario, model, steps)
        ugs = [u for u in scenario.user_groups[:N_LEARNED] if model.has_learned_state(u.ug_id)]
        assert ugs
        pool = sorted(
            {pid for ug in ugs for pid in sorted(scenario.catalog.ingress_ids(ug))[:K_INGRESSES]}
        )
        accepts = [pool[i] for i in order if i < len(pool)]
        scan = evaluator.begin_prefix_scan()
        accepted = set()
        for step in range(len(accepts) + 1):
            for ug in ugs:
                current = frozenset(accepted)
                assert same(
                    scan.current(ug), evaluator.expected_prefix_latency(ug, current)
                )
                for pid in sorted(scenario.catalog.ingress_ids(ug)):
                    advertised = current | {pid}
                    assert same(
                        scan.query(ug, pid),
                        evaluator.expected_prefix_latency(ug, advertised),
                    ), (ug.ug_id, sorted(advertised))
                    assert model.candidate_ingresses(ug, advertised) == (
                        oracle_candidates(model, ug, advertised)
                    )
            if step < len(accepts):
                accepted.add(accepts[step])
                scan.accept(accepts[step], ())


# ---------------------------------------------------------------------------
# learned-solve goldens
# ---------------------------------------------------------------------------


def config_pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


@pytest.mark.parametrize(
    "name",
    [
        "prototype30_seed0",
        "prototype30_seed1",
        "prototype30_seed2",
        "prototype30_seed3",
        "tiny_seed0",
        "tiny_seed3",
    ],
)
def test_learn_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    build = {"prototype": prototype_scenario, "tiny": tiny_scenario}[golden["preset"]]
    scenario = build(seed=golden["seed"], n_ugs=golden["n_ugs"])
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=golden["budget"])
    )
    result = orchestrator.learn(iterations=golden["iterations"])
    assert [config_pairs(r.config) for r in result.iterations] == golden["rounds"]
