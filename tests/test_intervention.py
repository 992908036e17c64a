import dataclasses
import math

import pytest

from cegkit import fixtures
from cegkit.causal import causal_effect_edge_level, idle_target_mass, remedial_breakdown
from cegkit.ceg import Ceg, ceg_from_document, class_masses
from cegkit.errors import (
    EmptyInterventionSet,
    IdenticalTheta,
    LengthMismatch,
    MissingConditional,
    NotNormalized,
    OutOfOpenInterval,
    OverlappingIntervention,
    ParseError,
    PositionNotInCeg,
    UnknownEdge,
)
from cegkit.intervention import (
    DirichletFloretPrior,
    HiddenAction,
    RemedialRecord,
    RemedyClass,
    StochasticManipulation,
    classify_remedy,
    conditioned_ceg,
    indicator_terms,
    manipulation_from_indicators,
    record_from_raw,
    root_cause_edges,
    singular_manipulation,
    substituted_theta,
    validate_stochastic,
)

import oracles


@pytest.fixture(scope="module")
def bushing():
    return ceg_from_document(fixtures.bushing_document())


@pytest.fixture(scope="module")
def conservator():
    return ceg_from_document(fixtures.conservator_document())


W1_HAT = StochasticManipulation(theta_hat={"w1": (0.1, 0.2, 0.3, 0.4)})


class TestValidateStochastic:
    def test_valid_manipulation_passes(self, bushing):
        star, below, above = validate_stochastic(bushing, W1_HAT)
        assert star == ("w1",)
        assert below >= {"w3", "winf_f"} and "w2" not in below
        assert above == {"w0", "w1"}

    def test_unknown_position(self, bushing):
        bad = StochasticManipulation(theta_hat={"w99": (0.5, 0.5)})
        with pytest.raises(PositionNotInCeg):
            validate_stochastic(bushing, bad)

    def test_vector_length(self, bushing):
        bad = StochasticManipulation(theta_hat={"w1": (0.5, 0.5)})
        with pytest.raises(LengthMismatch):
            validate_stochastic(bushing, bad)

    def test_normalization(self, bushing):
        bad = StochasticManipulation(theta_hat={"w1": (0.1, 0.2, 0.3, 0.5)})
        with pytest.raises(NotNormalized):
            validate_stochastic(bushing, bad)

    def test_open_interval(self, bushing):
        bad = StochasticManipulation(theta_hat={"w1": (0.0, 0.3, 0.3, 0.4)})
        with pytest.raises(OutOfOpenInterval):
            validate_stochastic(bushing, bad)

    def test_identical_theta_rejected(self, bushing):
        bad = StochasticManipulation(theta_hat={"w1": bushing.theta_vector("w1")})
        with pytest.raises(IdenticalTheta):
            validate_stochastic(bushing, bad)

    def test_empty_set(self, bushing):
        with pytest.raises(EmptyInterventionSet):
            validate_stochastic(bushing, StochasticManipulation(theta_hat={}))

    def test_overlapping_positions(self, bushing):
        bad = StochasticManipulation(
            theta_hat={"w1": (0.1, 0.2, 0.3, 0.4), "w3": (0.4, 0.6)}
        )
        with pytest.raises(OverlappingIntervention):
            validate_stochastic(bushing, bad)

    def test_parallel_positions_allowed(self, bushing):
        # w1 and w2 tile the path set, so no path meets both
        both = StochasticManipulation(
            theta_hat={"w1": (0.1, 0.2, 0.3, 0.4), "w2": (0.45, 0.55)}
        )
        assert validate_stochastic(bushing, both).star == ("w1", "w2")


def through_w1(path):
    return any(e.src == "w1" for e in path)


class TestManipulatedPaths:
    def test_off_set_paths_get_zero(self, bushing):
        outside = [p for p in oracles.graph_paths(bushing) if not through_w1(p)]
        assert outside
        manip = conditioned_ceg(bushing, ["w1"], W1_HAT)
        assert all(through_w1(p) for p in oracles.graph_paths(manip))

    def test_total_mass_equals_reach_probability(self, bushing):
        lam = [p for p in oracles.graph_paths(bushing) if through_w1(p)]
        total = oracles.path_mass(lam, oracles.replaced_theta(bushing, W1_HAT.theta_hat))
        reach = oracles.path_mass(lam, bushing.theta)
        assert total == pytest.approx(reach, abs=1e-12)
        hat = substituted_theta(bushing, W1_HAT)
        masses = class_masses(bushing, [bushing.out_edges("w1")], (hat,))
        assert masses[1][0] == pytest.approx(total, abs=1e-12)

    def test_substitution_factors(self, bushing):
        hat = W1_HAT.theta_hat["w1"]
        substituted = substituted_theta(bushing, W1_HAT)
        edges = bushing.out_edges("w1")
        for p in oracles.graph_paths(bushing):
            if not through_w1(p):
                continue
            want = 1.0
            for e in p:
                if e.src == "w1":
                    want *= hat[edges.index(e)]
                else:
                    want *= bushing.theta[e]
            got = oracles.path_mass([p], substituted)
            assert got == pytest.approx(want, rel=1e-15)


class TestConditionedCeg:
    def test_root_conditioning_is_identity(self, bushing):
        same = conditioned_ceg(bushing, ["w0"])
        assert same.position_ids == bushing.position_ids
        assert same.edges == bushing.edges
        for e in bushing.edges:
            assert same.theta[e] == pytest.approx(bushing.theta[e], abs=1e-12)

    def test_prunes_unreachable_positions(self, bushing):
        cond = conditioned_ceg(bushing, ["w1"])
        assert "w2" not in cond.position_ids
        assert all(e.src != "w2" for e in cond.edges)

    def test_conditioned_mass_is_one(self, bushing):
        cond = conditioned_ceg(bushing, ["w1"])
        paths = oracles.graph_paths(cond)
        assert oracles.path_mass(paths, cond.theta) == pytest.approx(1.0, abs=1e-12)

    def test_quotient_matches_bayes(self, bushing):
        doc = fixtures.bushing_document()
        cond = conditioned_ceg(bushing, ["w1"])
        # theta*(w0 -> w1) = 1: conditioning removed the alternative
        root_edge = cond.find_edge("w0", "w1")
        assert cond.theta[root_edge] == pytest.approx(1.0, abs=1e-12)
        # downstream florets keep their idle vectors untouched
        for e in cond.out_edges("w3"):
            assert cond.theta[e] == pytest.approx(bushing.theta[e], abs=1e-12)

    def test_with_manipulation_substitutes(self, bushing):
        manip = conditioned_ceg(bushing, ["w1"], W1_HAT)
        assert manip.theta_vector("w1") == pytest.approx(
            (0.1, 0.2, 0.3, 0.4), abs=1e-12
        )
        paths = oracles.graph_paths(manip)
        assert oracles.path_mass(paths, manip.theta) == pytest.approx(1.0, abs=1e-12)

    def test_manipulation_must_match_set(self, bushing):
        with pytest.raises(PositionNotInCeg):
            conditioned_ceg(bushing, ["w2"], W1_HAT)

    def test_overlapping_set_rejected(self, bushing):
        with pytest.raises(OverlappingIntervention):
            conditioned_ceg(bushing, ["w1", "w3"])

    def test_empty_set_rejected(self, bushing):
        with pytest.raises(EmptyInterventionSet):
            conditioned_ceg(bushing, [])


class TestSingular:
    def test_forced_edge_and_siblings(self, bushing):
        forced = singular_manipulation(bushing, "w1->w4#1")
        target = bushing.find_edge("w1", "w4")
        for e in forced.out_edges("w1"):
            assert forced.theta[e] == (1.0 if e == target else 0.0)

    def test_other_florets_untouched(self, bushing):
        forced = singular_manipulation(bushing, "w1->w4#1")
        for w in bushing.position_ids:
            if w == "w1":
                continue
            assert forced.theta_vector(w) == bushing.theta_vector(w)

    def test_still_a_unit_mass_graph(self, bushing):
        forced = singular_manipulation(bushing, ("w1", "w3", 2))
        paths = oracles.graph_paths(forced)
        assert oracles.path_mass(paths, forced.theta) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_edge(self, bushing):
        with pytest.raises(UnknownEdge):
            singular_manipulation(bushing, "w1->w8#1")


class TestGraphCopies:
    """A manipulated or conditioned graph equals the one the explicit
    ten-field constructor builds: every field not set carries over, and the
    derived fields (out-edges, sinks, order) are computed again."""

    @pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
    def test_singular_manipulation(self, name):
        graph = ceg_from_document(fixtures.all_documents()[name])
        for edge in graph.edges:
            theta = dict(graph.theta)
            theta.update((e, float(e == edge)) for e in graph.out_edges(edge.src))
            want = Ceg(
                position_ids=graph.position_ids,
                members=graph.members,
                edges=graph.edges,
                theta=theta,
                devents=graph.devents,
                stage_ids=graph.stage_ids,
                root_causes=graph.root_causes,
                interior=False,
                tolerance=graph.tolerance,
                name=f"{name}+force({edge})",
            )
            assert singular_manipulation(graph, edge) == want

    @pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
    def test_conditioned_ceg(self, name):
        graph = ceg_from_document(fixtures.all_documents()[name])
        for w in graph.position_ids:
            got = conditioned_ceg(graph, [w])
            kept = got.position_ids
            assert kept == tuple(p for p in graph.position_ids if p in kept)
            want = Ceg(
                position_ids=kept,
                members={p: graph.members[p] for p in kept},
                edges=tuple(e for e in graph.edges if e in got.theta),
                theta=got.theta,
                devents=graph.devents,
                stage_ids={p: graph.stage_ids[p] for p in kept},
                root_causes=graph.root_causes,
                interior=False,
                tolerance=graph.tolerance,
                name=f"{name}+conditioned",
            )
            assert got == want


class TestRemedyClassification:
    def test_unrecorded_remedy_is_uncertain_even_with_delta(self):
        record = RemedialRecord(remedy=None, delta=1)
        assert classify_remedy(record) is RemedyClass.UNCERTAIN

    def test_delta_split(self):
        assert (
            classify_remedy(RemedialRecord(remedy="swap", delta=1))
            is RemedyClass.PERFECT
        )
        assert (
            classify_remedy(RemedialRecord(remedy="swap", delta=0))
            is RemedyClass.IMPERFECT
        )
        assert (
            classify_remedy(RemedialRecord(remedy="swap", delta=None))
            is RemedyClass.UNCERTAIN
        )


def _gasket(bushing):
    return bushing.find_edge("w1", "w3", 1)


def _porcelain(bushing):
    return bushing.find_edge("w1", "w3", 2)


class TestIndicatorTerms:
    def test_perfect_point_mass(self, bushing):
        fix = frozenset({_gasket(bushing)})
        record = RemedialRecord(remedy="swap", delta=1, indicators=fix)
        assert indicator_terms(record) == [(1.0, fix, None)]

    def test_perfect_needs_indicators(self):
        record = RemedialRecord(remedy="swap", delta=1)
        with pytest.raises(MissingConditional):
            indicator_terms(record)

    def test_imperfect_mixture(self, bushing):
        fix = frozenset({_gasket(bushing)})
        actions = (
            HiddenAction(
                id="swap_seal",
                prob=0.6,
                outcomes=((fix, 0.5), (frozenset(), 0.5)),
            ),
            HiddenAction(id="no_action", prob=0.4, outcomes=((frozenset(), 1.0),)),
        )
        record = RemedialRecord(remedy="swap", delta=0, actions=actions)
        terms = indicator_terms(record)
        assert [(w, a) for w, _, a in terms] == [
            (0.3, "swap_seal"),
            (0.3, "swap_seal"),
            (0.4, "no_action"),
        ]
        assert math.fsum(w for w, _, _ in terms) == pytest.approx(1.0)

    def test_imperfect_needs_actions(self):
        record = RemedialRecord(remedy="swap", delta=0)
        with pytest.raises(MissingConditional):
            indicator_terms(record)

    def test_action_probabilities_must_normalize(self, bushing):
        actions = (
            HiddenAction(id="a", prob=0.6, outcomes=((frozenset(), 1.0),)),
            HiddenAction(id="b", prob=0.6, outcomes=((frozenset(), 1.0),)),
        )
        record = RemedialRecord(remedy="swap", delta=0, actions=actions)
        with pytest.raises(NotNormalized):
            indicator_terms(record)

    def test_outcomes_must_normalize(self, bushing):
        fix = frozenset({_gasket(bushing)})
        actions = (
            HiddenAction(id="a", prob=1.0, outcomes=((fix, 0.5), (frozenset(), 0.4))),
        )
        record = RemedialRecord(remedy="swap", delta=0, actions=actions)
        with pytest.raises(NotNormalized):
            indicator_terms(record)

    def test_uncertain_mixes_by_p_delta(self, bushing):
        fix = frozenset({_gasket(bushing)})
        actions = (
            HiddenAction(id="a", prob=1.0, outcomes=((frozenset(), 1.0),)),
        )
        record = RemedialRecord(
            remedy="swap", delta=None, indicators=fix, actions=actions, p_delta=0.3
        )
        terms = indicator_terms(record)
        assert terms[0] == (0.3, fix, None)
        assert terms[1][0] == pytest.approx(0.7)
        assert math.fsum(w for w, _, _ in terms) == pytest.approx(1.0)

    def test_uncertain_without_indicators_defaults_to_actions(self):
        actions = (
            HiddenAction(id="a", prob=1.0, outcomes=((frozenset(), 1.0),)),
        )
        record = RemedialRecord(remedy=None, actions=actions)
        assert indicator_terms(record) == [(1.0, frozenset(), "a")]

    def test_uncertain_with_indicators_needs_p_delta(self, bushing):
        fix = frozenset({_gasket(bushing)})
        record = RemedialRecord(remedy="swap", delta=None, indicators=fix)
        with pytest.raises(MissingConditional):
            indicator_terms(record)

    NO_ACTION = (HiddenAction(id="a", prob=1.0, outcomes=((frozenset(), 1.0),)),)

    @pytest.mark.parametrize("p_delta", [2.0, -1.0, math.nan, math.inf])
    def test_a_record_built_in_python_checks_its_p_delta(self, p_delta):
        # unchecked, 2.0 and -1.0 (with one hidden action) each gave a weight of 2
        with pytest.raises(OutOfOpenInterval, match=rf"^p_delta {p_delta!r} outside \[0, 1\]$"):
            RemedialRecord(
                remedy=None, indicators=frozenset(), actions=self.NO_ACTION, p_delta=p_delta
            )

    @pytest.mark.parametrize("p_delta", [0.0, 1.0])
    def test_p_delta_may_be_either_end_of_the_interval(self, p_delta):
        record = RemedialRecord(
            remedy=None, indicators=frozenset(), actions=self.NO_ACTION, p_delta=p_delta
        )
        assert [w for w, _, _ in indicator_terms(record)] == [1.0]


def _indicators(bushing, remedied):
    """The full indicator map over bushing's root-cause edges."""
    return {e: int(e in remedied) for e in root_cause_edges(bushing)}


class TestDirichlet:
    PRIOR = DirichletFloretPrior(
        alpha={"w1": (3.0, 2.0, 2.5, 2.5), "w2": (3.0, 2.0)},
        eta={"w1": (1.0, 1.0, 1.0, 1.0), "w2": (1.0, 1.0)},
    )

    def _means(self, bushing, remedied, prior=PRIOR):
        return manipulation_from_indicators(bushing, _indicators(bushing, remedied), prior)

    def test_update_is_exact(self, bushing):
        manip = self._means(bushing, {_gasket(bushing)})
        posterior = (3.0, 3.0, 3.5, 3.5)
        total = math.fsum(posterior)
        assert manip.theta_hat == {"w1": tuple(x / total for x in posterior)}

    def test_all_remedied_changes_nothing(self, bushing):
        # every cause remedied leaves the prior's own mean, which here is
        # w1's idle vector, so no position is intervened
        alpha = self.PRIOR.alpha["w1"]
        assert bushing.theta_vector("w1") == tuple(a / math.fsum(alpha) for a in alpha)
        assert self._means(bushing, set(bushing.out_edges("w1"))) is None

    def test_unknown_position(self, bushing):
        lightning = bushing.find_edge("w2", "w8", 1)
        prior = DirichletFloretPrior(
            alpha={"w1": self.PRIOR.alpha["w1"]}, eta={"w1": self.PRIOR.eta["w1"]}
        )
        with pytest.raises(MissingConditional, match="^no Dirichlet prior for position w2$"):
            self._means(bushing, {_gasket(bushing), lightning}, prior)

    def test_length_mismatch(self, bushing):
        prior = DirichletFloretPrior(
            alpha={"w1": (3.0, 2.0)}, eta={"w1": (1.0, 1.0)}
        )
        with pytest.raises(
            LengthMismatch, match="^position w1: indicator length 4 against alpha length 2$"
        ):
            self._means(bushing, {_gasket(bushing)}, prior)

    def test_prior_must_be_positive(self):
        with pytest.raises(OutOfOpenInterval):
            DirichletFloretPrior(alpha={"w1": (0.0, 1.0)}, eta={"w1": (1.0, 1.0)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_prior_must_be_finite(self, bad):
        with pytest.raises(OutOfOpenInterval, match=r"^alpha\[w1\] must be finite"):
            DirichletFloretPrior(alpha={"w1": (bad, 1.0)}, eta={"w1": (1.0, 1.0)})
        with pytest.raises(OutOfOpenInterval, match=r"^eta\[w1\] must be finite"):
            DirichletFloretPrior(alpha={"w1": (1.0, 1.0)}, eta={"w1": (1.0, bad)})


class TestIndicatorPlumbing:
    PRIOR = TestDirichlet.PRIOR

    def test_root_cause_edges_in_graph_order(self, bushing):
        edges = root_cause_edges(bushing)
        assert [str(e) for e in edges] == [
            "w1->w3#1", "w1->w3#2", "w1->w4#1", "w1->w5#1",
            "w2->w8#1", "w2->w8#2",
        ]

    def test_assignment_expansion(self, bushing):
        # a record's remedied set acts as the full map with 1 on its edges
        fix = frozenset({_gasket(bushing)})
        record = RemedialRecord(remedy="swap", delta=1, indicators=fix)
        (row,) = remedial_breakdown(bushing, record, self.PRIOR, "fail")
        manip = manipulation_from_indicators(bushing, _indicators(bushing, fix), self.PRIOR)
        assert row == (1.0, fix, None, causal_effect_edge_level(bushing, manip, "fail"))

    def test_assignment_rejects_foreign_edges(self, bushing):
        stray = bushing.find_edge("w3", "w6")
        record = RemedialRecord(remedy="swap", delta=1, indicators=frozenset({stray}))
        with pytest.raises(
            UnknownEdge, match=r"^remedied edges outside the root causes: \['w3->w6#1'\]$"
        ):
            remedial_breakdown(bushing, record, self.PRIOR, "fail")

    def test_validate_domain_mismatch(self, bushing):
        gasket = _gasket(bushing)
        with pytest.raises(UnknownEdge, match="^indicator domain mismatch: missing"):
            manipulation_from_indicators(bushing, {gasket: 1}, self.PRIOR)

    def test_validate_values(self, bushing):
        indicators = _indicators(bushing, set())
        indicators[_gasket(bushing)] = 2
        with pytest.raises(ParseError, match="^indicator for w1->w3#1 must be 0 or 1$"):
            manipulation_from_indicators(bushing, indicators, self.PRIOR)

    def test_intervened_positions(self, bushing):
        lightning = bushing.find_edge("w2", "w8", 1)
        indicators = _indicators(bushing, {_gasket(bushing), lightning})
        manip = manipulation_from_indicators(bushing, indicators, self.PRIOR)
        assert manip.intervened_positions == ("w1", "w2")

    def test_model_without_root_causes(self, bushing):
        bare = dataclasses.replace(bushing, root_causes=())
        nothing = RemedialRecord(remedy="swap", delta=1, indicators=frozenset())
        with pytest.raises(ParseError, match="^model declares no root causes$"):
            manipulation_from_indicators(bare, {}, self.PRIOR)
        with pytest.raises(ParseError, match="^model declares no root causes$"):
            remedial_breakdown(bare, nothing, self.PRIOR, "fail")


class TestManipulationFromIndicators:
    PRIOR = DirichletFloretPrior(
        alpha={"w1": (3.0, 2.0, 2.5, 2.5), "w2": (3.0, 2.0)},
        eta={"w1": (1.0, 1.0, 1.0, 1.0), "w2": (1.0, 1.0)},
    )

    def test_nothing_remedied_gives_none(self, bushing):
        indicators = _indicators(bushing, set())
        assert manipulation_from_indicators(bushing, indicators, self.PRIOR) is None

    def test_posterior_means(self, bushing):
        indicators = _indicators(bushing, {_gasket(bushing)})
        manip = manipulation_from_indicators(bushing, indicators, self.PRIOR)
        assert manip.intervened_positions == ("w1",)
        total = 3.0 + 3.0 + 3.5 + 3.5
        assert manip.theta_hat["w1"] == pytest.approx(
            (3.0 / total, 3.0 / total, 3.5 / total, 3.5 / total), abs=1e-15
        )

    # remedying w1->w3#1 updates w1's mean to (3, 2, 2.5, 2.5) / 10, which
    # is w1's idle vector; remedying w2->w8#1 moves w2's to (0.5, 0.5)
    IDLE_W1 = DirichletFloretPrior(
        alpha={"w1": (3.0, 1.0, 1.5, 1.5), "w2": (3.0, 2.0)},
        eta={"w1": (1.0, 1.0, 1.0, 1.0), "w2": (1.0, 1.0)},
    )

    def test_a_mean_equal_to_the_idle_vector_is_no_intervention(self, bushing):
        lightning = bushing.find_edge("w2", "w8", 1)
        assert bushing.theta_vector("w1") == (0.3, 0.2, 0.25, 0.25)
        gasket_only = _indicators(bushing, {_gasket(bushing)})
        assert manipulation_from_indicators(bushing, gasket_only, self.IDLE_W1) is None
        both = _indicators(bushing, {_gasket(bushing), lightning})
        manip = manipulation_from_indicators(bushing, both, self.IDLE_W1)
        assert manip.theta_hat == {"w2": (0.5, 0.5)}

    def test_a_remedial_term_whose_means_are_idle_takes_the_idle_mass(self, bushing):
        lightning = bushing.find_edge("w2", "w8", 1)
        gasket = frozenset({_gasket(bushing)})
        record = RemedialRecord(remedy="swap", delta=0, actions=(
            HiddenAction("swap_seal", 0.6, ((gasket, 1.0),)),
            HiddenAction("swap_both", 0.4, ((gasket | {lightning}, 1.0),)),
        ))
        rows = remedial_breakdown(bushing, record, self.IDLE_W1, "fail")
        w2_only = StochasticManipulation({"w2": (0.5, 0.5)})
        assert [effect for _, _, _, effect in rows] == [
            idle_target_mass(bushing, "fail"),
            causal_effect_edge_level(bushing, w2_only, "fail"),
        ]

    def test_mixed_floret_rejected(self):
        doc = dataclasses.replace(
            fixtures.conservator_document(), root_causes=("ind_fault",)
        )
        ceg = ceg_from_document(doc)
        only_cause = root_cause_edges(ceg)
        assert [str(e) for e in only_cause] == ["w0->w1#1"]
        prior = DirichletFloretPrior(
            alpha={"w0": (2.0, 2.0)}, eta={"w0": (1.0, 1.0)}
        )
        with pytest.raises(MissingConditional):
            manipulation_from_indicators(ceg, {only_cause[0]: 1}, prior)


class TestRecordFromRaw:
    def test_full_record(self, bushing):
        raw = {
            "remedy": "swap",
            "delta": 0,
            "actions": [
                {
                    "id": "swap_seal",
                    "prob": 0.6,
                    "outcomes": [
                        {"remedied": ["w1->w3#1"], "prob": 0.5},
                        {"remedied": [], "prob": 0.5},
                    ],
                },
                {"id": "no_action", "prob": 0.4, "outcomes": [{"remedied": [], "prob": 1.0}]},
            ],
        }
        record = record_from_raw(bushing, raw)
        assert classify_remedy(record) is RemedyClass.IMPERFECT
        assert record.actions[0].outcomes[0][0] == frozenset({_gasket(bushing)})
        assert record.actions[1].outcomes == ((frozenset(), 1.0),)

    def test_perfect_record(self, bushing):
        record = record_from_raw(
            bushing, {"remedy": "swap", "delta": 1, "indicators": ["w1->w3#2"]}
        )
        assert record.indicators == frozenset({_porcelain(bushing)})

    @pytest.mark.parametrize(
        "raw",
        [
            {"remedy": 7},
            {"remedy": "swap", "delta": 2},
            {"remedy": "swap", "delta": 1, "indicators": "w1->w3#1"},
            {"remedy": "swap", "delta": 0, "actions": [3]},
            {"remedy": "swap", "delta": 0, "actions": [{"outcomes": [3]}]},
            {"remedy": "swap", "p_delta": "x"},
            {"remedy": "swap", "p_delta": True},
            {"remedy": "swap", "delta": 0, "actions": {}},
            {"remedy": "swap", "delta": 0, "actions": [{"prob": None}]},
            {"remedy": "swap", "delta": 0, "actions": [{"outcomes": {}}]},
            {"remedy": "swap", "delta": 0, "actions": [{"outcomes": [{"prob": "x"}]}]},
            {"remedy": "swap", "delta": 0, "actions": [{"outcomes": [{"remedied": [1]}]}]},
            {"remedy": "swap", "delta": 1, "indicators": [None]},
        ],
    )
    def test_bad_shapes(self, bushing, raw):
        with pytest.raises(ParseError):
            record_from_raw(bushing, raw)

    @pytest.mark.parametrize("p_delta", [1.5, -0.1, math.nan, math.inf])
    def test_p_delta_outside_the_unit_interval(self, bushing, p_delta):
        with pytest.raises(OutOfOpenInterval, match=r"^p_delta .* outside \[0, 1\]$"):
            record_from_raw(bushing, {"remedy": "swap", "p_delta": p_delta})
        # a parse fault anywhere in the record is named first
        with pytest.raises(ParseError):
            record_from_raw(bushing, {"remedy": "swap", "p_delta": p_delta, "actions": {}})

    def test_unknown_edge_in_indicators(self, bushing):
        with pytest.raises(UnknownEdge):
            record_from_raw(
                bushing,
                {"remedy": "swap", "delta": 1, "indicators": ["w1->w8#1"]},
            )
