import json
import math
import random
import sys
from pathlib import Path

import pytest

from cegkit import causal, fixtures, model_io
from cegkit.causal import (
    BackdoorPartition,
    backdoor_adjustment,
    brute_force_effect,
    causal_effect_devent,
    causal_effect_edge_level,
    check_backdoor_partition,
    forced_edge_effect,
    idle_target_mass,
    partition_from_selectors,
    remedial_breakdown,
    search_backdoor_partition,
)
from cegkit.ceg import Ceg, ceg_from_document
from cegkit.errors import (
    ControlledEventLeaksOutsideIntervention,
    NotAPartition,
    PartitionNotValid,
    PositionNotInCeg,
    UndefinedConditional,
    UnknownEdge,
    UnknownSelector,
    UnknownTarget,
)
from cegkit.event_tree import Edge
from cegkit.intervention import (
    DirichletFloretPrior,
    HiddenAction,
    RemedialRecord,
    StochasticManipulation,
    singular_manipulation,
)

import oracles

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's size ladder)


@pytest.fixture(scope="module")
def bushing():
    return ceg_from_document(fixtures.bushing_document())


@pytest.fixture(scope="module")
def conservator():
    return ceg_from_document(fixtures.conservator_document())


@pytest.fixture(scope="module")
def twin():
    return ceg_from_document(fixtures.twin_document())


BUSHING_HAT = StochasticManipulation(theta_hat={"w1": (0.1, 0.2, 0.3, 0.4)})
CONSERVATOR_HAT = StochasticManipulation(theta_hat={"w0": (0.25, 0.75)})
TWIN_HAT = StochasticManipulation(
    theta_hat={"w1": (0.2, 0.8), "w2": (0.45, 0.55)}
)

# reference values computed by independent path enumeration over the raw
# model documents, frozen here so regressions surface as value changes
BUSHING_IDLE_FAIL = 0.60425
BUSHING_EFFECT = 0.6065
CONSERVATOR_IDLE_FAIL = 0.5074
CONSERVATOR_EFFECT = 0.349
TWIN_IDLE_FAIL = 0.377875
TWIN_EFFECT = 0.349375
FORCED_GASKET_EFFECT = 0.575


class TestFrozenValues:
    def test_idle_masses(self, bushing, conservator, twin):
        assert idle_target_mass(bushing, "fail") == pytest.approx(
            BUSHING_IDLE_FAIL, abs=1e-12
        )
        assert idle_target_mass(conservator, "fail") == pytest.approx(
            CONSERVATOR_IDLE_FAIL, abs=1e-12
        )
        assert idle_target_mass(twin, "fail") == pytest.approx(
            TWIN_IDLE_FAIL, abs=1e-12
        )

    def test_manipulated_effects(self, bushing, conservator, twin):
        assert brute_force_effect(bushing, BUSHING_HAT, "fail") == pytest.approx(
            BUSHING_EFFECT, abs=1e-12
        )
        assert brute_force_effect(
            conservator, CONSERVATOR_HAT, "fail"
        ) == pytest.approx(CONSERVATOR_EFFECT, abs=1e-12)
        assert brute_force_effect(twin, TWIN_HAT, "fail") == pytest.approx(
            TWIN_EFFECT, abs=1e-12
        )

    def test_forced_edge(self, bushing):
        assert forced_edge_effect(bushing, "w1->w3#1", "fail") == pytest.approx(
            FORCED_GASKET_EFFECT, abs=1e-12
        )

    def test_forced_edge_builds_no_graph(self, bushing, monkeypatch):
        # the forced vector weights the idle graph; no Ceg is constructed,
        # so no floret is validated again
        built = []
        post_init = Ceg.__post_init__
        monkeypatch.setattr(Ceg, "__post_init__", lambda g: built.append(g) or post_init(g))
        for edge in bushing.edges:
            forced_edge_effect(bushing, edge, "fail")
        assert built == []


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "fixture_name,manipulation",
        [
            ("bushing", BUSHING_HAT),
            ("conservator", CONSERVATOR_HAT),
            ("twin", TWIN_HAT),
        ],
    )
    def test_three_routes_agree(self, request, fixture_name, manipulation):
        graph = request.getfixturevalue(fixture_name)
        bf = brute_force_effect(graph, manipulation, "fail")
        dv = causal_effect_devent(graph, manipulation, "fail")
        el = causal_effect_edge_level(graph, manipulation, "fail")
        assert dv == pytest.approx(bf, abs=1e-12)
        assert el == pytest.approx(bf, abs=1e-12)

    def test_matches_document_oracle(self, bushing, conservator, twin):
        cases = [
            (fixtures.bushing_document(), bushing, BUSHING_HAT, ("v1",)),
            (
                fixtures.conservator_document(),
                conservator,
                CONSERVATOR_HAT,
                ("v0",),
            ),
            (fixtures.twin_document(), twin, TWIN_HAT, ("v1", "v2")),
        ]
        for doc, graph, manipulation, star_vertices in cases:
            hat_by_vertex = {}
            for w, vec in manipulation.theta_hat.items():
                for v in graph.members[w]:
                    hat_by_vertex[v] = vec
            want = oracles.substitution_effect(
                doc, star_vertices, hat_by_vertex, "fail"
            )
            got = brute_force_effect(graph, manipulation, "fail")
            assert got == pytest.approx(want, abs=1e-12)

    def test_randomized_agreement(self, bushing, conservator, twin):
        rng = random.Random(11)

        def rand_vec(k):
            raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
            total = math.fsum(raw)
            return tuple(x / total for x in raw)

        for _ in range(20):
            for graph, star in (
                (bushing, ("w1",)),
                (conservator, ("w0",)),
                (twin, ("w1", "w2")),
            ):
                hat = {
                    w: rand_vec(len(graph.out_edges(w))) for w in star
                }
                m = StochasticManipulation(theta_hat=hat)
                bf = brute_force_effect(graph, m, "fail")
                assert causal_effect_devent(graph, m, "fail") == pytest.approx(
                    bf, abs=1e-12
                )
                assert causal_effect_edge_level(
                    graph, m, "fail"
                ) == pytest.approx(bf, abs=1e-12)

    def test_unknown_target(self, bushing):
        with pytest.raises(UnknownTarget):
            brute_force_effect(bushing, BUSHING_HAT, "melt")
        with pytest.raises(UnknownTarget):
            idle_target_mass(bushing, "melt")

    def test_controlled_event_leak(self, twin):
        # seal_wear also labels an edge out of w2, so intervening on w1
        # alone does not control the d-event
        lone = StochasticManipulation(theta_hat={"w1": (0.2, 0.8)})
        with pytest.raises(ControlledEventLeaksOutsideIntervention):
            causal_effect_devent(twin, lone, "fail")


class TestNoMass:
    """Forcing w0->w1 leaves w2 on no path with mass."""

    W2_HAT = StochasticManipulation(theta_hat={"w2": (0.5, 0.5)})

    @pytest.fixture()
    def forced(self, bushing):
        return singular_manipulation(bushing, "w0->w1")

    @pytest.mark.parametrize("route", [causal_effect_devent, causal_effect_edge_level])
    def test_both_routes_name_an_intervened_edge_without_idle_mass(self, forced, route):
        # the d-event route once divided by the zero idle total first
        with pytest.raises(UndefinedConditional, match=r"^no conditioned mass through w2->w8#1$"):
            route(forced, self.W2_HAT, "fail")

    def test_the_oracle_finds_no_intervened_mass(self, forced):
        with pytest.raises(UndefinedConditional, match="^intervened path set has no mass$"):
            brute_force_effect(forced, self.W2_HAT, "fail")

    def test_an_edge_without_idle_mass_is_named_before_a_leak(self, forced):
        # w6 keeps its mass, so the oracle answers; 'fail' also labels
        # w7->winf_f#1, outside w*, but the table both routes read fails first
        hat = StochasticManipulation(theta_hat={"w2": (0.5, 0.5), "w6": (0.4, 0.6)})
        assert brute_force_effect(forced, hat, "fail") > 0.0
        with pytest.raises(UndefinedConditional, match=r"^no conditioned mass through w2->w8#1$"):
            causal.stochastic_answer(forced, hat, "fail")

    def test_a_forced_edge_on_no_path_with_mass(self, forced):
        with pytest.raises(UndefinedConditional, match="^forced path set has no mass$"):
            forced_edge_effect(forced, "w2->w8#1", "fail")

    def test_an_adjustment_block_that_misses_a_controlled_devent(self, bushing):
        # with w1->w4#1 forced, no path through w0->w1 that has mass reaches
        # w6 or w7, so the blocks u7 and u8 hold no 'endogenous' mass
        graph = singular_manipulation(bushing, "w1->w4#1")
        partition, report = search_backdoor_partition(graph, ["w0"], "endogenous")
        assert report.passed
        assert (partition.kind, partition.labels) == ("stages", ("u7:w6", "u8:w7", "u6:w8"))
        hat = StochasticManipulation(theta_hat={"w0": (0.5, 0.5)})
        with pytest.raises(
            UndefinedConditional,
            match=r"^no conditioned mass for d-event 'endogenous' within a block$",
        ):
            backdoor_adjustment(graph, hat, partition, "endogenous")


def test_forced_edge_effect_rejects_an_edge_outside_the_graph(bushing):
    with pytest.raises(UnknownEdge, match=r"^no edge w0->w9#1$"):
        forced_edge_effect(bushing, Edge("w0", "w9", "x", 1), "fail")


def test_the_rounding_margin_gives_up_past_2_to_the_48_terms():
    # n = 3 * paths + positions + 2 rounding steps; at 2**48 or more the
    # bound is no longer small, and the screen passes every candidate
    assert causal._rounding_margin(2**47, 10, 1e-12) == math.inf
    assert causal._rounding_margin(2**46, 10, 1e-12) < 1.0


SYMPTOM_BLOCKS = [
    ["oil_leak", "oil_loss", "thermal"],
    ["no_leak", "oil_mix", "electrical"],
]


class TestKernelPasses:
    @pytest.mark.parametrize(
        "fixture_name,manipulation",
        [
            ("bushing", BUSHING_HAT),
            # leak_low also labels w2->w5#1, outside w*
            ("conservator", StochasticManipulation(theta_hat={"w1": (0.4, 0.6)})),
        ],
    )
    def test_edge_level_route_makes_two_forward_passes(
        self, request, work, fixture_name, manipulation
    ):
        graph = request.getfixturevalue(fixture_name)
        causal_effect_edge_level(graph, manipulation, "fail")
        # the idle table and the pass under the replacement
        assert (work["forward_messages"], work["backward_messages"]) == (2, 0)

    def test_a_search_with_no_candidate_makes_no_backward_pass(self, bushing, work):
        # w6's out-edges end in sinks, so no slice lies below it
        assert search_backdoor_partition(bushing, ["w6"], "fail") is None
        assert (work["forward_messages"], work["backward_messages"]) == (0, 0)
        idle = causal._IdleTable(bushing, "fail", ("w6",))
        assert causal._search(bushing, ["w6"], "fail", idle) is None
        assert (work["forward_messages"], work["backward_messages"]) == (1, 0)


class TestBackdoorCheck:
    def test_bushing_symptom_partition_passes(self, bushing):
        part = partition_from_selectors(bushing, "devents", SYMPTOM_BLOCKS)
        report = check_backdoor_partition(bushing, ("w1",), part, "fail")
        assert report.passed
        assert not report.failures()
        assert {c.criterion for c in report.comparisons} == {1, 2}

    def test_conservator_stage_partition_passes(self, conservator):
        part = partition_from_selectors(
            conservator, "stages", [["u2"], ["u3"]]
        )
        report = check_backdoor_partition(conservator, ("w0",), part, "fail")
        assert report.passed

    def test_broken_model_fails_with_both_sides(self):
        broken = ceg_from_document(fixtures.bushing_broken_document())
        part = partition_from_selectors(broken, "devents", SYMPTOM_BLOCKS)
        report = check_backdoor_partition(broken, ("w1",), part, "fail")
        assert not report.passed
        bad = report.failures()[0]
        assert bad.lhs != bad.rhs
        assert abs(bad.lhs - bad.rhs) > broken.tolerance

    def test_not_covering(self, bushing):
        part = partition_from_selectors(
            bushing, "positions", [["w3"], ["w4"]]
        )
        with pytest.raises(NotAPartition):
            check_backdoor_partition(bushing, ("w1",), part, "fail")

    def test_overlap(self, bushing):
        part = partition_from_selectors(
            bushing, "positions", [["w3"], ["w3", "w4", "w5"]]
        )
        with pytest.raises(NotAPartition):
            check_backdoor_partition(bushing, ("w1",), part, "fail")

    def test_empty_block(self, bushing):
        # w2 paths are outside the intervened path set
        part = partition_from_selectors(
            bushing, "positions", [["w3"], ["w4", "w5"], ["w2"]]
        )
        with pytest.raises(NotAPartition):
            check_backdoor_partition(bushing, ("w1",), part, "fail")

    def test_no_blocks(self, bushing):
        with pytest.raises(NotAPartition):
            check_backdoor_partition(
                bushing, ("w1",), BackdoorPartition((), (), "custom"), "fail"
            )

    def test_raw_edge_blocks_accepted(self, bushing):
        # symptom edges as references and as edges, outside a BackdoorPartition
        second = (("w3", "w7"), ("w4", "w8", 2), ("w5", "w8", 2))
        raw = [
            ["w3->w6", "w4->w8#1", "w5->w8#1"],
            [bushing.find_edge(*key) for key in second],
        ]
        report = check_backdoor_partition(bushing, ("w1",), raw, "fail")
        assert report.passed
        assert {c.block for c in report.comparisons} == {"block 0", "block 1"}
        want = check_backdoor_partition(
            bushing,
            ("w1",),
            partition_from_selectors(bushing, "devents", SYMPTOM_BLOCKS),
            "fail",
        )
        assert [(c.lhs, c.rhs) for c in report.comparisons] == [
            (c.lhs, c.rhs) for c in want.comparisons
        ]


class TestAdjustment:
    def test_bushing_value(self, bushing):
        part = partition_from_selectors(bushing, "devents", SYMPTOM_BLOCKS)
        value = backdoor_adjustment(bushing, BUSHING_HAT, part, "fail")
        assert value == pytest.approx(BUSHING_EFFECT, abs=1e-12)

    def test_conservator_value(self, conservator):
        part = partition_from_selectors(
            conservator, "stages", [["u2"], ["u3"]]
        )
        value = backdoor_adjustment(conservator, CONSERVATOR_HAT, part, "fail")
        assert value == pytest.approx(CONSERVATOR_EFFECT, abs=1e-12)

    def test_invalid_partition_raises(self):
        broken = ceg_from_document(fixtures.bushing_broken_document())
        part = partition_from_selectors(broken, "devents", SYMPTOM_BLOCKS)
        with pytest.raises(PartitionNotValid) as err:
            backdoor_adjustment(broken, BUSHING_HAT, part, "fail")
        assert "criterion" in str(err.value)

    def test_checks_w_star_once(self, bushing, walks):
        part = partition_from_selectors(bushing, "devents", SYMPTOM_BLOCKS)
        walks.clear()
        backdoor_adjustment(bushing, BUSHING_HAT, part, "fail")
        assert walks == [("w1",)]

    def test_randomized_against_brute_force(self, bushing):
        part = partition_from_selectors(bushing, "devents", SYMPTOM_BLOCKS)
        rng = random.Random(23)
        for _ in range(10):
            raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
            total = math.fsum(raw)
            m = StochasticManipulation(
                theta_hat={"w1": tuple(x / total for x in raw)}
            )
            assert backdoor_adjustment(bushing, m, part, "fail") == pytest.approx(
                brute_force_effect(bushing, m, "fail"), abs=1e-12
            )


class TestPartitionSelectors:
    def test_kinds_resolve(self, bushing):
        by_pos = partition_from_selectors(
            bushing, "positions", [["w3"], ["w4"], ["w5"]]
        )
        assert by_pos.kind == "positions"
        assert by_pos.labels == ("w3", "w4", "w5")
        by_edge = partition_from_selectors(
            bushing,
            "edges",
            [["w1->w3#1", "w1->w3#2"], ["w1->w4#1"], ["w1->w5#1"]],
        )
        assert by_edge.labels[0] == "w1->w3#1,w1->w3#2"

    def test_unknown_ids(self, bushing):
        with pytest.raises(UnknownSelector):
            partition_from_selectors(bushing, "devents", [["melt"]])
        with pytest.raises(PositionNotInCeg):
            partition_from_selectors(bushing, "positions", [["w99"]])
        with pytest.raises(UnknownSelector):
            partition_from_selectors(bushing, "stages", [["u99"]])
        with pytest.raises(UnknownSelector):
            partition_from_selectors(bushing, "florets", [["w3"]])


class TestSearch:
    def test_bushing_finds_symptom_colours(self, bushing):
        found = search_backdoor_partition(bushing, ("w1",), "fail")
        assert found is not None
        part, report = found
        assert report.passed
        assert part.kind == "colour"
        assert len(part.blocks) == 2

    def test_colour_classes_merge_within_tolerance(self):
        theta = fixtures.bushing_theta()
        theta["v5"] = (0.55 + 4e-10, 0.45 - 4e-10)  # off v3/v6's (0.55, 0.45)
        graph = ceg_from_document(fixtures.bushing_document(theta), tolerance=1e-9)
        part, report = search_backdoor_partition(graph, ("w1",), "fail")
        assert report.passed
        assert part.kind == "colour"
        assert {frozenset(e.devent for e in block) for block in part.blocks} == {
            frozenset({"oil_leak", "oil_loss", "thermal"}),
            frozenset({"no_leak", "oil_mix", "electrical"}),
        }
        # each class is labelled by its least value
        assert part.labels == (
            "oil_leak+oil_loss+thermal@0.55",
            "no_leak+oil_mix+electrical@0.4499999996",
        )

    def test_conservator_finds_stage_partition(self, conservator):
        found = search_backdoor_partition(conservator, ("w0",), "fail")
        assert found is not None
        part, report = found
        assert part.kind == "stages"
        labelled = {frozenset(l.split(":")[1].split("+")) for l in part.labels}
        assert labelled == {
            frozenset({"w3", "w5"}),
            frozenset({"w4", "w6"}),
        }

    def test_twin_finds_symptom_colours(self, twin):
        found = search_backdoor_partition(twin, ("w1", "w2"), "fail")
        assert found is not None
        part, report = found
        assert part.kind == "colour"

    def test_search_agrees_with_brute_force(self, bushing):
        part, _ = search_backdoor_partition(bushing, ("w1",), "fail")
        value = backdoor_adjustment(bushing, BUSHING_HAT, part, "fail")
        assert value == pytest.approx(BUSHING_EFFECT, abs=1e-12)

    def test_a_mixed_depth_cut_verifies_outside_the_search(self):
        # NOT FOUND is scoped to groupings of one crossing slice.  On the cut
        # {w2, w3, w4, w5} below w0, of mixed depth, this partition verifies:
        # each block has mass 0.4 or 0.6 under both root edges, a coincidence
        # of the fixture's round decimals, not of stage or colour structure
        broken = ceg_from_document(fixtures.bushing_broken_document())
        first = ["w2->w8#2", "w3->w7#1", "w4->w8#1"]
        cut = [str(e) for w in ("w2", "w3", "w4", "w5") for e in broken.out_edges(w)]
        rest = [e for e in cut if e not in first]
        assert len(rest) == 5
        part = partition_from_selectors(broken, "edges", [first, rest])
        report = check_backdoor_partition(broken, ("w0",), part, "fail")
        assert report.passed
        assert max(abs(c.lhs - c.rhs) for c in report.comparisons) < 1e-15
        assert search_backdoor_partition(broken, ("w0",), "fail") is None

    @pytest.mark.parametrize(
        "name,w_star",
        [
            ("bushing", ("w1",)),
            ("bushing_broken", ("w1",)),
            ("conservator", ("w0",)),
            ("twin", ("w1", "w2")),
        ],
    )
    def test_two_screening_passes_and_one_per_full_check(self, monkeypatch, name, w_star):
        graph = ceg_from_document(fixtures.all_documents()[name])
        layers, _ = causal._crossing_layers(graph, causal.check_separate(graph, w_star))
        candidates = list(causal._candidates(graph, layers))
        slices = {d for d, _, _, _ in candidates}
        calls = dict.fromkeys(
            ("forward_messages", "backward_messages", "class_masses",
             "check_separate", "check_backdoor_partition"),
            0,
        )

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        for fn_name in calls:
            monkeypatch.setattr(causal, fn_name, counted(getattr(causal, fn_name)))
        calls["passes"] = 0
        monkeypatch.setattr(causal._IdleTable, "passes", counted(causal._IdleTable.passes))
        found = search_backdoor_partition(graph, w_star, "fail")
        # a grouping already screened on its slice is not screened again
        distinct = {(d, block) for d, _, block, _ in candidates}
        assert calls["passes"] <= len(distinct)
        assert found is not None or calls["passes"] == len(distinct) < len(candidates)
        assert calls["check_separate"] == 1
        # one forward and one backward pass screen every slice, and each
        # full check of a candidate that survives the screen is one forward pass
        assert len(candidates) > len(slices) > 1
        assert calls["forward_messages"] == 1 + calls["check_backdoor_partition"]
        assert calls["check_backdoor_partition"] >= (found is not None)
        assert calls["backward_messages"] == 1
        assert calls["class_masses"] == 0


    def test_a_search_that_finds_nothing_combines_only_the_edges_read(self, monkeypatch):
        # on a fresh tree every candidate fails at its first comparison,
        # which reads the first block's row alone
        payload = ladder.ladder_document("fresh", 3, 2, seed=1)
        graph = ceg_from_document(model_io.loads(json.dumps(payload)))
        made = []

        class Recorded(causal._IdleTable):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(causal, "_IdleTable", Recorded)
        assert search_backdoor_partition(graph, [graph.root], "fail") is None
        (screen,) = made
        layers, _ = causal._crossing_layers(graph, causal.check_separate(graph, [graph.root]))
        slice_edges = sum(len(graph.out_edges(w)) for layer in layers for w in layer)
        assert 0 < len(screen.combined) < slice_edges


class TestRemedial:
    PRIOR = DirichletFloretPrior(
        alpha={"w1": (3.0, 2.0, 2.5, 2.5), "w2": (3.0, 2.0)},
        eta={"w1": (1.0, 1.0, 1.0, 1.0), "w2": (1.0, 1.0)},
    )

    def _gasket(self, bushing):
        return bushing.find_edge("w1", "w3", 1)

    def test_breakdown_rows(self, bushing):
        fix = frozenset({self._gasket(bushing)})
        record = RemedialRecord(
            remedy="swap",
            delta=0,
            actions=(
                HiddenAction(
                    id="swap_seal",
                    prob=0.6,
                    outcomes=((fix, 0.5), (frozenset(), 0.5)),
                ),
                HiddenAction(
                    id="no_action", prob=0.4, outcomes=((frozenset(), 1.0),)
                ),
            ),
        )
        rows = remedial_breakdown(bushing, record, self.PRIOR, "fail")
        assert [(w, r, a) for w, r, a, _ in rows] == [
            (0.3, fix, "swap_seal"),
            (0.3, frozenset(), "swap_seal"),
            (0.4, frozenset(), "no_action"),
        ]
        idle = idle_target_mass(bushing, "fail")
        assert rows[1][3] == pytest.approx(idle, abs=1e-12)
        assert rows[2][3] == pytest.approx(idle, abs=1e-12)

        # remedied effect equals the edge-level route under the posterior mean
        total = 3.0 + 3.0 + 3.5 + 3.5
        mean = StochasticManipulation(
            theta_hat={
                "w1": (3.0 / total, 3.0 / total, 3.5 / total, 3.5 / total)
            }
        )
        assert rows[0][3] == pytest.approx(
            brute_force_effect(bushing, mean, "fail"), abs=1e-12
        )

    def test_expected_effect_is_convex_mixture(self, bushing):
        fix = frozenset({self._gasket(bushing)})
        record = RemedialRecord(
            remedy="swap",
            delta=0,
            actions=(
                HiddenAction(
                    id="swap_seal",
                    prob=0.6,
                    outcomes=((fix, 0.5), (frozenset(), 0.5)),
                ),
                HiddenAction(
                    id="no_action", prob=0.4, outcomes=((frozenset(), 1.0),)
                ),
            ),
        )
        rows = remedial_breakdown(bushing, record, self.PRIOR, "fail")
        want = math.fsum(w * eff for w, _, _, eff in rows)
        got = oracles.expected_effect_imperfect(bushing, record, self.PRIOR, "fail")
        assert got == pytest.approx(want, abs=1e-15)
        lo = min(eff for _, _, _, eff in rows)
        hi = max(eff for _, _, _, eff in rows)
        assert lo <= got <= hi

    def test_perfect_record_collapses(self, bushing):
        fix = frozenset({self._gasket(bushing)})
        record = RemedialRecord(remedy="swap", delta=1, indicators=fix)
        rows = remedial_breakdown(bushing, record, self.PRIOR, "fail")
        assert len(rows) == 1
        assert rows[0][0] == 1.0
        assert oracles.expected_effect_imperfect(
            bushing, record, self.PRIOR, "fail"
        ) == pytest.approx(rows[0][3], abs=1e-15)
