"""Acceptance suite for the bundled reliability models.

Every check prints exactly one pass/fail line on the real stdout so the
verdicts stay visible under output capture.  All numeric comparisons run
at an absolute tolerance of 1e-12.
"""

import math
import random
import time
from contextlib import contextmanager

from cegkit import fixtures
from cegkit.causal import (
    backdoor_adjustment,
    brute_force_effect,
    causal_effect_devent,
    causal_effect_edge_level,
    check_backdoor_partition,
    idle_target_mass,
    partition_from_selectors,
    remedial_breakdown,
)
from cegkit.ceg import ceg_from_document, is_fine_cut
from cegkit.errors import IdenticalTheta
from cegkit.event_tree import build_event_tree
from cegkit.intervention import (
    DirichletFloretPrior,
    HiddenAction,
    RemedialRecord,
    StochasticManipulation,
    conditioned_ceg,
    manipulation_from_indicators,
    root_cause_edges,
)
from cegkit.staging import compute_positions, staged_tree_from_document

import oracles
from random_trees import random_tree_document

TOL = 1e-12

SYMPTOM_BLOCKS = [
    ["oil_leak", "oil_loss", "thermal"],
    ["no_leak", "oil_mix", "electrical"],
]


@contextmanager
def criterion(number: int, label: str, cap):
    """Print one verdict line outside pytest's capture."""
    try:
        yield
    except BaseException:
        with cap.disabled():
            print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    with cap.disabled():
        print(f"criterion {number} ({label}): PASS", flush=True)


def test_criterion_1_position_merge(capsys):
    with criterion(1, "bushing position merge", capsys):
        doc = fixtures.bushing_document()
        start = time.perf_counter()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        positions = compute_positions(staged)
        elapsed = time.perf_counter() - start
        listing = {
            wid: frozenset(block)
            for wid, block in zip(positions.ids, positions.blocks)
        }
        assert listing == {
            "w0": frozenset({"v0"}),
            "w1": frozenset({"v1"}),
            "w2": frozenset({"v2"}),
            "w3": frozenset({"v3", "v4"}),
            "w4": frozenset({"v5"}),
            "w5": frozenset({"v6"}),
            "w6": frozenset({"v9", "v11"}),
            "w7": frozenset({"v10", "v12"}),
            "w8": frozenset({"v7", "v8", "v13", "v14", "v15", "v16"}),
        }
        assert elapsed < 1.0


def test_criterion_2_graph_shape(capsys):
    with criterion(2, "bushing graph shape", capsys):
        graph = ceg_from_document(fixtures.bushing_document())
        assert len(graph.position_ids) == 9
        assert len(graph.sinks) == 2
        by_pair = {}
        for e in graph.edges:
            by_pair.setdefault((e.src, e.dst), []).append(e)
        doubled = {pair for pair, es in by_pair.items() if len(es) == 2}
        assert doubled == {
            ("w1", "w3"),
            ("w4", "w8"),
            ("w5", "w8"),
            ("w2", "w8"),
        }
        assert len(oracles.graph_paths(graph)) == 20


def _symptom_identity_spread(graph) -> float:
    """Worst |lhs - rhs| over the per-edge screening identities.

    For every cause edge at the intervened position the chance of each
    symptom edge, conditioned on that cause, must equal the conditioned
    graph's transition probability on the symptom edge.
    """
    cond = conditioned_ceg(graph, ("w1",))
    paths = oracles.graph_paths(cond)
    pi = {p: math.prod(cond.theta[e] for e in p) for p in paths}
    worst = 0.0
    for cause in cond.out_edges("w1"):
        mass_cause = math.fsum(pi[p] for p in paths if cause in p)
        for symptom in cond.out_edges(cause.dst):
            joint = math.fsum(
                pi[p] for p in paths if cause in p and symptom in p
            )
            lhs = joint / mass_cause
            rhs = cond.theta[symptom]
            worst = max(worst, abs(lhs - rhs))
    return worst


def test_criterion_3_symptom_partition_random_colourings(capsys):
    with criterion(3, "symptom partition under random colourings", capsys):
        checked = 0
        for seed in (None, 101, 202, 303):
            theta = None if seed is None else fixtures.bushing_theta(seed)
            graph = ceg_from_document(fixtures.bushing_document(theta))
            part = partition_from_selectors(
                graph, "devents", SYMPTOM_BLOCKS
            )
            report = check_backdoor_partition(graph, ("w1",), part, "fail")
            assert report.passed, f"seed {seed}"
            for c in report.comparisons:
                if not c.vacuous:
                    assert abs(c.lhs - c.rhs) <= TOL
            assert _symptom_identity_spread(graph) <= TOL
            checked += 1
        assert checked >= 4


def test_criterion_4_conservator_stage_partition(capsys):
    with criterion(4, "conservator stage partition and fine cut", capsys):
        graph = ceg_from_document(fixtures.conservator_document())
        part = partition_from_selectors(
            graph, "stages", [["u2"], ["u3"]]
        )
        report = check_backdoor_partition(graph, ("w0",), part, "fail")
        assert report.passed
        # the stage blocks are exactly {w3, w5} and {w4, w6}
        u2 = {w for w in graph.position_ids if graph.stage_ids[w] == "u2"}
        u3 = {w for w in graph.position_ids if graph.stage_ids[w] == "u3"}
        assert u2 == {"w3", "w5"}
        assert u3 == {"w4", "w6"}
        assert is_fine_cut(graph, ("w0",))
        # cause independence: the first symptom's chance does not move when
        # conditioning on the first cause edge
        paths = oracles.graph_paths(graph)
        cause = graph.find_edge("w0", "w1")
        lam_cause = frozenset(p for p in paths if cause in p)
        lam_z1 = frozenset(p for p in paths if any(e.dst in ("w3", "w5") for e in p))

        def mass(lam):
            return oracles.path_mass(lam, graph.theta)

        given = mass(lam_z1 & lam_cause) / mass(lam_cause)
        marginal = mass(lam_z1)
        edge_theta = graph.theta[graph.find_edge("w1", "w3")]
        assert abs(given - edge_theta) <= TOL
        assert abs(marginal - edge_theta) <= TOL


def test_criterion_5_route_equivalence_randomized(capsys):
    with criterion(5, "effect route equivalence on random manipulations", capsys):
        cases = [
            (
                ceg_from_document(fixtures.bushing_document()),
                ("w1",),
                ("devents", SYMPTOM_BLOCKS),
            ),
            (
                ceg_from_document(fixtures.conservator_document()),
                ("w0",),
                ("stages", [["u2"], ["u3"]]),
            ),
            (
                ceg_from_document(fixtures.twin_document()),
                ("w1", "w2"),
                ("devents", [["leak", "overheat"], ["dry", "temp_normal"]]),
            ),
        ]
        rng = random.Random(4242)

        def rand_vec(k):
            raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
            total = math.fsum(raw)
            return tuple(x / total for x in raw)

        start = time.perf_counter()
        trials = 0
        for graph, star, (kind, blocks) in cases:
            part = partition_from_selectors(graph, kind, blocks)
            for _ in range(50):
                hat = {w: rand_vec(len(graph.out_edges(w))) for w in star}
                m = StochasticManipulation(theta_hat=hat)
                reference = brute_force_effect(graph, m, "fail")
                assert abs(causal_effect_devent(graph, m, "fail") - reference) <= TOL
                assert (
                    abs(causal_effect_edge_level(graph, m, "fail") - reference)
                    <= TOL
                )
                assert (
                    abs(backdoor_adjustment(graph, m, part, "fail") - reference)
                    <= TOL
                )
                trials += 1
        elapsed = time.perf_counter() - start
        assert trials == 150
        assert elapsed < 10.0


def test_criterion_6_random_tree_invariants(capsys):
    with criterion(6, "random tree mass invariants", capsys):
        start = time.perf_counter()
        for seed in range(1000):
            doc = random_tree_document(seed)
            graph = ceg_from_document(doc)
            paths = oracles.graph_paths(graph)
            assert all(len(p) <= 6 for p in paths)
            assert abs(oracles.path_mass(paths, graph.theta) - 1.0) <= TOL

            interior = graph.position_ids[1:]
            w = interior[seed % len(interior)] if interior else graph.root
            cond = conditioned_ceg(graph, (w,))
            for wid in cond.position_ids:
                assert abs(math.fsum(cond.theta_vector(wid)) - 1.0) <= TOL

            root = graph.root
            k = len(graph.out_edges(root))
            weights = list(range(1, k + 1))
            total = sum(weights)
            vec = tuple(x / total for x in weights)
            if vec == graph.theta_vector(root):
                vec = tuple(x / (total + k) for x in range(2, k + 2))
            try:
                m = StochasticManipulation(theta_hat={root: vec})
                manipulated = conditioned_ceg(graph, (root,), m)
            except IdenticalTheta:
                continue
            man_paths = oracles.graph_paths(manipulated)
            pi_hat = {p: math.prod(manipulated.theta[e] for e in p) for p in man_paths}
            assert abs(math.fsum(pi_hat.values()) - 1.0) <= TOL
            per_devent = []
            for x in dict.fromkeys(e.devent for e in manipulated.out_edges(root)):
                per_devent.append(
                    math.fsum(
                        pi_hat[p]
                        for p in man_paths
                        if any(e.devent == x for e in p)
                    )
                )
            assert abs(math.fsum(per_devent) - 1.0) <= TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_7_remedial_mixture_algebra(capsys):
    with criterion(7, "remedial mixture algebra", capsys):
        graph = ceg_from_document(fixtures.bushing_document())
        prior = DirichletFloretPrior(
            alpha={"w1": (3.0, 2.0, 2.5, 2.5), "w2": (3.0, 2.0)},
            eta={"w1": (1.0, 1.0, 1.0, 1.0), "w2": (1.0, 1.0)},
        )
        gasket = graph.find_edge("w1", "w3", 1)
        fix = frozenset({gasket})

        # the posterior mean vector, written out by hand
        posterior = (3.0, 2.0 + 1.0, 2.5 + 1.0, 2.5 + 1.0)
        norm = math.fsum(posterior)
        hand_hat = tuple(a / norm for a in posterior)
        hand_effect = brute_force_effect(
            graph, StochasticManipulation(theta_hat={"w1": hand_hat}), "fail"
        )
        idle = idle_target_mass(graph, "fail")

        # a recorded remedy that worked is a point mass on its indicators
        perfect = RemedialRecord(remedy="swap", delta=1, indicators=fix)
        rows = remedial_breakdown(graph, perfect, prior, "fail")
        assert len(rows) == 1
        assert rows[0][0] == 1.0
        assert abs(rows[0][3] - hand_effect) <= TOL
        assert (
            abs(oracles.expected_effect_imperfect(graph, perfect, prior, "fail") - hand_effect)
            <= TOL
        )

        # a remedy that did not work mixes over the hidden actions
        imperfect = RemedialRecord(
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
        rows = remedial_breakdown(graph, imperfect, prior, "fail")
        assert [(w, r) for w, r, _, _ in rows] == [
            (0.3, fix),
            (0.3, frozenset()),
            (0.4, frozenset()),
        ]
        hand_mixture = 0.3 * hand_effect + 0.3 * idle + 0.4 * idle
        got = oracles.expected_effect_imperfect(graph, imperfect, prior, "fail")
        assert abs(got - hand_mixture) <= TOL


def test_criterion_8_dirichlet_update(capsys):
    with criterion(8, "Dirichlet posterior update", capsys):
        graph = ceg_from_document(fixtures.bushing_document())
        alpha, eta = (3.0, 2.0, 2.5, 2.5), (0.5, 1.0, 1.5, 2.0)
        prior = DirichletFloretPrior(alpha={"w1": alpha}, eta={"w1": eta})
        edges = graph.out_edges("w1")

        def manipulation(bits):
            indicators = dict.fromkeys(root_cause_edges(graph), 0) | dict(zip(edges, bits))
            return manipulation_from_indicators(graph, indicators, prior)

        # alpha + eta * (1 - I), normalised by its exact sum
        post = (3.0 + 0.5, 2.0, 2.5 + 1.5, 2.5)
        want = tuple(x / math.fsum(post) for x in post)
        assert manipulation((0, 1, 0, 1)).theta_hat["w1"] == want
        # every cause remedied leaves the prior's own mean, which here is
        # w1's idle vector, so no position is intervened
        assert graph.theta_vector("w1") == tuple(a / math.fsum(alpha) for a in alpha)
        assert manipulation((1, 1, 1, 1)) is None


def test_criterion_9_negative_control(capsys):
    with criterion(9, "negative control rejects the broken model", capsys):
        graph = ceg_from_document(fixtures.bushing_broken_document())
        part = partition_from_selectors(
            graph, "devents", SYMPTOM_BLOCKS
        )
        report = check_backdoor_partition(graph, ("w1",), part, "fail")
        assert not report.passed
        failures = report.failures()
        assert failures
        bad = failures[0]
        assert bad.criterion in (1, 2)
        assert math.isfinite(bad.lhs) and math.isfinite(bad.rhs)
        assert abs(bad.lhs - bad.rhs) > TOL
