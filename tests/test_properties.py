import dataclasses
import functools
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cegkit import fixtures, model_io
from cegkit.causal import (
    brute_force_effect,
    check_backdoor_partition,
    forced_edge_effect,
    partition_from_selectors,
    search_backdoor_partition,
)
from cegkit import causal, ceg as ceg_module, intervention as intervention_module
from cegkit.ceg import class_masses, ceg_from_document, forward_messages
from cegkit.errors import (
    ControlledEventLeaksOutsideIntervention,
    IdenticalTheta,
    OutOfOpenInterval,
    OverlappingIntervention,
)
from cegkit.event_tree import Edge, build_event_tree
from cegkit.intervention import (
    DirichletFloretPrior,
    StochasticManipulation,
    check_separate,
    conditioned_ceg,
    manipulation_from_indicators,
    validate_stochastic,
)
from cegkit.staging import (
    compute_positions,
    compute_stages,
    staged_tree_from_document,
)

import oracles
from random_trees import random_tree_document

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's size ladder)

seeds = st.integers(min_value=0, max_value=10_000)


def _spread_vector(k: int, shift: int = 1) -> tuple[float, ...]:
    weights = [i + shift for i in range(1, k + 1)]
    total = sum(weights)
    return tuple(w / total for w in weights)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_tree_mass_and_stage_oracle(seed):
    doc = random_tree_document(seed)
    ptree = build_event_tree(doc)
    total = math.fsum(
        oracles.tree_path_probability(doc, p) for p in oracles.tree_paths(doc)
    )
    assert abs(total - 1.0) <= 1e-12
    staged = staged_tree_from_document(doc, ptree)
    got = {frozenset(b) for b in staged.stages.blocks}
    assert got == set(oracles.stage_blocks(doc))


def _layered_document(depth: int, width: int, rng: random.Random):
    """A layered tree whose situations share one transition vector per
    layer, so every layer is one stage until its florets are perturbed."""
    vertices, edges, status, theta, layer = ["v0"], [], {}, {}, ["v0"]
    for k in range(depth + 1):
        labels = [f"d{k}_{j}" for j in range(width)] if k < depth else ["fail", "no_fail"]
        raw = [rng.uniform(0.2, 1.0) for _ in labels]
        vec = [x / sum(raw) for x in raw]
        nxt = []
        for v in layer:
            theta[v] = vec
            for label in labels:
                child = f"v{len(vertices)}"
                vertices.append(child)
                edges.append({"src": v, "dst": child, "devent": label})
                if k < depth:
                    nxt.append(child)
                else:
                    status[child] = "failed" if label == "fail" else "operational"
        layer = nxt
    devents = dict.fromkeys(e["devent"] for e in edges)
    return model_io.loads(
        json.dumps(
            {
                "name": "layered",
                "devents": [{"id": d} for d in devents],
                "vertices": vertices,
                "edges": edges,
                "leaf_status": status,
                "theta": theta,
            }
        )
    )


# shifts in units of the tolerance: neighbours 0.4 or 0.8 apart match, so
# e.g. -0.4 and 1.2 share a stage only through 0.4; 3 stays apart.  Every
# coordinate but the last moves on its own, so sorted neighbours are not
# the only candidates to match
TOLERANCE_SHIFTS = (0.0, 0.4, -0.4, 0.8, -0.8, 1.2, -1.2, 3.0)


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3)),
    st.data(),
)
def test_stages_close_tolerance_transitively(seed, depth, width, tol, data):
    doc = _layered_document(depth, width, random.Random(seed))
    theta = {}
    for v, vec in doc.theta.items():
        shifts = [data.draw(st.sampled_from(TOLERANCE_SHIFTS)) * tol for _ in vec[1:]]
        theta[v] = (*(p + s for p, s in zip(vec, shifts)), vec[-1] - math.fsum(shifts))
    doc = dataclasses.replace(doc, theta=theta)
    ptree = build_event_tree(doc, tol)
    got = {frozenset(b) for b in compute_stages(ptree).blocks}
    assert got == set(oracles.tolerance_stage_blocks(doc, tol))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_ceg_quotient_invariants(seed):
    doc = random_tree_document(seed)
    graph = ceg_from_document(doc)
    paths = oracles.graph_paths(graph)
    assert abs(oracles.path_mass(paths, graph.theta) - 1.0) <= 1e-12
    for w in graph.position_ids:
        assert abs(math.fsum(graph.theta_vector(w)) - 1.0) <= 1e-12
    # positions refine stages: a position's members share one stage
    staged = staged_tree_from_document(doc, build_event_tree(doc))
    positions = compute_positions(staged)
    for block in positions.blocks:
        stages = {staged.stages.stage_id(v) for v in block}
        assert len(stages) == 1
    # quotient loses no probability: failure mass matches the document
    want = oracles.event_mass(doc, oracles.hits_devent("fail"))
    failed = [p for p in paths if p[-1].dst == ceg_module.SINK_FAIL]
    assert abs(oracles.path_mass(failed, graph.theta) - want) <= 1e-12


# `ceg build` prints `fine_cut_root: YES` without running the check
@settings(max_examples=40, deadline=None)
@given(seeds)
def test_root_is_a_fine_cut(seed):
    graph = ceg_from_document(random_tree_document(seed))
    assert ceg_module.is_fine_cut(graph, (graph.root,))


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_root_is_a_fine_cut_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    assert ceg_module.is_fine_cut(graph, (graph.root,))


@settings(max_examples=60, deadline=None)
@given(seeds, st.data())
def test_plan_fine_cut_equals_is_fine_cut(seed, data):
    # a stochastic query reads fine_cut from its decomposition table's keys
    graph = ceg_from_document(random_tree_document(seed))
    w_star = data.draw(st.sets(st.sampled_from(graph.position_ids), min_size=1, max_size=3))
    try:
        star = check_separate(graph, w_star).star
    except OverlappingIntervention:
        assume(False)
    _, _, fine_cut = causal._edge_rows(graph, causal._IdleTable(graph, "fail", star), graph.theta)
    assert fine_cut == ceg_module.is_fine_cut(graph, w_star)


def _shared_root_devent(doc):
    """The document with one d-event labelling every root edge."""
    root = doc.vertices[0]
    edges = tuple(
        e._replace(devent=doc.edges[0].devent) if e.src == root else e for e in doc.edges
    )
    return dataclasses.replace(doc, edges=edges)


def _assert_edge_rows_equal_the_two_pass_reference(graph, w_star, rng):
    """The decomposition table, bit for bit, against its two-weighting
    reference: the routes' own table everywhere, so the edge-level value
    too, and a query's shared table wherever no controlled d-event leaks
    out of w*, which is everywhere a query answers.  Where one leaks, the
    shared table's d-event bits can split a (target, edge) class, and only
    its fine cut and manipulated masses are pinned."""
    star = check_separate(graph, w_star).star
    raws = {w: [rng.randint(1, 9) for _ in graph.out_edges(w)] for w in star}
    theta_hat = {w: tuple(x / sum(raw) for x in raw) for w, raw in raws.items()}
    hat = oracles.replaced_theta(graph, theta_hat)
    manipulation = StochasticManipulation(theta_hat)
    try:  # a one-edge floret has no replacement, nor has an idle vector
        validate_stochastic(graph, manipulation)
    except (IdenticalTheta, OutOfOpenInterval):
        manipulation = None
    controlled = {e.devent for e in graph.edges if e.src in star}
    leaks = any(e.devent in controlled and e.src not in star for e in graph.edges)
    for target in sorted(graph.devents):
        want = oracles.edge_rows(graph, star, hat, target)
        routes = causal._IdleTable(graph, target, star, screen=False)
        assert causal._edge_rows(graph, routes, hat) == want
        if manipulation and all(through > 0.0 for through, _, _ in want[1]):
            value = causal._edge_value(want[1])
            assert causal.causal_effect_edge_level(graph, manipulation, target) == value
        crossed, rows, fine_cut = causal._edge_rows(
            graph, causal._IdleTable(graph, target, star), hat
        )
        if leaks:
            rows, want = [r[2] for r in rows], (want[0], [r[2] for r in want[1]], want[2])
        assert (crossed, rows, fine_cut) == want


@settings(max_examples=150, deadline=None)
@given(seeds, st.booleans(), st.booleans(), st.data())
def test_edge_rows_equal_the_two_pass_reference(seed, repeat, shared, data):
    doc = random_tree_document(seed, repeat_devents=repeat)
    graph = ceg_from_document(_shared_root_devent(doc) if shared else doc)
    star = _draw_w_star(graph, data)
    _assert_edge_rows_equal_the_two_pass_reference(graph, star, random.Random(seed))


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_edge_rows_equal_the_two_pass_reference_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    rng = random.Random(name)
    for star in _fixture_stars(graph):
        _assert_edge_rows_equal_the_two_pass_reference(graph, star, rng)


def _first_leak(graph, star):
    """The first edge in graph order outside w* whose d-event labels an
    intervened edge, or None."""
    controlled = {e.devent for w in star for e in graph.out_edges(w)}
    outside = [e for e in graph.edges if e.src not in star and e.devent in controlled]
    return outside[0] if outside else None


@settings(max_examples=150, deadline=None)
@given(seeds, st.data())
def test_devent_route_raises_exactly_on_a_leak(seed, data):
    graph = ceg_from_document(random_tree_document(seed, repeat_devents=True))
    star = _draw_w_star(graph, data)
    rng = random.Random(seed)
    theta_hat = {}
    for w in star:
        raw = [rng.randint(1, 9) for _ in graph.out_edges(w)]
        theta_hat[w] = tuple(x / sum(raw) for x in raw)
    manipulation = StochasticManipulation(theta_hat)
    try:
        validate_stochastic(graph, manipulation)
    except (IdenticalTheta, OutOfOpenInterval):
        assume(False)
    target = data.draw(st.sampled_from(sorted(graph.devents)))
    leak = _first_leak(graph, star)
    routes = (causal.causal_effect_devent, causal.stochastic_answer)
    if leak is None:
        for route in routes:
            route(graph, manipulation, target)
        return
    message = f"d-event {leak.devent!r} also labels {leak}, outside the intervened florets"
    for route in routes:
        with pytest.raises(ControlledEventLeaksOutsideIntervention) as raised:
            route(graph, manipulation, target)
        assert str(raised.value) == message


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_conditioning_normalizes(seed):
    doc = random_tree_document(seed)
    graph = ceg_from_document(doc)
    targets = [w for w in graph.position_ids[1:]]
    w = targets[seed % len(targets)] if targets else graph.root
    cond = conditioned_ceg(graph, (w,))
    for wid in cond.position_ids:
        assert abs(math.fsum(cond.theta_vector(wid)) - 1.0) <= 1e-12
    assert abs(oracles.path_mass(oracles.graph_paths(cond), cond.theta) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_root_manipulation_tiles_unit_mass(seed):
    doc = random_tree_document(seed)
    graph = ceg_from_document(doc)
    root = graph.root
    k = len(graph.out_edges(root))
    vec = _spread_vector(k)
    if vec == graph.theta_vector(root):
        vec = _spread_vector(k, shift=2)
    try:
        manipulation = StochasticManipulation(theta_hat={root: vec})
        manipulated = conditioned_ceg(graph, (root,), manipulation)
    except IdenticalTheta:
        assume(False)
    paths = oracles.graph_paths(manipulated)
    assert abs(oracles.path_mass(paths, manipulated.theta) - 1.0) <= 1e-12
    # root edges tile the path set, so their replaced masses sum to one
    per_edge = [
        oracles.path_mass([p for p in paths if e in p], manipulated.theta)
        for e in manipulated.out_edges(root)
    ]
    assert abs(math.fsum(per_edge) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds, st.data())
def test_kernel_class_masses_match_enumeration(seed, data):
    graph = ceg_from_document(random_tree_document(seed))
    w_star = data.draw(st.sampled_from(graph.position_ids))
    selectors = data.draw(
        st.lists(st.sets(st.sampled_from(sorted(graph.edges))), max_size=4)
    )
    edge_sets = [graph.out_edges(w_star), *selectors]
    vec = _spread_vector(len(graph.out_edges(w_star)))
    manipulated = dataclasses.replace(
        graph, theta={**graph.theta, **dict(zip(graph.out_edges(w_star), vec))}
    )
    table = class_masses(graph, edge_sets, (graph.theta, manipulated.theta))
    by_class: dict[int, list] = {}
    for path in oracles.graph_paths(graph):
        mask = sum(
            1 << i for i, edges in enumerate(edge_sets) if set(edges) & set(path)
        )
        by_class.setdefault(mask, []).append(path)
    assert set(table) == set(by_class)
    for mask, paths in by_class.items():
        idle, hat = table[mask]
        assert abs(idle - oracles.path_mass(paths, graph.theta)) <= 1e-12
        assert abs(hat - oracles.path_mass(paths, manipulated.theta)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds, st.data())
def test_forward_times_backward_matches_enumeration(seed, data):
    # the paths through an edge, by class, from the masses arriving at its
    # source and leaving its destination; from the root, every path
    graph = ceg_from_document(random_tree_document(seed))
    edge_sets = data.draw(
        st.lists(st.sets(st.sampled_from(sorted(graph.edges))), max_size=4)
    )
    edge = data.draw(st.sampled_from(graph.edges))
    forward = forward_messages(graph, edge_sets)
    backward = ceg_module.backward_messages(graph, edge_sets)
    bit = sum(1 << i for i, edges in enumerate(edge_sets) if edge in edges)
    through: dict[int, float] = {}
    for a, head in forward[edge.src].items():
        for b, tail in backward[edge.dst].items():
            mask = a | bit | b
            through[mask] = through.get(mask, 0.0) + head * graph.theta[edge] * tail
    by_class: dict[int, list] = {}
    everything: dict[int, list] = {}
    for path in oracles.graph_paths(graph):
        mask = sum(
            1 << i for i, edges in enumerate(edge_sets) if set(edges) & set(path)
        )
        everything.setdefault(mask, []).append(path)
        if edge in path:
            by_class.setdefault(mask, []).append(path)
    assert set(through) == set(by_class)
    for mask, paths in by_class.items():
        assert abs(through[mask] - oracles.path_mass(paths, graph.theta)) <= 1e-12
    assert set(backward[graph.root]) == set(everything)
    for mask, paths in everything.items():
        assert abs(backward[graph.root][mask] - oracles.path_mass(paths, graph.theta)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, st.data())
def test_weightings_share_classes_exactly(seed, data):
    # two weightings in one call give, bit for bit, what one call each gives
    graph = ceg_from_document(random_tree_document(seed))
    edge_sets = data.draw(
        st.lists(st.sets(st.sampled_from(sorted(graph.edges))), max_size=4)
    )
    rng = random.Random(data.draw(seeds))
    # zero factors too, as on manipulated graphs: their classes keep a key
    other = {e: rng.choice((0.0, rng.random())) for e in graph.edges}
    first = class_masses(graph, edge_sets, (graph.theta,))
    second = class_masses(graph, edge_sets, (other,))
    both = class_masses(graph, edge_sets, (graph.theta, other))
    assert list(first) == list(second) == list(both)
    assert both == {mask: [first[mask][0], second[mask][0]] for mask in first}


def _enumerated_effect(graph, manipulation, target) -> float:
    """The substitution formula over the listed intervened paths."""
    star = set(manipulation.theta_hat)
    theta = oracles.replaced_theta(graph, manipulation.theta_hat)
    weights, hits = [], []
    for path in oracles.graph_paths(graph):
        if any(e.src in star for e in path):
            w = oracles.path_mass([path], theta)
            weights.append(w)
            if any(e.devent == target for e in path):
                hits.append(w)
    return math.fsum(hits) / math.fsum(weights)


def _draw_w_star(graph, data) -> list:
    """A random valid w*: drawn positions, keeping those that no path
    shares with the ones kept so far."""
    drawn = data.draw(st.lists(st.sampled_from(graph.position_ids), min_size=1))
    star = []
    for w in dict.fromkeys(drawn):
        try:
            check_separate(graph, [*star, w])
        except OverlappingIntervention:
            continue
        star.append(w)
    return star


@settings(max_examples=60, deadline=None)
@given(seeds, st.data())
def test_oracle_walk_equals_path_enumeration(seed, data):
    graph = ceg_from_document(random_tree_document(seed))
    star = _draw_w_star(graph, data)
    theta_hat = {}
    for w in star:
        raw = data.draw(
            st.lists(
                st.integers(1, 50),
                min_size=len(graph.out_edges(w)),
                max_size=len(graph.out_edges(w)),
            )
        )
        theta_hat[w] = tuple(x / sum(raw) for x in raw)
    manipulation = StochasticManipulation(theta_hat=theta_hat)
    try:
        validate_stochastic(graph, manipulation)
    except IdenticalTheta:
        assume(False)
    target = data.draw(st.sampled_from(sorted(graph.devents)))
    expected = _enumerated_effect(graph, manipulation, target)
    assert brute_force_effect(graph, manipulation, target) == expected


def _assert_oracle_walk_at_every_position(graph):
    """The walk equals the listed paths to the bit, with each position as
    w* under a spread vector and each d-event as the target."""
    for w in graph.position_ids:
        vec = _spread_vector(len(graph.out_edges(w)))
        if vec == graph.theta_vector(w):
            vec = _spread_vector(len(vec), shift=2)
        manipulation = StochasticManipulation(theta_hat={w: vec})
        for target in graph.devents:
            expected = _enumerated_effect(graph, manipulation, target)
            assert brute_force_effect(graph, manipulation, target) == expected, (w, target)


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_oracle_walk_equals_path_enumeration_on_fixtures(name):
    _assert_oracle_walk_at_every_position(ceg_from_document(fixtures.all_documents()[name]))


@pytest.mark.parametrize("depth, width", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)])
def test_oracle_walk_equals_path_enumeration_on_merged_ladder(depth, width):
    # one position per layer, so every prefix of a layer meets at one
    # position: the walk joins up to width**depth products in one list
    payload = ladder.ladder_document("merged", depth, width, seed=1)
    _assert_oracle_walk_at_every_position(ceg_from_document(model_io.loads(json.dumps(payload))))


def _criterion_reference(graph, w_star, partition, target, c) -> tuple:
    """(lhs, rhs) of one back-door comparison by path enumeration."""
    paths = [p for p in oracles.graph_paths(graph) if any(e.src in w_star for e in p)]
    block = partition.blocks[partition.labels.index(c.block)]

    def mass(*tests):
        return oracles.path_mass(
            [p for p in paths if all(t(p) for t in tests)], graph.theta
        )

    def in_block(p):
        return bool(block.intersection(p))

    def at_w(p):
        return any(e.src == c.position for e in p)

    def on_edge(p):
        return c.edge in p

    def devent(p):
        return any(e.devent == c.devent for e in p)

    def hits(p):
        return any(e.devent == target for e in p)

    if c.criterion == 1:
        return (
            mass(in_block, at_w) / mass(at_w),
            mass(in_block, on_edge) / mass(on_edge),
        )
    if c.vacuous:
        assert mass(in_block, on_edge) == 0.0
        return 0.0, 0.0
    return (
        mass(in_block, at_w, devent, hits) / mass(in_block, at_w, devent),
        mass(in_block, on_edge, hits) / mass(in_block, on_edge),
    )


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from((1e-12, 0.05, 0.1, 0.3)), st.data())
def test_search_equals_per_candidate_reference(seed, tol, data):
    # wide tolerances let candidates pass whose comparisons differ, so a
    # screen at the wrong tolerance or with the wrong blocks shows; every
    # target is tried, as each picks other candidates
    graph = ceg_from_document(random_tree_document(seed))
    star = _draw_w_star(graph, data)
    graph = dataclasses.replace(graph, tolerance=tol)
    for target in sorted(graph.devents):
        found = search_backdoor_partition(graph, star, target)
        assert found == oracles.first_passing_candidate(graph, star, target)


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_search_equals_per_candidate_reference_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    stars = [[w] for w in graph.position_ids]
    for pair in itertools.combinations(graph.position_ids, 2):
        try:
            check_separate(graph, pair)
        except OverlappingIntervention:
            continue
        stars.append(list(pair))
    for tol in (graph.tolerance, 0.05, 0.1, 0.3):
        at_tol = dataclasses.replace(graph, tolerance=tol)
        for star in stars:
            for target in graph.devents:
                found = search_backdoor_partition(at_tol, star, target)
                want = oracles.first_passing_candidate(at_tol, star, target)
                assert found == want


def test_set_partitions_lists_each_partition_once():
    for n, bell in enumerate((1, 1, 2, 5, 15, 52, 203)):
        partitions = [tuple(map(tuple, p)) for p in oracles.set_partitions(list(range(n)))]
        assert len(partitions) == len(set(partitions)) == bell
        assert all(sorted(i for b in p for i in b) == list(range(n)) for p in partitions)


def _search_misses(graph, star, targets=None) -> list:
    """The targets (default every d-event) for which some partition of a
    crossing slice's out-edges verifies (``oracles.exhaustive_partitions``)
    and the search finds none.  A partition the search finds on a slice
    small enough to enumerate must be one of those that verify."""
    missed = []
    for target in targets or sorted(graph.devents):
        verified = {frozenset(p.blocks) for p in oracles.exhaustive_partitions(graph, star, target)}
        found = search_backdoor_partition(graph, star, target)
        if found is None:
            if verified:
                missed.append(target)
        elif sum(map(len, found[0].blocks)) <= 6:
            assert frozenset(found[0].blocks) in verified
    return missed


@settings(max_examples=150, deadline=None)
@given(seeds, st.booleans(), st.sampled_from((1e-12, 0.05)), st.data())
def test_the_exhaustive_slice_reference_verifies_what_the_search_finds(seed, repeat, tol, data):
    # the converse does not hold: the search tries three groupings of a
    # slice, and misses other partitions that verify (the pinned cases below)
    graph = ceg_from_document(random_tree_document(seed, repeat_devents=repeat))
    star = _draw_w_star(graph, data)
    _search_misses(dataclasses.replace(graph, tolerance=tol), star)


def test_the_search_misses_a_verifying_slice_partition_at_these_fixture_positions():
    # at 0.05 a partition that is no stage, colour or edge grouping passes
    # within the tolerance where every search candidate fails; no
    # fixture position has such a miss at the default tolerance.  One target:
    # bushing's 16 would take every w* two slices of 203 partitions each
    missed = []
    for name, doc in sorted(fixtures.all_documents().items()):
        graph = ceg_from_document(doc)
        for tol in (1e-12, 0.05):
            at_tol = dataclasses.replace(graph, tolerance=tol)
            for w in graph.position_ids:
                if _search_misses(at_tol, [w], ["fail"]):
                    missed.append((name, w, tol))
    assert missed == [
        ("bushing", "w0", 0.05),
        ("bushing_broken", "w0", 0.05),
        ("bushing_broken", "w1", 0.05),
        ("conservator", "w3", 0.05),
        ("twin", "w3", 0.05),
    ]


@pytest.mark.parametrize(
    "seed,star,first",
    [
        # blocks by the intervened position that leads there: the stages
        # split w4 from w5, and every search candidate fails criterion 1
        (88, ["w1", "w2"], ("w3->winf_f#1+w3->winf_n#1",
                            "w4->winf_f#1+w4->winf_n#1+w5->winf_f#1+w5->winf_n#1")),
        # both of w6's edges lead to w10, which w4 does not reach: a block has
        # the same mass given either edge at w6, and given either at w4
        (130, ["w6", "w4"], ("w7->winf_f#1+w7->winf_n#1+w9->winf_f#1+w9->winf_n#1"
                             "+w10->winf_f#1", "w10->winf_n#1")),
    ],
)
def test_the_search_misses_a_verifying_slice_partition_at_the_default_tolerance(
    seed, star, first
):
    graph = ceg_from_document(random_tree_document(seed))
    assert graph.tolerance == 1e-12
    assert _search_misses(graph, star) == sorted(graph.devents)
    partition = next(oracles.exhaustive_partitions(graph, star, "fail"))
    assert partition.labels == first
    report = check_backdoor_partition(graph, star, partition, "fail")
    assert max(abs(c.lhs - c.rhs) for c in report.comparisons) == 0.0


def _fixture_stars(graph) -> list:
    """Every position of the graph as w*, then every pair no path meets twice."""
    stars = [[w] for w in graph.position_ids]
    for pair in itertools.combinations(graph.position_ids, 2):
        try:
            check_separate(graph, pair)
        except OverlappingIntervention:
            continue
        stars.append(list(pair))
    return stars


def _assert_screen_agrees_with_the_references(graph, w_star, target):
    """The search's screen passes every candidate that the full check or the
    per-slice reference screen passes, and rejects every candidate that the
    reference screen rejects by more than twice the rounding margin."""
    checked = check_separate(graph, w_star)
    layers, paths = causal._crossing_layers(graph, checked)
    screen = causal._IdleTable(graph, target, checked.star)
    margin = causal._rounding_margin(paths, len(graph.position_ids), graph.tolerance)
    limit = graph.tolerance + margin
    reference = oracles.slice_screen(graph, w_star, target)
    for d, edges, block, build in causal._candidates(graph, layers):
        partition = build()
        report = check_backdoor_partition(graph, checked, partition, target)
        worst = reference(d, edges, block)
        if report.passed or worst <= graph.tolerance:
            assert screen.passes(edges, block, limit), (partition, report.passed, worst)
        elif worst > graph.tolerance + 2 * margin:
            assert not screen.passes(edges, block, limit), (partition, worst)


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from((1e-12, 0.05, 0.1, 0.3)), st.data())
def test_search_screen_agrees_with_the_references(seed, tol, data):
    graph = ceg_from_document(random_tree_document(seed))
    star = _draw_w_star(graph, data)
    graph = dataclasses.replace(graph, tolerance=tol)
    for target in sorted(graph.devents):
        _assert_screen_agrees_with_the_references(graph, star, target)


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from((0.05, 0.1, 0.3)))
def test_search_screen_agrees_with_the_references_on_a_shared_devent(seed, tol):
    # one d-event labels every root edge, so criterion 2 compares a block's
    # paths at the root with its paths through one edge, and can fail alone
    graph = ceg_from_document(_shared_root_devent(random_tree_document(seed)))
    graph = dataclasses.replace(graph, tolerance=tol)
    for target in sorted(graph.devents):
        _assert_screen_agrees_with_the_references(graph, [graph.root], target)


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_search_screen_agrees_with_the_references_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    for tol in (graph.tolerance, 0.05, 0.1, 0.3):
        at_tol = dataclasses.replace(graph, tolerance=tol)
        for star in _fixture_stars(graph):
            for target in graph.devents:
                _assert_screen_agrees_with_the_references(at_tol, star, target)


def _assert_slice_sums_equal_the_screen_totals(graph, w_star, target):
    """On every crossing slice, the screen's per-edge pairs summed over the
    slice, column by column, give the totals it reads off the forward
    pass's sink classes, within the rounding margin: every intervened path
    crosses the slice exactly once."""
    checked = check_separate(graph, w_star)
    layers, paths = causal._crossing_layers(graph, checked)
    screen = causal._IdleTable(graph, target, checked.star)
    margin = causal._rounding_margin(paths, len(graph.position_ids), graph.tolerance)
    for layer in layers:
        sums = [0.0] * len(screen.totals)
        for s in (e for w in layer for e in graph.out_edges(w)):
            for c, m in screen.pairs(s):
                sums[c] += m
        assert sums == pytest.approx(screen.totals, rel=margin, abs=causal._FLOOR), layer


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from((1e-12, 0.05)), st.data())
def test_screen_totals_equal_every_crossing_slice_sum(seed, tol, data):
    graph = ceg_from_document(random_tree_document(seed))
    star = _draw_w_star(graph, data)
    graph = dataclasses.replace(graph, tolerance=tol)
    for target in sorted(graph.devents):
        _assert_slice_sums_equal_the_screen_totals(graph, star, target)


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_screen_totals_equal_every_crossing_slice_sum_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    for tol in (1e-12, 0.05):
        at_tol = dataclasses.replace(graph, tolerance=tol)
        for star in _fixture_stars(graph):
            for target in graph.devents:
                _assert_slice_sums_equal_the_screen_totals(at_tol, star, target)


def _assert_conditioning_equals_the_reach_reference(graph, w_star):
    """The structural [manipulated-ceg] data (kept positions, so the pruned
    ones too, and the edge count) read off the check equal conditioning by
    reach from every position, and so does the graph ``conditioned_ceg``
    builds."""
    checked = check_separate(graph, w_star)
    positions, theta = oracles.conditioned_graph(graph, checked.star, checked.below)
    _, kept, edges = intervention_module._conditioning(graph, checked)
    assert list(kept) == positions
    assert edges == list(theta)
    conditioned = conditioned_ceg(graph, w_star)
    assert (list(conditioned.position_ids), list(conditioned.edges)) == (positions, edges)
    assert conditioned.theta == theta


@settings(max_examples=150, deadline=None)
@given(seeds, st.booleans(), st.data())
def test_conditioning_structure_equals_the_reach_reference(seed, repeat, data):
    graph = ceg_from_document(random_tree_document(seed, repeat_devents=repeat))
    _assert_conditioning_equals_the_reach_reference(graph, _draw_w_star(graph, data))


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_conditioning_structure_equals_the_reach_reference_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    for star in _fixture_stars(graph):
        _assert_conditioning_equals_the_reach_reference(graph, star)


def _gap_of(a: float, tol: float) -> float:
    """The least b above ``a`` whose computed gap ``b - a`` is at least
    ``tol`` (exactly ``tol`` where some b gives that)."""
    b = a + tol
    while b - a >= tol:
        b = math.nextafter(b, -math.inf)
    while b - a < tol:
        b = math.nextafter(b, math.inf)
    return b


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), max_size=8),
    st.floats(0.001, 0.5),
    st.lists(st.sampled_from((-1, 0, 1)), max_size=8),
    st.sampled_from((1e-12, 1e-6, 0.05, 0.3)),
    st.randoms(use_true_random=False),
)
def test_colour_chains_equal_the_tolerance_classes_reference(values, start, ulps, tol, rng):
    # a chain of gaps at tol, or one ulp below or above it, among random values
    chain = [start]
    for ulp in ulps:
        b = _gap_of(chain[-1], tol)
        for _ in range(abs(ulp)):
            b = math.nextafter(b, ulp * math.inf)
        chain.append(b)
    values = values + chain + chain[: len(chain) // 2]  # repeats too
    rng.shuffle(values)
    assert causal._colours(values, tol) == oracles.colour_classes(values, tol)


def _assert_structural_slices(graph, w_star):
    checked = check_separate(graph, w_star)
    star, below, _ = checked
    layers, paths = causal._crossing_layers(graph, checked)
    assert layers == oracles.crossing_layers(graph, star, below)
    meets = set(star)
    assert paths == sum(
        any(e.src in meets for e in p) for p in oracles.graph_paths(graph)
    )


@settings(max_examples=100, deadline=None)
@given(seeds, st.data())
def test_structural_crossing_slices_equal_the_kernel_reference(seed, data):
    graph = ceg_from_document(random_tree_document(seed))
    _assert_structural_slices(graph, _draw_w_star(graph, data))


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_structural_crossing_slices_equal_the_kernel_reference_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    for star in _fixture_stars(graph):
        _assert_structural_slices(graph, star)


SYMPTOM_BLOCKS = [
    ["oil_leak", "oil_loss", "thermal"],
    ["no_leak", "oil_mix", "electrical"],
]


@pytest.mark.parametrize(
    "name,w_star,kind,blocks",
    [
        ("bushing", ("w1",), "devents", SYMPTOM_BLOCKS),
        ("bushing", ("w1",), "positions", [["w3"], ["w4"], ["w5"]]),
        ("bushing", ("w1",), "search", None),
        ("bushing_broken", ("w1",), "devents", SYMPTOM_BLOCKS),
        ("conservator", ("w0",), "stages", [["u2"], ["u3"]]),
        ("conservator", ("w0",), "search", None),
        ("twin", ("w1", "w2"), "search", None),
    ],
)
def test_backdoor_criteria_match_enumeration(name, w_star, kind, blocks):
    graph = ceg_from_document(fixtures.all_documents()[name])
    if kind == "search":
        partition, _ = search_backdoor_partition(graph, w_star, "fail")
    else:
        partition = partition_from_selectors(graph, kind, blocks)
    report = check_backdoor_partition(graph, w_star, partition, "fail")
    assert report.comparisons
    for c in report.comparisons:
        lhs, rhs = _criterion_reference(graph, set(w_star), partition, "fail", c)
        assert abs(c.lhs - lhs) <= 1e-12
        assert abs(c.rhs - rhs) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_document_round_trip(seed):
    doc = random_tree_document(seed)
    assert model_io.loads(model_io.dumps(doc)) == doc


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        min_size=2,
        max_size=5,
    ),
    st.data(),
)
def test_dirichlet_update_componentwise(alpha, data):
    eta = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=len(alpha),
            max_size=len(alpha),
        )
    )
    bits = data.draw(
        st.lists(
            st.sampled_from((0.0, 1.0)),
            min_size=len(alpha),
            max_size=len(alpha),
        )
    )
    graph = _cause_floret(len(alpha))
    w = graph.root
    prior = DirichletFloretPrior(alpha={w: tuple(alpha)}, eta={w: tuple(eta)})
    indicators = {e: int(bit) for e, bit in zip(graph.out_edges(w), bits)}
    manip = manipulation_from_indicators(graph, indicators, prior)
    mean = oracles.posterior_mean(alpha, eta, bits)
    if any(bits) and mean != graph.theta_vector(w):
        assert manip.theta_hat == {w: mean}
    else:  # nothing remedied, or a mean equal to the idle vector
        assert manip is None


@functools.lru_cache(maxsize=None)
def _cause_floret(k: int):
    """One floret of ``k`` root-cause edges, each to a leaf."""
    causes = [f"c{i}" for i in range(k)]
    raw = {
        "name": "floret",
        "devents": [{"id": c} for c in causes],
        "vertices": ["r", *(f"l{i}" for i in range(k))],
        "edges": [{"src": "r", "dst": f"l{i}", "devent": c} for i, c in enumerate(causes)],
        "leaf_status": {f"l{i}": ("failed", "operational")[i % 2] for i in range(k)},
        "theta": {"r": [1.0 / k] * k},
        "root_causes": causes,
    }
    return ceg_from_document(model_io.loads(json.dumps(raw)))


def test_public_names_resolve():
    import cegkit

    for name in cegkit.__all__:
        assert getattr(cegkit, name, None) is not None, name


def _kernel_separation(graph, star):
    """The kernel form of the overlap check: one forward and one backward
    pass mark the out-edges of w*; (overlap found, positions and sinks
    arriving in class 1, positions leaving in class 1)."""
    marked = [[e for w in star for e in graph.out_edges(w)]]
    arriving = forward_messages(graph, marked)
    below = {v for v, classes in arriving.items() if 1 in classes}
    leaving = ceg_module.backward_messages(graph, marked)
    above = {v for v, classes in leaving.items() if 1 in classes}
    return any(w in below for w in star), below, above


def _assert_separation_matches_kernel(graph, star):
    overlap, below, above = _kernel_separation(graph, star)
    if overlap:
        with pytest.raises(OverlappingIntervention):
            check_separate(graph, star)
    else:
        ordered = tuple(w for w in graph.position_ids if w in star)
        assert check_separate(graph, star) == (ordered, below, above)


@settings(max_examples=80, deadline=None)
@given(seeds, st.data())
def test_separation_walk_equals_kernel(seed, data):
    graph = ceg_from_document(random_tree_document(seed))
    star = data.draw(st.sets(st.sampled_from(graph.position_ids), min_size=1))
    _assert_separation_matches_kernel(graph, star)


@pytest.mark.parametrize("name", sorted(fixtures.all_documents()))
def test_separation_walk_equals_kernel_on_fixtures(name):
    graph = ceg_from_document(fixtures.all_documents()[name])
    for size in range(1, len(graph.position_ids) + 1):
        for star in itertools.combinations(graph.position_ids, size):
            _assert_separation_matches_kernel(graph, star)


def test_separation_check_runs_no_kernel_pass(monkeypatch):
    graph = ceg_from_document(fixtures.all_documents()["twin"])

    def kernel(*args, **kwargs):
        raise AssertionError("check_separate ran a kernel pass")

    for module in (ceg_module, intervention_module):
        for name in ("forward_messages", "class_masses"):
            monkeypatch.setattr(module, name, kernel, raising=False)
    assert check_separate(graph, ["w2", "w1"]).below >= {"w3", "winf_f"}
    with pytest.raises(OverlappingIntervention):
        check_separate(graph, ["w0", "w1"])


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=400), max_size=6),
    st.integers(min_value=0, max_value=420),
)
def test_set_bit_decoding_equals_bit_by_bit(positions, count):
    # sparse masks, most of their bits above a machine word
    mask = sum(1 << i for i in positions)
    assert causal._bits(mask, count) == [i for i in range(count) if mask >> i & 1]


@dataclasses.dataclass(frozen=True, order=True)
class _DataclassEdge:
    """The frozen-dataclass form ``Edge`` had, as the reference."""

    src: str
    dst: str
    devent: str
    index: int = 1

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}#{self.index}"


edge_fields = st.tuples(
    st.sampled_from(("w0", "w1", "w10", "winf_f")),
    st.sampled_from(("w1", "w2", "winf_n")),
    st.sampled_from(("fail", "leak", "")),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(edge_fields, min_size=1, max_size=12))
def test_edge_behaves_as_the_dataclass_did(rows):
    new = [Edge(*r) for r in rows]
    old = [_DataclassEdge(*r) for r in rows]
    for (a, b), (x, y) in zip(itertools.product(new, new), itertools.product(old, old)):
        assert (a == b, a < b, a <= b) == (x == y, x < y, x <= y)
    for e, ref in zip(new, old):
        assert str(e) == str(ref)
        assert repr(e) == repr(ref).replace("_DataclassEdge(", "Edge(")
        assert hash(e) == hash(ref)
    # equal hashes give frozensets of edges the same iteration order
    assert [tuple(e) for e in frozenset(new)] == [
        dataclasses.astuple(e) for e in frozenset(old)
    ]
    assert [tuple(e) for e in sorted(new)] == [dataclasses.astuple(e) for e in sorted(old)]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_forced_effect_equals_rebuilt_graph_reference(seed):
    # the forced vector as a weighting on the idle graph gives the floats
    # of the rebuilt forced graph, bit for bit, for every edge and target
    graph = ceg_from_document(random_tree_document(seed))
    for edge in graph.edges:
        for target in sorted(graph.devents):
            got = forced_edge_effect(graph, edge, target)
            assert got == oracles.rebuilt_forced_effect(graph, edge, target)
