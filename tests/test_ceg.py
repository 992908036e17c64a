import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cegkit import fixtures, model_io
from cegkit.ceg import (
    SINK_FAIL,
    SINK_OK,
    Ceg,
    backward_messages,
    build_ceg,
    ceg_from_document,
    _resolve_edge,
    class_masses,
    forward_messages,
    is_fine_cut,
)
from cegkit.errors import (
    DanglingEdge,
    NotNormalized,
    ParseError,
    PositionNotInCeg,
    UnknownEdge,
    UnknownSelector,
)
from cegkit.event_tree import Edge, LeafStatus, build_event_tree
from cegkit.intervention import conditioned_ceg
from cegkit.staging import StagedTree, StagePartition, staged_tree_from_document

import oracles
from random_trees import random_tree_document

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's size ladder)


@pytest.fixture(scope="module")
def bushing():
    return ceg_from_document(fixtures.bushing_document())


@pytest.fixture(scope="module")
def conservator():
    return ceg_from_document(fixtures.conservator_document())


class TestBushingShape:
    def test_positions_and_sinks(self, bushing):
        assert len(bushing.position_ids) == 9
        assert bushing.position_ids == tuple(f"w{i}" for i in range(9))
        assert bushing.sinks == (SINK_FAIL, SINK_OK)

    def test_edge_count_and_parallel_pairs(self, bushing):
        assert len(bushing.edges) == 20
        by_pair = {}
        for e in bushing.edges:
            by_pair.setdefault((e.src, e.dst), []).append(e)
        doubled = {pair for pair, es in by_pair.items() if len(es) == 2}
        assert doubled == {
            ("w1", "w3"),
            ("w4", "w8"),
            ("w5", "w8"),
            ("w2", "w8"),
        }
        for pair in doubled:
            indices = sorted(e.index for e in by_pair[pair])
            assert indices == [1, 2]

    def test_twenty_paths(self, bushing):
        paths = oracles.graph_paths(bushing)
        assert len(paths) == 20
        failed = [p for p in paths if p[-1].dst == SINK_FAIL]
        operational = [p for p in paths if p[-1].dst == SINK_OK]
        assert len(failed) + len(operational) == 20

    def test_root_and_members(self, bushing):
        assert bushing.root == "w0"
        assert set(bushing.members["w3"]) == {"v3", "v4"}
        assert set(bushing.members["w8"]) == {
            "v7", "v8", "v13", "v14", "v15", "v16",
        }

    def test_theta_vectors_normalized(self, bushing):
        for w in bushing.position_ids:
            assert math.fsum(bushing.theta_vector(w)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_total_path_mass_is_one(self, bushing):
        paths = oracles.graph_paths(bushing)
        assert oracles.path_mass(paths, bushing.theta) == pytest.approx(1.0, abs=1e-12)

    def test_devent_labels_survive_quotient(self, bushing):
        doc = fixtures.bushing_document()
        assert set(bushing.devents) == {d.id for d in doc.devents}


def lambda_set(paths, test):
    return frozenset(p for p in paths if test(p))


class TestLambda:
    def test_root_lambda_is_everything(self, bushing):
        paths = oracles.graph_paths(bushing)
        assert lambda_set(paths, lambda p: p[0].src == "w0") == frozenset(paths)

    def test_sink_shorthand(self, bushing):
        doc = fixtures.bushing_document()
        paths = oracles.graph_paths(bushing)
        failed = lambda_set(paths, lambda p: p[-1].dst == SINK_FAIL)
        operational = lambda_set(paths, lambda p: p[-1].dst == SINK_OK)
        assert failed | operational == frozenset(paths)
        assert not failed & operational
        want = oracles.event_mass(doc, oracles.hits_devent("fail"))
        assert oracles.path_mass(failed, bushing.theta) == pytest.approx(want, abs=1e-12)

    def test_devent_lambda_matches_oracle(self, bushing):
        doc = fixtures.bushing_document()
        fail = set(bushing.edges_of_devent("fail"))
        lam = lambda_set(oracles.graph_paths(bushing), fail.intersection)
        got = oracles.path_mass(lam, bushing.theta)
        want = oracles.event_mass(doc, oracles.hits_devent("fail"))
        assert got == pytest.approx(want, abs=1e-12)

    def test_edge_ref_forms_agree(self, bushing):
        e = bushing.find_edge("w1", "w3", 2)
        by_edge = _resolve_edge(bushing, e)
        by_tuple = _resolve_edge(bushing, ("w1", "w3", 2))
        by_string = _resolve_edge(bushing, "w1->w3#2")
        assert by_edge == by_tuple == by_string == e
        lam = lambda_set(oracles.graph_paths(bushing), lambda p: e in p)
        assert lam and all(e in p for p in lam)

    def test_unknown_selectors(self, bushing):
        with pytest.raises(UnknownSelector):
            bushing.edges_of_devent("melt")
        with pytest.raises(UnknownEdge):
            _resolve_edge(bushing, "w0->w8#1")

    def test_position_lambda_partition_at_cut(self, conservator):
        # depth-1 positions form a cut: their lambda sets tile all paths
        paths = oracles.graph_paths(conservator)
        lam1 = lambda_set(paths, lambda p: any(e.dst == "w1" for e in p))
        lam2 = lambda_set(paths, lambda p: any(e.dst == "w2" for e in p))
        assert not (lam1 & lam2)
        assert (lam1 | lam2) == frozenset(paths)


class TestFineCut:
    def test_root_is_fine_cut(self, bushing, conservator):
        assert is_fine_cut(bushing, ["w0"])
        assert is_fine_cut(conservator, ["w0"])

    def test_sinks_are_fine_cut(self, bushing):
        assert is_fine_cut(bushing, [SINK_FAIL, SINK_OK])

    def test_single_interior_position_is_not(self, bushing):
        assert not is_fine_cut(bushing, ["w1"])
        assert not is_fine_cut(bushing, ["w3"])

    def test_unknown_position_raises(self, bushing):
        with pytest.raises(PositionNotInCeg):
            is_fine_cut(bushing, ["w0", "bogus"])


class TestConstruction:
    def test_ceg_from_document_matches_manual_pipeline(self):
        doc = fixtures.bushing_document()
        auto = ceg_from_document(doc)
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        manual = build_ceg(staged, root_causes=doc.root_causes or (), name=doc.name)
        assert auto.position_ids == manual.position_ids
        assert auto.edges == manual.edges
        assert auto.theta == manual.theta
        assert auto.root_causes == manual.root_causes

    def test_edge_probability_equals_tree_theta(self, bushing):
        doc = fixtures.bushing_document()
        # w1 = {v1}; its vector must be v1's theta row verbatim
        assert bushing.theta_vector("w1") == tuple(doc.theta["v1"])

    def test_merged_position_inherits_shared_vector(self, bushing):
        doc = fixtures.bushing_document()
        assert bushing.theta_vector("w3") == tuple(doc.theta["v3"])
        assert tuple(doc.theta["v3"]) == tuple(doc.theta["v4"])

    def test_stage_ids_cover_positions(self, bushing):
        assert set(bushing.stage_ids) == set(bushing.position_ids)

    def test_rejects_unnormalized_vector(self, bushing):
        theta = dict(bushing.theta)
        first = bushing.out_edges("w1")[0]
        theta[first] = theta[first] + 0.05
        with pytest.raises(NotNormalized):
            Ceg(
                position_ids=bushing.position_ids,
                members=bushing.members,
                edges=bushing.edges,
                theta=theta,
                devents=bushing.devents,
                stage_ids=bushing.stage_ids,
            )

    def test_rejects_dangling_edge(self, bushing):
        extra = Edge(src="w77", dst=SINK_FAIL, devent="fail", index=1)
        with pytest.raises(PositionNotInCeg):
            Ceg(
                position_ids=bushing.position_ids,
                members=bushing.members,
                edges=bushing.edges + (extra,),
                theta={**bushing.theta, extra: 1.0},
                devents=bushing.devents,
                stage_ids=bushing.stage_ids,
            )


    def test_rejects_a_cycle(self, conservator):
        # w8's failed edge turned back to w1: Kahn's walk places only the
        # four positions above w1, and the error names w1
        old = conservator.find_edge("w8", SINK_FAIL, 1)
        new = old._replace(dst="w1")
        with pytest.raises(DanglingEdge, match=r"^graph has a cycle through position w1$"):
            dataclasses.replace(
                conservator,
                edges=tuple(new if e == old else e for e in conservator.edges),
                theta={new if e == old else e: p for e, p in conservator.theta.items()},
            )

    # w0 -> w1: listed first, w1 would be taken as the root of every mass
    ROOT_FAULT_EDGES = (
        Edge("w0", "w1", "a", 1), Edge("w0", SINK_FAIL, "fail", 1),
        Edge("w1", SINK_FAIL, "fail", 2), Edge("w1", SINK_OK, "ok", 1),
    )

    def _root_fault_graph(self, position_ids, edges):
        theta = dict(zip(edges, (0.5, 0.5, 0.3, 0.7, 0.5, 0.5)))
        devents = dict.fromkeys(("a", "fail", "ok"))
        return Ceg(position_ids, {}, edges, theta, devents, {})

    def test_root_fault_first_position_has_parents(self):
        with pytest.raises(DanglingEdge, match=r"^only the root w1 may lack in-edges, not w0$"):
            self._root_fault_graph(("w1", "w0"), self.ROOT_FAULT_EDGES)
        graph = self._root_fault_graph(("w0", "w1"), self.ROOT_FAULT_EDGES)
        assert class_masses(graph, [graph.edges_of_devent("fail")])[1] == [0.65]

    def test_root_fault_second_parentless_position(self):
        extra = (Edge("w2", SINK_FAIL, "fail", 3), Edge("w2", SINK_OK, "ok", 2))
        with pytest.raises(DanglingEdge, match=r"^only the root w0 may lack in-edges, not w0, w2$"):
            self._root_fault_graph(("w0", "w1", "w2"), self.ROOT_FAULT_EDGES + extra)

    def test_graph_with_no_positions(self):
        # it has no root, and every mass of it would be empty
        with pytest.raises(DanglingEdge, match=r"^graph has no positions$"):
            Ceg((), {}, (), {}, {}, {})

    def _restaged(self, blocks):
        doc = fixtures.bushing_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        return StagedTree(staged.ptree, StagePartition(blocks(staged.stages.blocks)))

    def test_rejects_a_partition_leaving_out_a_situation(self):
        staged = self._restaged(
            lambda blocks: tuple(b for b in blocks if b != ("v2",)))
        with pytest.raises(ParseError, match=r"^stage partition leaves out situations: \['v2'\]$"):
            build_ceg(staged)

    def test_rejects_a_partition_naming_a_non_situation(self):
        staged = self._restaged(lambda blocks: (*blocks, ("v99",)))
        with pytest.raises(ParseError, match=r"^stage partition names non-situations: \['v99'\]$"):
            build_ceg(staged)


def _kernel_graphs():
    """Small graphs of every kind the kernel runs on: random trees with and
    without repeated d-events, the fixtures and small ladder rungs."""
    trees = st.builds(
        random_tree_document, st.integers(0, 10_000), repeat_devents=st.booleans())
    rungs = st.builds(
        lambda family, depth, width: model_io.loads(
            json.dumps(ladder.ladder_document(family, depth, width, seed=1))),
        st.sampled_from(ladder.FAMILIES), st.integers(2, 4), st.integers(2, 3))
    named = st.sampled_from(sorted(fixtures.all_documents().items())).map(lambda kv: kv[1])
    return st.one_of(trees, named, rungs).map(ceg_from_document)


class TestKernelEquality:
    """The one pull pass gives, bit for bit and key for key, what the push
    pass forward and the pull pass backward gave when written apart."""

    @staticmethod
    def _assert_tables_equal(got, want):
        assert got.keys() == want.keys()
        for w, table in want.items():
            # values compared exactly, and the class keys in one order
            assert list(got[w].items()) == list(table.items()), w

    @settings(max_examples=80, deadline=None)
    @given(_kernel_graphs(), st.booleans(), st.data())
    def test_forward_and_backward_equal_the_references(self, graph, conditioned, data):
        if conditioned:  # a graph that is not interior, and smaller
            graph = conditioned_ceg(graph, [data.draw(st.sampled_from(graph.position_ids))])
        edges = sorted(graph.edges)
        edge_sets = data.draw(st.lists(st.sets(st.sampled_from(edges)), max_size=4))
        edge_sets.append(graph.edges_of_devent(data.draw(st.sampled_from(sorted(graph.devents)))))
        self._assert_tables_equal(
            backward_messages(graph, edge_sets),
            oracles.reference_backward_messages(graph, edge_sets))
        w = data.draw(st.sampled_from(graph.position_ids))
        substituted = {**graph.theta, **dict(zip(graph.out_edges(w), reversed(graph.theta_vector(w))))}
        forced_edge = data.draw(st.sampled_from(edges))
        forced = {**graph.theta, **{
            e: float(e == forced_edge) for e in graph.out_edges(forced_edge.src)}}
        for weights in (None, substituted, forced, dict.fromkeys(edges, 1)):
            self._assert_tables_equal(
                forward_messages(graph, edge_sets, weights),
                oracles.reference_forward_messages(graph, edge_sets, weights))


def _ladder_documents():
    docs = []
    for family in ladder.FAMILIES:
        for depth, width in ((3, 2), (5, 2), (8, 2), (2, 3), (4, 3), (2, 4), (4, 4)):
            payload = ladder.ladder_document(family, depth, width, seed=1)
            docs.append(model_io.loads(json.dumps(payload)))
    return docs


class TestLeafPathCounts:
    """``ceg build`` counts root-to-sink paths by the tree's leaves: the
    collapse onto positions keeps every root-to-leaf path as one
    root-to-sink path, ending in the sink of its leaf's status."""

    @pytest.mark.parametrize("tolerance", (1e-12, 0.05, 0.3))
    def test_leaf_counts_equal_the_kernel_counts(self, tolerance):
        docs = [
            *fixtures.all_documents().values(),
            *map(random_tree_document, range(40)),
            *(random_tree_document(seed, repeat_devents=True) for seed in range(20)),
            *_ladder_documents(),
        ]
        for doc in docs:
            ptree = build_event_tree(doc, tolerance)
            graph = build_ceg(staged_tree_from_document(doc, ptree))
            failed = list(ptree.tree.leaf_status.values()).count(LeafStatus.FAILED)
            assert (len(ptree.tree.leaves), failed) == oracles.path_counts(graph), doc.name


class TestModelIo:
    @pytest.mark.parametrize(
        "doc_fn",
        [
            fixtures.bushing_document,
            fixtures.conservator_document,
            fixtures.twin_document,
        ],
    )
    def test_round_trip(self, doc_fn):
        doc = doc_fn()
        again = model_io.loads(model_io.dumps(doc))
        assert again == doc

    def test_edge_ref_round_trip(self):
        assert model_io.parse_edge_ref("w1->w3#2") == ("w1", "w3", 2)
        assert model_io.parse_edge_ref("w1->w3") == ("w1", "w3", 1)
        e = Edge(src="w1", dst="w3", devent="oil_leak", index=2)
        assert model_io.parse_edge_ref(str(e)) == ("w1", "w3", 2)

    @pytest.mark.parametrize(
        "ref", ["w1w3", "w1->", "->w3", "w1->w3#", "w1->w3#0", "w1->w3#x"]
    )
    def test_bad_edge_refs(self, ref):
        with pytest.raises(ParseError):
            model_io.parse_edge_ref(ref)

    def test_null_name_and_text_read_as_empty(self):
        raw = json.loads(model_io.dumps(fixtures.bushing_document()))
        raw["name"] = None
        raw["devents"][0]["text"] = None
        doc = model_io.loads(json.dumps(raw))
        assert (doc.name, doc.devents[0].text) == ("", "")
        del raw["name"], raw["devents"][0]["text"]
        assert model_io.loads(json.dumps(raw)) == doc

    def test_loads_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            model_io.loads("{}")
        with pytest.raises(ParseError):
            model_io.loads("[1, 2]")
        with pytest.raises(ParseError):
            model_io.loads("not json")
