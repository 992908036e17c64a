import dataclasses
import math

import pytest

from cegkit import fixtures
from cegkit.ceg import ceg_from_document
from cegkit.errors import (
    DanglingEdge,
    LengthMismatch,
    MissingLeafStatus,
    MultipleParents,
    NotNormalized,
    OutOfOpenInterval,
    ParseError,
)
from cegkit.event_tree import (
    DEvent,
    Edge,
    EventTree,
    LeafStatus,
    ProbabilityTree,
    build_event_tree,
)

import oracles


def tiny_tree():
    devents = {
        "a": DEvent("a", "left branch"),
        "b": DEvent("b", "right branch"),
        "fail": DEvent("fail", "failure"),
        "no_fail": DEvent("no_fail", "no failure"),
    }
    edges = (
        Edge("v0", "v1", "a"),
        Edge("v0", "v2", "b"),
        Edge("v1", "v3", "fail"),
        Edge("v1", "v4", "no_fail"),
        Edge("v2", "v5", "fail"),
        Edge("v2", "v6", "no_fail"),
    )
    status = {
        "v3": LeafStatus.FAILED,
        "v4": LeafStatus.OPERATIONAL,
        "v5": LeafStatus.FAILED,
        "v6": LeafStatus.OPERATIONAL,
    }
    return EventTree(
        vertices=("v0", "v1", "v2", "v3", "v4", "v5", "v6"),
        edges=edges,
        devents=devents,
        leaf_status=status,
    )


def tiny_ptree():
    tree = tiny_tree()
    return ProbabilityTree(
        tree=tree,
        theta={"v0": (0.6, 0.4), "v1": (0.3, 0.7), "v2": (0.5, 0.5)},
    )


class TestEventTree:
    def test_structure(self):
        tree = tiny_tree()
        assert tree.bfs_order == ("v0", "v1", "v2", "v3", "v4", "v5", "v6")
        assert tree.leaves == ("v3", "v4", "v5", "v6")
        assert tree.situations == ("v0", "v1", "v2")
        assert tree.is_leaf("v3") and not tree.is_leaf("v1")
        assert [e.dst for e in tree.out_edges("v0")] == ["v1", "v2"]
        assert {e.devent for e in tree.out_edges("v1")} == {"fail", "no_fail"}

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdge):
            EventTree(
                vertices=("v0", "v1"),
                edges=(Edge("v0", "v1", "a"), Edge("v0", "vX", "b")),
                devents={"a": DEvent("a", "a"), "b": DEvent("b", "b")},
                leaf_status={"v1": LeafStatus.FAILED},
            )

    def test_multiple_parents(self):
        with pytest.raises(MultipleParents):
            EventTree(
                vertices=("v0", "v1", "v2"),
                edges=(
                    Edge("v0", "v1", "a"),
                    Edge("v0", "v2", "b"),
                    Edge("v1", "v2", "a", index=2),
                ),
                devents={"a": DEvent("a", "a"), "b": DEvent("b", "b")},
                leaf_status={"v2": LeafStatus.FAILED},
            )

    def test_leaf_status_both_directions(self):
        # missing status for a leaf
        with pytest.raises(MissingLeafStatus):
            EventTree(
                vertices=("v0", "v1", "v2"),
                edges=(Edge("v0", "v1", "a"), Edge("v0", "v2", "b")),
                devents={"a": DEvent("a", "a"), "b": DEvent("b", "b")},
                leaf_status={"v1": LeafStatus.FAILED},
            )
        # status for a non-leaf
        with pytest.raises(MissingLeafStatus):
            tiny = tiny_tree()
            EventTree(
                vertices=tiny.vertices,
                edges=tiny.edges,
                devents=dict(tiny.devents),
                leaf_status={**tiny.leaf_status, "v1": LeafStatus.FAILED},
            )


class TestProbabilityTree:
    def test_normalization_enforced(self):
        tree = tiny_tree()
        with pytest.raises(NotNormalized):
            ProbabilityTree(
                tree=tree,
                theta={"v0": (0.6, 0.5), "v1": (0.3, 0.7), "v2": (0.5, 0.5)},
            )

    def test_open_interval_enforced(self):
        tree = tiny_tree()
        with pytest.raises(OutOfOpenInterval):
            ProbabilityTree(
                tree=tree,
                theta={"v0": (1.0, 0.0), "v1": (0.3, 0.7), "v2": (0.5, 0.5)},
            )

    def test_vector_length_checked(self):
        tree = tiny_tree()
        with pytest.raises(LengthMismatch):
            ProbabilityTree(
                tree=tree,
                theta={"v0": (0.6, 0.4), "v1": (1.0,), "v2": (0.5, 0.5)},
            )

    @pytest.mark.parametrize("entry", ["x", None])
    def test_non_number_entry_named(self, entry):
        # fsum raised a TypeError on such an entry
        with pytest.raises(OutOfOpenInterval) as info:
            ProbabilityTree(
                tree=tiny_tree(),
                theta={"v0": (0.6, 0.4), "v1": (0.3, entry), "v2": (0.5, 0.5)},
            )
        edge = tiny_tree().out_edges("v1")[1]
        assert str(info.value) == f"edge {edge}: probability {entry!r} is not a number"

    def test_edge_probability(self):
        ptree = tiny_ptree()
        first = ptree.tree.out_edges("v0")[0]
        assert ptree.edge_probability(first) == 0.6


class TestTolerance:
    """Every library entry point holds a tolerance to the CLI's rule: a
    finite positive number, else the CLI's ParseError."""

    BUILDS = {
        "build_event_tree": lambda doc, tol: build_event_tree(doc, tol),
        "ceg_from_document": lambda doc, tol: ceg_from_document(doc, tol),
        "replace": lambda doc, tol: dataclasses.replace(ceg_from_document(doc), tolerance=tol),
    }

    @pytest.mark.parametrize(
        "tol,fault",
        [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "positive"),
         (0.0, "positive"), (-1.0, "positive")],
    )
    @pytest.mark.parametrize("entry", sorted(BUILDS))
    def test_rejected(self, entry, tol, fault):
        with pytest.raises(ParseError, match=f"^tolerance must be {fault}$"):
            self.BUILDS[entry](fixtures.bushing_document(), tol)

    @pytest.mark.parametrize("entry", sorted(BUILDS))
    def test_finite_positive_accepted(self, entry):
        assert self.BUILDS[entry](fixtures.bushing_document(), 0.25).tolerance == 0.25


def tree_theta(ptree):
    return {e: ptree.edge_probability(e) for e in ptree.tree.edges}


class TestPaths:
    def test_enumeration_matches_oracle(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        got = oracles.graph_paths(ptree.tree)
        expected = oracles.tree_paths(doc)
        assert len(got) == len(expected) == 20
        assert [tuple(e.dst for e in p) for p in got] == [
            tuple(e.dst for e in p) for p in expected
        ]

    def test_path_probability_matches_oracle(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        theta = tree_theta(ptree)
        for path in oracles.graph_paths(ptree.tree):
            want = oracles.tree_path_probability(doc, path)
            assert math.isclose(
                oracles.path_mass([path], theta), want, abs_tol=1e-15
            )

    def test_total_mass_is_one(self):
        ptree = build_event_tree(fixtures.conservator_document())
        total = oracles.path_mass(oracles.graph_paths(ptree.tree), tree_theta(ptree))
        assert abs(total - 1.0) <= 1e-12
