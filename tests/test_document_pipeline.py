"""The document-to-graph pipeline against its item-by-item reference.

The package accepts a valid model document by bulk operations and scans it
item by item only to name a fault.  ``oracles.reference_pipeline`` is the
item-by-item pipeline: every object built from a valid document must be
field-equal to the reference's, and a faulty document must raise the same
class with the same message, naming the same one of two faults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, event, given, settings, strategies as st

from cegkit import fixtures, model_io, staging
from cegkit.ceg import build_ceg, ceg_from_document
from cegkit.cli import main
from cegkit.errors import CegError
from cegkit.event_tree import Edge, build_event_tree
from cegkit.staging import _canonical_forms, compute_positions, staged_tree_from_document

import golden_builds
import oracles
from random_trees import declared_stages, model_payload, random_tree_document

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import ladder  # noqa: E402  (the benchmark's size ladder)
import workloads  # noqa: E402

TOLERANCES = (1e-12, 0.05)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def package_pipeline(text: str, tolerance: float) -> dict:
    """The package's objects for ``text``, in the reference's layout."""
    doc = model_io.loads(text)
    ptree = build_event_tree(doc, tolerance)
    staged = staged_tree_from_document(doc, ptree)
    graph = build_ceg(staged, root_causes=doc.root_causes, name=doc.name)
    edges = (*doc.edges, *ptree.tree.edges, *graph.edges, *graph.theta)
    assert {type(e) for e in edges} <= {Edge}
    return {
        "document": doc,
        "tree": _fields(ptree.tree),
        "ptree": {"theta": ptree.theta, "tolerance": ptree.tolerance},
        "stages": _fields(staged.stages),
        "positions": _fields(compute_positions(staged)),
        "ceg": _fields(graph),
    }


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    repeat_devents=st.booleans(),
    shuffle=st.booleans(),
    tolerance=st.sampled_from(TOLERANCES),
    declare=st.booleans(),
)
def test_shared_stages_give_the_reference_positions(
    seed, repeat_devents, shuffle, tolerance, declare
):
    """A partition with a shared stage, closed or not, gives the reference's
    positions: members breadth-first, blocks by last member, ``stage_of``
    and ids.  A closed one's blocks are its stages, and they are the blocks
    of pairwise isomorphic coloured subtrees."""
    rng = random.Random(seed)
    doc = random_tree_document(seed, repeat_devents=repeat_devents)
    payload = model_payload(doc, rng if shuffle else None)
    if declare:  # the inferred blocks, their members shuffled
        blocks = oracles.tolerance_stage_blocks(doc, tolerance)
        payload["stages"] = declared_stages(payload, blocks, rng)
    doc = model_io.loads(json.dumps(payload))
    ptree = build_event_tree(doc, tolerance)
    try:
        staged = staged_tree_from_document(doc, ptree)
    except CegError:  # a block closed within 0.05 may hold a member too far from its first
        assume(False)
    assume(len(staged.stages.blocks) < len(ptree.tree.situations))
    closed = staging._closed(ptree.tree, staged.stages)
    event("closed" if closed else "not closed")
    positions = compute_positions(staged)
    assert _fields(positions) == _reference_positions(staged)
    if closed:
        assert set(map(frozenset, positions.blocks)) == set(map(frozenset, staged.stages.blocks))
    # the isomorphism pairs edges of equal probability, so it names the
    # positions only where a stage's florets are equal, as at 1e-12.  With a
    # repeated d-event it may keep apart what the package merges: canonical
    # forms, and so closure, match a repeated d-event's edges without regard
    # to their probabilities (a known fault: random tree 147 with repeated
    # d-events, siblings shuffled), so it is not asserted there
    if closed and tolerance == 1e-12 and not repeat_devents:
        stage_of = staged.stages._index
        assert set(map(frozenset, positions.blocks)) == set(oracles.position_blocks(doc, stage_of))


def outcome(pipeline, text: str, tolerance: float):
    """The pipeline's objects, or the class and message of what it raised."""
    try:
        return pipeline(text, tolerance)
    except Exception as exc:  # the reference raises more than CegError too
        return type(exc), str(exc)


def valid_payload(seed: int, tolerance: float, declare: bool, shuffle: bool) -> dict:
    doc = random_tree_document(seed)
    rng = random.Random(seed)
    payload = model_payload(doc, rng if shuffle else None)
    if declare:
        text = json.dumps(payload)
        blocks = oracles.reference_pipeline(text, tolerance)["stages"]["blocks"]
        payload["stages"] = declared_stages(payload, blocks, rng)
    return payload


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    tolerance=st.sampled_from(TOLERANCES),
    declare=st.booleans(),
    shuffle=st.booleans(),
    indexed=st.booleans(),
)
def test_valid_document_builds_the_reference_objects(seed, tolerance, declare, shuffle, indexed):
    payload = valid_payload(seed, tolerance, declare, shuffle)
    if not indexed:  # the index of each edge left to document order
        for e in payload["edges"]:
            del e["index"]
    text = json.dumps(payload)
    # a block declared from a closure within 0.05 may hold a member that
    # is too far from its first: then both raise
    want = outcome(oracles.reference_pipeline, text, tolerance)
    assert outcome(package_pipeline, text, tolerance) == want


def _situations(p):
    return [v for v in p["vertices"] if v in p["theta"]]


def _leaves(p):
    return list(p["leaf_status"])


def _replace_entry(p, rng, value):
    vec = p["theta"][rng.choice(_situations(p))]
    vec[rng.randrange(len(vec))] = value


def _negative_entry(p, rng, tol):
    vec = p["theta"][rng.choice(_situations(p))]
    vec[1] += vec[0] + 0.1  # the sum stays one
    vec[0] = -0.1


def _off_sum(p, rng, tol):
    p["theta"][rng.choice(_situations(p))][0] += 3 * tol


def _zero_entry(p, rng, tol):
    vec = p["theta"][rng.choice(_situations(p))]
    vec[1] += vec[0]
    vec[0] = 0.0


def _unlike_stage(p, rng, tol):
    # two situations whose florets carry different d-events, given one
    # vector of the same length where they can be, declared one stage
    devents = {}
    for e in p["edges"]:
        devents.setdefault(e["src"], []).append(e["devent"])
    theta = p["theta"]
    unlike = [
        (a, b) for a in _situations(p) for b in _situations(p)
        if devents[a] != devents[b] and len(theta[a]) == len(theta[b])
    ]
    if not unlike:
        unlike = [(a, b) for a in _situations(p) for b in _situations(p) if a != b]
    a, b = rng.choice(unlike)  # IndexError: a tree of one situation
    theta[b] = list(theta[a])
    stages = [[v for v in block if v not in (a, b)] for block in _declared(p)]
    p["stages"] = [block for block in stages if block] + [[a, b]]


def _cycle(p, rng, tol):
    # an edge into a situation now leaves one of that situation's children;
    # below a root whose children are all leaves, a child becomes its parent
    into = [e for e in p["edges"] if e["dst"] in p["theta"]]
    if into:
        edge = rng.choice(into)
        edge["src"] = rng.choice([e["dst"] for e in p["edges"] if e["src"] == edge["dst"]])
    else:
        edge = rng.choice(p["edges"])
        p["edges"].append({"src": edge["dst"], "dst": edge["src"], "devent": edge["devent"]})


def _second_parent(p, rng, tol):
    e = dict(rng.choice(p["edges"]))
    e["src"] = rng.choice([v for v in p["vertices"] if v != e["src"]])
    e.pop("index", None)
    p["edges"].insert(rng.randrange(len(p["edges"]) + 1), e)


def _parallel(index):
    # a copy of an edge, later in the list, joins the same two vertices
    def mutate(p, rng, tol):
        i = rng.randrange(len(p["edges"]))
        e = {**p["edges"][i], "index": index}
        if index is None:
            del e["index"]
        p["edges"].insert(rng.randrange(i + 1, len(p["edges"]) + 1), e)
    return mutate


def _repoint(key):
    def mutate(p, rng, tol):
        rng.choice(p["edges"])[key] = "nope"
    return mutate


def _index(value):
    def mutate(p, rng, tol):
        rng.choice(p["edges"])["index"] = value
    return mutate


def _declared(p):
    """The declared stages, declaring every situation once if none are."""
    if not p.get("stages"):
        situations = _situations(p)
        p["stages"] = [[v] for v in situations]
    return p["stages"]


def _overlap(p, rng, tol):
    stages = _declared(p)
    member = rng.choice(rng.choice(stages))
    stages.insert(rng.randrange(len(stages) + 1), [member])


# every fault a document can carry into the pipeline, each at a random site
FAULTS = {
    "duplicate vertex": lambda p, rng, tol: p["vertices"].append(rng.choice(p["vertices"])),
    "unknown src": _repoint("src"),
    "unknown dst": _repoint("dst"),
    "unknown devent": _repoint("devent"),
    "second parent": _second_parent,
    "parallel edge": _parallel(None),
    "parallel edge numbered 1": _parallel(1),
    "parallel edge numbered 2": _parallel(2),
    "cycle": _cycle,
    "wrong index": _index(2),
    "index true": _index(True),
    "index 1.0": _index(1.0),
    "missing status": lambda p, rng, tol: p["leaf_status"].pop(rng.choice(_leaves(p))),
    "status for a situation": lambda p, rng, tol: p["leaf_status"].update(
        {rng.choice(_situations(p)): "failed"}),
    "status for an unknown vertex": lambda p, rng, tol: p["leaf_status"].update({"nope": "failed"}),
    "unknown status": lambda p, rng, tol: p["leaf_status"].update({rng.choice(_leaves(p)): "broken"}),
    "nan entry": lambda p, rng, tol: _replace_entry(p, rng, math.nan),
    "inf entry": lambda p, rng, tol: _replace_entry(p, rng, math.inf),
    "-inf entry": lambda p, rng, tol: _replace_entry(p, rng, -math.inf),
    "negative entry": _negative_entry,
    "zero entry": _zero_entry,
    "sum off by three tolerances": _off_sum,
    "long vector": lambda p, rng, tol: p["theta"][rng.choice(_situations(p))].append(0.0),
    "short vector": lambda p, rng, tol: p["theta"][rng.choice(_situations(p))].pop(),
    "missing vector": lambda p, rng, tol: p["theta"].pop(rng.choice(_situations(p))),
    "theta for a leaf": lambda p, rng, tol: p["theta"].update({rng.choice(_leaves(p)): [1.0]}),
    "unknown root cause": lambda p, rng, tol: p.update(root_causes=["fail", "nope"]),
    "empty stage": lambda p, rng, tol: _declared(p).insert(0, []),
    "overlapping stages": _overlap,
    "stage of a leaf": lambda p, rng, tol: _declared(p).append([rng.choice(_leaves(p))]),
    "stage of unlike florets": _unlike_stage,
}


def faulty_text(seed: int, faults, tolerance: float) -> str:
    rng = random.Random(seed)
    payload = valid_payload(seed, tolerance, declare=bool(seed % 2), shuffle=seed % 3 == 0)
    for fault in faults:
        try:
            FAULTS[fault](payload, rng, tolerance)
        except (IndexError, KeyError):  # no site is left for this fault
            pass
    return json.dumps(payload)


class TestFaultEquality:
    """The first fault is named by the reference's ordered scan, whatever
    the set iteration order (CI runs this under several hash seeds)."""

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_one_fault_raises_the_reference_error(self, fault, tolerance):
        faulty = 0
        for seed in range(8):
            text = faulty_text(seed, [fault], tolerance)
            want = outcome(oracles.reference_pipeline, text, tolerance)
            assert outcome(package_pipeline, text, tolerance) == want, (fault, seed)
            faulty += isinstance(want, tuple)
        assert faulty >= 6  # a tree may have no site for the fault

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    def test_two_faults_raise_the_reference_error(self, tolerance):
        names = sorted(FAULTS)
        named = set()
        for seed in range(200):
            faults = random.Random(-seed).sample(names, 2)
            text = faulty_text(seed, faults, tolerance)
            want = outcome(oracles.reference_pipeline, text, tolerance)
            assert outcome(package_pipeline, text, tolerance) == want, (faults, seed)
            named.add(want[1] if isinstance(want, tuple) else None)
        assert len(named) > 50  # the pairs reach many distinct first faults


def _graph_edge(rng, g, **fields):
    """Changes replacing one of ``g``'s edges by ``Edge._replace(**fields)``;
    a field given as a function is computed from the old edge."""
    old = rng.choice(g.edges)
    new = old._replace(**{k: f(old) if callable(f) else f for k, f in fields.items()})
    theta = {new if e == old else e: p for e, p in g.theta.items()}
    return {"edges": tuple(new if e == old else e for e in g.edges), "theta": theta}


def _graph_vector(rng, g, change):
    """Changes giving a position of two or more edges the vector ``change``
    makes of its own (a list it may alter)."""
    w = rng.choice([w for w in g.position_ids if len(g.out_edges(w)) > 1])
    vec = list(g.theta_vector(w))
    change(vec)
    return {"theta": {**g.theta, **dict(zip(g.out_edges(w), vec))}}


def _shifted(at, value):
    """``vec[at] = value``, with ``vec[1 - at]`` keeping the sum."""
    def change(vec):
        vec[1 - at] += vec[at] - value
        vec[at] = value
    return change


def _root_moved(rng, g):
    """Another position listed first, so the root has in-edges."""
    w = rng.choice(g.position_ids[1:] or g.position_ids)
    return {"position_ids": (w, *(v for v in g.position_ids if v != w))}


def _second_root(rng, g):
    """A copy of a random floret leaving a new position nothing enters."""
    es = g.out_edges(rng.choice(g.position_ids))
    new = {e._replace(src="w_new"): g.theta[e] for e in es}
    return {"position_ids": (*g.position_ids, "w_new"), "edges": (*g.edges, *new),
            "theta": {**g.theta, **new}}


def _drop_theta(rng, g):
    e = rng.choice(g.edges)
    return {"theta": {f: p for f, p in g.theta.items() if f != e}}


# every fault a graph built from its fields can carry, at a random site
GRAPH_FAULTS = {
    "edge from an unknown position": lambda rng, g: _graph_edge(rng, g, src="nope"),
    "edge to an unknown position": lambda rng, g: _graph_edge(rng, g, dst="nope"),
    "edge back to the root": lambda rng, g: _graph_edge(rng, g, dst=g.root),
    "edge back to its source": lambda rng, g: _graph_edge(rng, g, dst=lambda e: e.src),
    "position without edges": lambda rng, g: {"position_ids": (*g.position_ids, "w_nope")},
    "root not listed first": _root_moved,
    "second parentless position": _second_root,
    "no positions": lambda rng, g: {"position_ids": (), "edges": (), "theta": {}},
    "edge without theta": _drop_theta,
    "zero entry": lambda rng, g: _graph_vector(rng, g, _shifted(0, 0.0)),
    "one entry": lambda rng, g: _graph_vector(rng, g, _shifted(1, 1.0)),
    "entry above one": lambda rng, g: _graph_vector(rng, g, _shifted(0, 1.25)),
    "negative entry": lambda rng, g: _graph_vector(rng, g, _shifted(1, -0.25)),
    "nan entry": lambda rng, g: _graph_vector(rng, g, lambda vec: vec.__setitem__(0, math.nan)),
    "non-number entry": lambda rng, g: _graph_vector(
        rng, g, lambda vec: vec.__setitem__(rng.randrange(len(vec)), rng.choice(("x", None)))),
    "entry just above one": lambda rng, g: _graph_vector(
        rng, g, lambda vec: vec.__setitem__(slice(None), [1 + g.tolerance / 2] + [0.0] * 3)),
    "sum off by three tolerances": lambda rng, g: _graph_vector(
        rng, g, lambda vec: vec.__setitem__(0, vec[0] + 3 * g.tolerance)),
}


def _graphs():
    """Graphs of the fixtures and of random trees at each tolerance, and at
    a tolerance of one, where a sum within tolerance no longer bounds the
    entries."""
    docs = [*fixtures.all_documents().values(), *map(random_tree_document, range(12))]
    graphs = [ceg_from_document(doc, tol) for doc in docs for tol in TOLERANCES]
    return graphs + [dataclasses.replace(g, tolerance=1.0) for g in graphs[::2]]


class TestGraphFaultEquality:
    """A graph made from its fields (``dataclasses.replace``, or the
    constructor) is checked as ``oracles.reference_ceg_structure`` checks it."""

    @staticmethod
    def _compare(graph, changes):
        fields = {**_fields(graph), **changes}
        want = outcome(
            lambda *_: oracles.reference_ceg_structure(
                fields["position_ids"], fields["edges"], fields["theta"],
                fields["tolerance"], fields["interior"],
            ),
            "", 0.0,
        )
        got = outcome(
            lambda *_: {
                k: v for k, v in _fields(dataclasses.replace(graph, **changes)).items()
                if k in ("_out", "_in", "sinks", "order")
            },
            "", 0.0,
        )
        assert got == want, changes
        # a missing or non-number theta entry ended in a KeyError or TypeError
        assert not isinstance(want, tuple) or issubclass(want[0], CegError), want
        return want

    @pytest.mark.parametrize("interior", [True, False])
    @pytest.mark.parametrize("fault", sorted(GRAPH_FAULTS))
    def test_one_fault_raises_the_reference_error(self, fault, interior):
        rng = random.Random(fault)
        outcomes = [
            self._compare(g, {**GRAPH_FAULTS[fault](rng, g), "interior": interior})
            for g in _graphs()
            if len(g.edges) > 2
        ]
        # 0 and 1 lie inside the closed interval of a manipulated graph
        closed_ok = fault in ("zero entry", "one entry") and not interior
        assert closed_ok or any(isinstance(o, tuple) for o in outcomes)

    def test_two_faults_raise_the_reference_error(self):
        rng = random.Random(2)
        names = sorted(GRAPH_FAULTS)
        for g in _graphs():
            for _ in range(10):
                first, second = rng.sample(names, 2)
                changes = {"interior": rng.random() < 0.5, **GRAPH_FAULTS[first](rng, g)}
                changes.update(GRAPH_FAULTS[second](rng, dataclasses.replace(g, **{
                    k: v for k, v in changes.items() if k == "interior"})))
                self._compare(g, changes)


def _staged(doc):
    return staged_tree_from_document(doc, build_event_tree(doc))


def _ladder_document(family: str, depth: int, width: int):
    return model_io.loads(json.dumps(ladder.ladder_document(family, depth, width, seed=1)))


class TestCollapseEquality:
    """A graph from ``build_ceg`` skips the checks its tree already passed;
    copied by ``dataclasses.replace``, which runs every check, it derives
    the same florets, in-edges, topological order and sinks."""

    @staticmethod
    def _assert_checked_copy_equal(graph):
        copy = dataclasses.replace(graph)
        assert (copy._out, copy._in, copy.order, copy.sinks) == (
            graph._out, graph._in, graph.order, graph.sinks)
        # the florets and the in-edge lists in one order too
        assert (list(copy._out), list(copy._in)) == (list(graph._out), list(graph._in))

    @pytest.mark.parametrize("tolerance", (1e-12, 0.05, 0.3))
    def test_fixtures_and_random_trees(self, tolerance):
        docs = [
            *fixtures.all_documents().values(),
            *map(random_tree_document, range(40)),
            *(random_tree_document(seed, repeat_devents=True) for seed in range(40)),
        ]
        for doc in docs:
            self._assert_checked_copy_equal(ceg_from_document(doc, tolerance))

    @pytest.mark.parametrize("family", ladder.FAMILIES)
    def test_build_ladder_rungs(self, family):
        for depth, width in workloads.BUILD_RUNGS:
            self._assert_checked_copy_equal(
                ceg_from_document(_ladder_document(family, depth, width))
            )

    def test_order_is_kahns_walk_not_position_order(self):
        # Kahn's walk places w4 before w3 here; the order fixes the kernel's
        # summation order, so it may not be replaced by position_ids
        graph = ceg_from_document(random_tree_document(112, repeat_devents=True), 0.3)
        self._assert_checked_copy_equal(graph)
        assert graph.order == ("w0", "w1", "w2", "w4", "w3")
        assert graph.order != graph.position_ids


class TestReportEquality:
    """``ceg build`` prints its ``[positions]`` blocks and the ``positions``,
    ``sinks`` and ``edges`` counts from the position partition and the tree,
    without assembling the graph; they describe the graph ``build_ceg``
    assembles from the same document."""

    @pytest.mark.parametrize("tolerance", ("1e-12", "0.05", "0.3"))
    def test_fixtures_rungs_and_random_trees(self, tmp_path, tolerance):
        docs = [
            *fixtures.all_documents().values(),
            *(_ladder_document(family, depth, width)
              for family in ladder.FAMILIES for depth, width in workloads.BUILD_RUNGS),
            *map(random_tree_document, range(40)),
            # seed 112 at 0.3 has a topological order that is not position_ids
            *(random_tree_document(seed, repeat_devents=True) for seed in (*range(40), 112)),
            # every leaf of one status: the graph has one sink
            *(dataclasses.replace(doc, leaf_status=dict.fromkeys(doc.leaf_status, status))
              for doc in map(random_tree_document, range(10))
              for status in ("failed", "operational")),
        ]
        runner, model = CliRunner(), tmp_path / "model.json"
        for doc in docs:
            model_io.dump(doc, model)
            graph = ceg_from_document(model_io.load(model), float(tolerance))
            result = runner.invoke(main, ["build", "--model", str(model), "--tolerance", tolerance])
            assert (result.exit_code, result.stderr) == (0, "")
            lines = result.stdout.splitlines()
            start, end = lines.index("[positions]"), lines.index("[graph]")
            assert lines[start + 1:end] == [
                f"{w}: {' '.join(graph.members[w])}" for w in graph.position_ids]
            assert lines[end + 1:end + 4] == [
                f"positions: {len(graph.position_ids)}",
                f"sinks: {len(graph.sinks)}",
                f"edges: {len(graph.edges)}",
            ]


class TestFormEquality:
    """Canonical form ids equal the reference's, numbers included, whether
    a situation is alone in its stage (its form is not built) or not."""

    @staticmethod
    def _assert_reference_forms(staged):
        want = oracles.reference_canonical_forms(
            _fields(staged.ptree.tree), _fields(staged.stages)
        )
        assert _canonical_forms(staged) == want

    def test_fresh_rung_every_stage_alone(self):
        staged = _staged(_ladder_document("fresh", 4, 3))
        assert {len(block) for block in staged.stages.blocks} == {1}
        self._assert_reference_forms(staged)

    def test_merged_rung_only_the_root_alone(self):
        staged = _staged(_ladder_document("merged", 4, 3))
        assert [len(block) for block in staged.stages.blocks] == [1, 3, 9, 27, 81]
        self._assert_reference_forms(staged)

    def test_declared_partial_stages(self):
        # a merged rung declaring layers 2 and 4 and half of layer 3: every
        # other situation is a singleton stage
        payload = ladder.ladder_document("merged", 4, 3, seed=1, declare_stages=True)
        layers = payload["stages"]
        payload["stages"] = [layers[2], layers[3][: len(layers[3]) // 2], layers[4]]
        staged = _staged(model_io.loads(json.dumps(payload)))
        sizes = [len(block) for block in staged.stages.blocks]
        assert (sizes.count(1), sorted(set(sizes))) == (1 + 3 + 14, [1, 9, 13, 81])
        self._assert_reference_forms(staged)


def _declared_partial_document():
    """TestFormEquality's declared-partial rung: a merged rung declaring
    layers 2 and 4 and half of layer 3."""
    payload = ladder.ladder_document("merged", 4, 3, seed=1, declare_stages=True)
    layers = payload["stages"]
    payload["stages"] = [layers[2], layers[3][: len(layers[3]) // 2], layers[4]]
    return model_io.loads(json.dumps(payload))


def _reference_positions(staged) -> dict:
    return oracles.reference_positions(_fields(staged.ptree.tree), _fields(staged.stages))


def _counting(monkeypatch, name: str) -> list:
    """Wrap ``staging.<name>``; the returned list grows by one per call."""
    calls, original = [], getattr(staging, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(staging, name, counted)
    return calls


class TestStagingWork:
    """The staging fast paths do only the work their input needs, and give
    the reference's partitions whether they are taken or not."""

    def test_a_fresh_rung_builds_no_canonical_form(self, monkeypatch):
        staged = _staged(_ladder_document("fresh", 4, 3))
        calls = _counting(monkeypatch, "_canonical_forms")
        positions = compute_positions(staged)
        assert calls == []
        assert positions.blocks == staged.stages.blocks
        assert positions.stage_of == tuple(range(len(positions.blocks)))

    @pytest.mark.parametrize("make", [
        lambda: _ladder_document("merged", 4, 3), fixtures.bushing_document,
    ], ids=["merged", "bushing declared"])
    def test_closed_stages_build_no_form(self, monkeypatch, make):
        # every shared stage's members branch alike, so each stage is a position
        staged = _staged(make())
        calls = _counting(monkeypatch, "_canonical_forms")
        positions = compute_positions(staged)
        assert calls == []
        assert _fields(positions) == _reference_positions(staged)

    @pytest.mark.parametrize("make", [
        _declared_partial_document, fixtures.conservator_document,
    ], ids=["declared partial", "conservator"])
    def test_a_shared_stage_builds_the_forms_once(self, monkeypatch, make):
        # a stage whose members branch into different stages: conservator
        # has 6 stages and 9 positions
        staged = _staged(make())
        calls = _counting(monkeypatch, "_canonical_forms")
        positions = compute_positions(staged)
        assert len(calls) == 1
        assert _fields(positions) == _reference_positions(staged)

    @pytest.mark.parametrize("reverse_blocks", (False, True), ids=["blocks", "blocks reversed"])
    def test_members_listed_in_reverse_give_the_forms_path_positions(
        self, monkeypatch, reverse_blocks
    ):
        # a closed partition returned as listed would keep each block's
        # members in reverse breadth-first order; the forms path lists them
        # breadth-first and orders the blocks by their last members
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        blocks = tuple(tuple(reversed(b)) for b in staging.compute_stages(ptree).blocks)
        staged = staging.StagedTree(
            ptree, staging.StagePartition(blocks[::-1] if reverse_blocks else blocks))
        calls = _counting(monkeypatch, "_canonical_forms")
        closed = compute_positions(staged)
        assert calls == []
        monkeypatch.setattr(staging, "_closed", lambda tree, stages: False)
        assert closed == compute_positions(staged)
        assert len(calls) == 1
        assert _fields(closed) == _reference_positions(staged)

    def test_declared_stages_sharing_one_floret_build_no_key(self, monkeypatch):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        calls = _counting(monkeypatch, "_floret_key")
        stages = staging.declared_stages(ptree, doc.stages)
        assert calls == []
        assert max(map(len, stages.blocks)) == 6

    def test_a_declared_member_within_tolerance_builds_keys(self, monkeypatch):
        doc = fixtures.bushing_document()
        theta = {**doc.theta, "v4": (0.56, 0.44)}  # v3's (0.55, 0.45) within 0.05
        ptree = build_event_tree(dataclasses.replace(doc, theta=theta), 0.05)
        calls = _counting(monkeypatch, "_floret_key")
        stages = staging.declared_stages(ptree, doc.stages)
        assert len(calls) == 2  # one key per member of the block that differs
        assert ("v3", "v4") in stages.blocks

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    @pytest.mark.parametrize("family", ladder.FAMILIES)
    def test_ladder_partitions_equal_the_reference(self, family, tolerance):
        for depth, width in ((3, 2), (5, 2), (2, 4), (4, 3)):
            payload = ladder.ladder_document(family, depth, width, seed=1)
            self._assert_reference_partitions(json.dumps(payload), tolerance)

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    @pytest.mark.parametrize("repeat_devents", (False, True))
    def test_random_partitions_equal_the_reference(self, repeat_devents, tolerance):
        for seed in range(40):
            doc = random_tree_document(seed, repeat_devents=repeat_devents)
            payload = model_payload(doc, random.Random(seed) if seed % 2 else None)
            self._assert_reference_partitions(json.dumps(payload), tolerance)

    @staticmethod
    def _assert_reference_partitions(text: str, tolerance: float):
        want = oracles.reference_pipeline(text, tolerance)
        doc = model_io.loads(text)
        ptree = build_event_tree(doc, tolerance)
        stages = staging.compute_stages(ptree)
        positions = compute_positions(staging.StagedTree(ptree, stages))
        assert (_fields(stages), _fields(positions)) == (want["stages"], want["positions"])


class TestGoldenBuilds:
    def test_every_random_build_is_byte_identical(self, tmp_path):
        # digests written by tests/golden_builds.py: regenerate them only
        # for an intended report change, and list that change in CHANGES.md
        path = Path(__file__).parent / "golden_builds.json"
        want = json.loads(path.read_text(encoding="utf-8"))
        got = golden_builds.build_digests(tmp_path)
        assert sorted(got) == sorted(want)
        assert [k for k in want if got[k] != want[k]] == []
