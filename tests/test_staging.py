import dataclasses
import json
import random

import pytest
from click.testing import CliRunner

from cegkit import fixtures, model_io
from cegkit.cli import main
from cegkit.errors import DanglingEdge, ParseError
from cegkit.event_tree import LeafStatus, build_event_tree
from cegkit.staging import (
    StagePartition,
    StagedTree,
    compute_positions,
    compute_stages,
    declared_stages,
    staged_tree_from_document,
)

import oracles
from random_trees import model_payload, random_tree_document


def blocks_as_sets(partition):
    return {frozenset(b) for b in partition.blocks}


class TestStages:
    def test_bushing_declared_stage_listing(self):
        doc = fixtures.bushing_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        stages = staged.stages
        listing = {
            sid: frozenset(block)
            for sid, block in zip(stages.ids, stages.blocks)
        }
        assert listing == {
            "u0": frozenset({"v0"}),
            "u1": frozenset({"v1"}),
            "u2": frozenset({"v2"}),
            "u3": frozenset({"v3", "v4"}),
            "u4": frozenset({"v5"}),
            "u5": frozenset({"v6"}),
            "u6": frozenset({"v7", "v8", "v13", "v14", "v15", "v16"}),
            "u7": frozenset({"v9", "v11"}),
            "u8": frozenset({"v10", "v12"}),
        }

    @pytest.mark.parametrize(
        "doc_fn",
        [
            fixtures.bushing_document,
            fixtures.conservator_document,
            fixtures.twin_document,
        ],
    )
    def test_inferred_stages_match_oracle(self, doc_fn):
        doc = doc_fn()
        ptree = build_event_tree(doc)
        inferred = compute_stages(ptree)
        assert blocks_as_sets(inferred) == set(oracles.stage_blocks(doc))

    @pytest.mark.parametrize(
        "doc_fn",
        [
            fixtures.bushing_document,
            fixtures.conservator_document,
            fixtures.twin_document,
        ],
    )
    def test_declared_equal_inferred_on_fixtures(self, doc_fn):
        doc = doc_fn()
        ptree = build_event_tree(doc)
        declared = declared_stages(ptree, doc.stages)
        inferred = compute_stages(ptree)
        assert blocks_as_sets(declared) == blocks_as_sets(inferred)

    def test_random_trees_match_oracle(self):
        for seed in range(25):
            doc = random_tree_document(seed)
            ptree = build_event_tree(doc)
            inferred = compute_stages(ptree)
            assert blocks_as_sets(inferred) == set(oracles.stage_blocks(doc)), (
                f"seed {seed}"
            )

    def test_declared_must_share_floret(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        with pytest.raises(ParseError):
            # v5 and v6 have different d-events, no legal common stage
            declared_stages(ptree, [["v5", "v6"]])

    def test_declared_blocks_must_not_overlap(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        with pytest.raises(ParseError):
            declared_stages(ptree, [["v3", "v4"], ["v4"]])

    def test_declared_unknown_situation(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        with pytest.raises(ParseError):
            declared_stages(ptree, [["v3", "nope"]])

    def test_declared_empty_block(self):
        doc = fixtures.bushing_document()
        ptree = build_event_tree(doc)
        with pytest.raises(ParseError, match="empty"):
            declared_stages(ptree, [["v3", "v4"], []])

    def test_partition_names_the_first_member_listed_twice(self):
        with pytest.raises(ParseError, match=r"^situation v2 appears in two stages$"):
            StagePartition(blocks=(("v0", "v2"), ("v1",), ("v3", "v2", "v1")))
        assert StagePartition(blocks=(("v0", "v2"), ("v1",)))._index == {
            "v0": 0, "v2": 0, "v1": 1}

    def test_partition_has_no_empty_block(self):
        # an empty block was accepted, and compute_positions could return it
        # as a position or fail on it
        with pytest.raises(ParseError, match=r"^stage partition has an empty block$"):
            StagePartition(blocks=(("v0", "v2"), ()))

    @pytest.mark.parametrize("declare", [True, False])
    def test_stage_ids_follow_first_member_order(self, declare):
        doc = fixtures.conservator_document()
        ptree = build_event_tree(doc)
        stages = declared_stages(ptree, doc.stages) if declare else compute_stages(ptree)
        bfs = ptree.tree.bfs_order.index
        # each block lists its members breadth-first
        assert all(list(block) == sorted(block, key=bfs) for block in stages.blocks)
        firsts = [block[0] for block in stages.blocks]
        assert firsts == sorted(firsts, key=bfs)
        assert list(stages.ids) == [f"u{i}" for i in range(len(stages.blocks))]


class TestPositions:
    def test_bushing_positions(self):
        doc = fixtures.bushing_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        positions = compute_positions(staged)
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

    def test_conservator_positions(self):
        doc = fixtures.conservator_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        positions = compute_positions(staged)
        got = blocks_as_sets(positions)
        assert frozenset({"v7", "v9", "v10"}) in got
        assert frozenset({"v8", "v11", "v12", "v13", "v14"}) in got

    @pytest.mark.parametrize(
        "doc_fn",
        [
            fixtures.bushing_document,
            fixtures.conservator_document,
            fixtures.twin_document,
            fixtures.bushing_broken_document,
        ],
    )
    def test_positions_match_iso_oracle(self, doc_fn):
        doc = doc_fn()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        got = blocks_as_sets(compute_positions(staged))
        stage_of = oracles.stage_of_from_blocks(oracles.stage_blocks(doc))
        assert got == set(oracles.position_blocks(doc, stage_of))

    def test_random_trees_match_iso_oracle(self):
        for seed in range(25):
            doc = random_tree_document(seed)
            staged = staged_tree_from_document(doc, build_event_tree(doc))
            got = blocks_as_sets(compute_positions(staged))
            stage_of = oracles.stage_of_from_blocks(oracles.stage_blocks(doc))
            want = set(oracles.position_blocks(doc, stage_of))
            assert got == want, f"seed {seed}"

    def test_positions_refine_stages(self):
        for seed in range(10):
            doc = random_tree_document(seed)
            staged = staged_tree_from_document(doc, build_event_tree(doc))
            positions = compute_positions(staged)
            for i, block in enumerate(positions.blocks):
                stage_block = staged.stages.blocks[positions.stage_of[i]]
                assert set(block) <= set(stage_block)

    @pytest.mark.parametrize("restage, message", [
        (lambda blocks: tuple(b for b in blocks if b != ("v2",)),
         r"^stage partition leaves out situations: \['v2'\]$"),
        (lambda blocks: (*blocks, ("v99",)),
         r"^stage partition names non-situations: \['v99'\]$"),
    ], ids=["leaves out v2", "names v99"])
    def test_partition_must_cover_exactly_the_situations(self, restage, message):
        # a situation left out raised a bare KeyError: 'v2', and a block of
        # a non-situation was accepted
        doc = fixtures.bushing_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        restaged = StagedTree(staged.ptree, StagePartition(restage(staged.stages.blocks)))
        with pytest.raises(ParseError, match=message):
            compute_positions(restaged)

    def test_tree_without_situations_has_no_position(self):
        # an empty partition was returned, for build_ceg to reject
        doc = model_io.loads(json.dumps({
            "vertices": ["v0"], "edges": [], "leaf_status": {"v0": "failed"},
            "theta": {}, "devents": []}))
        with pytest.raises(DanglingEdge, match=r"^graph has no positions$"):
            compute_positions(staged_tree_from_document(doc, build_event_tree(doc)))

    def test_stage_refinement_on_probability_change(self):
        # breaking two symptom florets splits nothing structural: the broken
        # model keeps the same positions because the fail stages still match
        base, broken = (
            blocks_as_sets(compute_positions(staged_tree_from_document(doc, build_event_tree(doc))))
            for doc in (fixtures.bushing_document(), fixtures.bushing_broken_document())
        )
        assert base == broken


def _repeat_payload(seed: int) -> dict:
    """A random tree whose siblings share d-events, its siblings listed in
    shuffled orders for odd seeds, so florets of one stage can list their
    d-events in different sequences."""
    doc = random_tree_document(seed, repeat_devents=True)
    return model_payload(doc, random.Random(seed) if seed % 2 else None)


def _reference_report(ref: dict, model: str) -> str:
    """The ``ceg build`` report of ``oracles.reference_pipeline``'s objects,
    with path counts from enumerating the tree's root-to-leaf paths."""
    doc, tree, stages, positions, graph = (
        ref[k] for k in ("document", "tree", "stages", "positions", "ceg"))
    paths = oracles.tree_paths(doc)
    failed = [p for p in paths if tree["leaf_status"][p[-1].dst] is LeafStatus.FAILED]
    return "\n".join([
        f"model: {doc.name or model}",
        f"vertices: {len(tree['vertices'])}",
        f"situations: {len(tree['situations'])}",
        f"devents: {len(tree['devents'])}",
        "[stages]",
        *(f"{sid}: {' '.join(b)}" for sid, b in zip(stages["ids"], stages["blocks"])),
        "[positions]",
        *(f"{wid}: {' '.join(b)}" for wid, b in zip(positions["ids"], positions["blocks"])),
        "[graph]",
        f"positions: {len(graph['position_ids'])}",
        f"sinks: {len(graph['sinks'])}",
        f"edges: {len(graph['edges'])}",
        f"root_to_sink_paths: {len(paths)}",
        f"failed_paths: {len(failed)}",
        "fine_cut_root: YES",
    ]) + "\n"


class TestRepeatedDevents:
    """Florets whose siblings share a d-event are keyed by their sorted
    (d-event, probability) pairs, ties ordered by value; every other
    floret by the one permutation of its d-event sequence."""

    SEEDS = range(80)

    @pytest.mark.parametrize("tolerance", (1e-12, 0.05))
    def test_partitions_match_the_reference(self, tolerance):
        for seed in self.SEEDS:
            text = json.dumps(_repeat_payload(seed))
            want = oracles.reference_pipeline(text, tolerance)
            doc = model_io.loads(text)
            staged = staged_tree_from_document(doc, build_event_tree(doc, tolerance))
            assert dataclasses.asdict(staged.stages) == want["stages"], seed
            assert dataclasses.asdict(compute_positions(staged)) == want["positions"], seed

    @pytest.mark.parametrize("tolerance", (1e-12, 0.05))
    def test_stages_match_the_flood_fill(self, tolerance):
        tied = 0  # stages joining vectors that differ only in the order of ties
        for seed in self.SEEDS:
            doc = random_tree_document(seed, repeat_devents=True)
            stages = compute_stages(build_event_tree(doc, tolerance))
            want = oracles.tolerance_stage_blocks(doc, tol=tolerance)
            assert blocks_as_sets(stages) == set(want), seed
            tied += sum(
                len({tuple(doc.theta[v]) for v in b}) > 1
                and len({oracles.floret_key(doc, v) for v in b}) == 1
                for b in stages.blocks
            )
        assert tied > 0

    @pytest.mark.parametrize("tolerance", ("1e-12", "0.05"))
    def test_build_report_matches_the_reference(self, tolerance, tmp_path):
        runner = CliRunner()
        for seed in self.SEEDS:
            text = json.dumps(_repeat_payload(seed))
            model = tmp_path / f"{seed}.json"
            model.write_text(text, encoding="utf-8")
            r = runner.invoke(main, ["build", "--model", str(model), "--tolerance", tolerance])
            want = oracles.reference_pipeline(text, float(tolerance))
            assert (r.exit_code, r.stderr) == (0, ""), seed
            assert r.stdout == _reference_report(want, str(model)), seed
