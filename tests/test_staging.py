import pytest

from cegkit import fixtures
from cegkit.errors import ParseError
from cegkit.event_tree import build_event_tree
from cegkit.staging import (
    compute_positions,
    compute_stages,
    declared_stages,
    staged_tree_from_document,
)

import oracles
from random_trees import random_tree_document


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

    def test_stage_ids_follow_first_member_order(self):
        doc = fixtures.conservator_document()
        staged = staged_tree_from_document(doc, build_event_tree(doc))
        stages = staged.stages
        bfs = staged.ptree.tree.bfs_order.index
        firsts = [min(block, key=bfs) for block in stages.blocks]
        ordered = sorted(firsts, key=bfs)
        assert firsts == ordered
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

    def test_stage_refinement_on_probability_change(self):
        # breaking two symptom florets splits nothing structural: the broken
        # model keeps the same positions because the fail stages still match
        base, broken = (
            blocks_as_sets(compute_positions(staged_tree_from_document(doc, build_event_tree(doc))))
            for doc in (fixtures.bushing_document(), fixtures.bushing_broken_document())
        )
        assert base == broken
