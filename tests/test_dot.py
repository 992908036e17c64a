import dataclasses
import json
import re
from pathlib import Path

from cegkit import fixtures
from cegkit.ceg import ceg_from_document
from cegkit.dot import PALETTE, ceg_dot, staged_dot, tree_dot
from cegkit.event_tree import build_event_tree
from cegkit.intervention import StochasticManipulation, conditioned_ceg
from cegkit.staging import staged_tree_from_document

import golden_dot


def test_outputs_are_deterministic():
    doc = fixtures.bushing_document()
    ptree = build_event_tree(doc)
    staged = staged_tree_from_document(doc, ptree)
    graph = ceg_from_document(doc)
    assert tree_dot(ptree) == tree_dot(build_event_tree(doc))
    assert staged_dot(staged) == staged_dot(staged)
    assert ceg_dot(graph) == ceg_dot(ceg_from_document(doc))


def test_tree_dot_shape():
    doc = fixtures.bushing_document()
    text = tree_dot(build_event_tree(doc), name="bushing")
    assert text.startswith('digraph "bushing" {')
    assert text.endswith("}\n")
    # one node line per vertex, one edge line per tree edge
    assert len(re.findall(r"^  \"v\w+\" \[", text, re.MULTILINE)) == len(doc.vertices)
    assert text.count(" -> ") == len(doc.edges)
    # leaves are doubled circles marked by terminal status
    assert re.search(r'"v7f" \[shape=doublecircle, label="v7f\\nF"\]', text)


def test_staged_dot_colours_stages_consistently():
    doc = fixtures.bushing_document()
    staged = staged_tree_from_document(doc, build_event_tree(doc))
    text = staged_dot(staged)

    def fill_of(v):
        return re.search(rf'"{v}" \[fillcolor="([^"]+)"', text).group(1)

    # v3 and v4 share a stage, so they share a fill; v5 does not
    assert fill_of("v3") == fill_of("v4")
    assert fill_of("v3") != fill_of("v5")
    assert 'label="v3\\nu3"' in text


def test_ceg_dot_lists_positions_sinks_and_parallel_edges():
    graph = ceg_from_document(fixtures.bushing_document())
    text = ceg_dot(graph)
    for w in graph.position_ids:
        assert f'"{w}" [fillcolor=' in text
    assert '"winf_f" [shape=doublecircle' in text
    assert '"winf_n" [shape=doublecircle' in text
    assert text.count('"w1" -> "w3"') == 2
    assert text.count(" -> ") == len(graph.edges)


def test_a_position_without_a_stage_is_coloured_by_its_id():
    # a stage id that is no "u" and a number falls back to the sum of its bytes
    graph = ceg_from_document(fixtures.bushing_document())
    text = ceg_dot(dataclasses.replace(graph, stage_ids={}))
    for w in graph.position_ids:
        fill = PALETTE[sum(w.encode()) % len(PALETTE)]
        assert f'  "{w}" [fillcolor="{fill}", label="{w}\\n{w}"];' in text.splitlines()


def test_manipulated_export_omits_pruned_positions():
    graph = ceg_from_document(fixtures.bushing_document())
    manipulation = StochasticManipulation(theta_hat={"w1": (0.1, 0.2, 0.3, 0.4)})
    manipulated = conditioned_ceg(graph, ("w1",), manipulation)
    text = ceg_dot(manipulated, name="bushing.manipulated")
    assert text.startswith('digraph "bushing.manipulated" {')
    assert '"w2"' not in text
    assert '"w1"' in text


def test_labels_escape_quotes_and_newlines():
    from cegkit.dot import _quote

    assert _quote('a"b') == '"a\\"b"'
    assert _quote("a\nb") == '"a\\nb"'
    assert _quote("a\\b") == '"a\\\\b"'


def test_every_fixture_dot_file_is_byte_identical(tmp_path):
    # digests written by tests/golden_dot.py: regenerate them only for an
    # intended DOT change, and list that change in CHANGES.md
    want = json.loads((Path(__file__).parent / "golden_dot.json").read_text(encoding="utf-8"))
    got = golden_dot.dot_digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []
