"""Graphviz DOT rendering for trees, staged trees and graphs.

Output is deterministic: nodes and edges are emitted in the stored
document order, floats with a fixed format, so identical inputs give
byte-identical text.
"""

from __future__ import annotations

from .ceg import Ceg
from .event_tree import LeafStatus, ProbabilityTree
from .staging import StagedTree

# light fills, cycled by stage number
PALETTE = (
    "#cfe2f3",
    "#f4cccc",
    "#d9ead3",
    "#fff2cc",
    "#d9d2e9",
    "#fce5cd",
    "#d0e0e3",
    "#ead1dc",
    "#e6b8af",
    "#b6d7a8",
    "#ffe599",
    "#b4a7d6",
)


# node style of the renderers that fill nodes with stage colours
_FILLED = "shape=circle, style=filled"


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _stage_fill(stage_id: str) -> str:
    try:
        n = int(stage_id.lstrip("u"))
    except ValueError:
        n = sum(stage_id.encode())
    return PALETTE[n % len(PALETTE)]


def _frame(name: str, node_style: str, nodes: list, edges, probability) -> str:
    """A digraph: header, the renderer's node lines, one line per edge
    labelled with its d-event and ``probability(edge)``, closing brace."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", f"  node [{node_style}];"]
    lines += nodes
    for e in edges:
        label = f"{e.devent} {_fmt(probability(e))}"
        lines.append(f"  {_quote(e.src)} -> {_quote(e.dst)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _leaf_line(v: str, label: str, filled: bool) -> str:
    """A leaf or sink: a doubled circle, white in the filled renderers."""
    fill = " fillcolor=white," if filled else ""
    return f"  {_quote(v)} [shape=doublecircle,{fill} label={_quote(label)}];"


def _stage_line(v: str, sid: str) -> str:
    """A vertex filled with the colour of stage ``sid``, labelled with it."""
    label = _quote(v + "\n" + sid)
    return f"  {_quote(v)} [fillcolor={_quote(_stage_fill(sid))}, label={label}];"


def _tree_nodes(tree, stage_of=None) -> list[str]:
    """Node lines in breadth-first order: each leaf marked F or N by its
    status, each situation coloured by ``stage_of`` when one is given."""
    nodes = []
    for v in tree.bfs_order:
        if tree.is_leaf(v):
            mark = "F" if tree.leaf_status[v] is LeafStatus.FAILED else "N"
            nodes.append(_leaf_line(v, v + "\n" + mark, stage_of is not None))
        elif stage_of is None:
            nodes.append(f"  {_quote(v)} [label={_quote(v)}];")
        else:
            nodes.append(_stage_line(v, stage_of(v)))
    return nodes


def tree_dot(ptree: ProbabilityTree, name: str = "tree") -> str:
    nodes = _tree_nodes(ptree.tree)
    return _frame(name, "shape=circle", nodes, ptree.tree.edges, ptree.edge_probability)


def staged_dot(staged: StagedTree, name: str = "staged") -> str:
    ptree = staged.ptree
    nodes = _tree_nodes(ptree.tree, staged.stages.stage_id)
    return _frame(name, _FILLED, nodes, ptree.tree.edges, ptree.edge_probability)


def ceg_dot(ceg: Ceg, name: str = "") -> str:
    nodes = []
    for w in ceg.position_ids:
        nodes.append(_stage_line(w, ceg.stage_ids.get(w, w)))
    for s in ceg.sinks:
        nodes.append(_leaf_line(s, s, filled=True))
    title = name or (ceg.name or "ceg")
    return _frame(title, _FILLED, nodes, ceg.edges, ceg.theta.__getitem__)
