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


def _quote_label(top: str, bottom: str) -> str:
    return _quote(top + "\n" + bottom)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _stage_fill(stage_id: str) -> str:
    try:
        n = int(stage_id.lstrip("u"))
    except ValueError:
        n = sum(stage_id.encode())
    return PALETTE[n % len(PALETTE)]


def _status_mark(status: LeafStatus) -> str:
    return "F" if status is LeafStatus.FAILED else "N"


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


def tree_dot(ptree: ProbabilityTree, name: str = "tree") -> str:
    tree = ptree.tree
    nodes = []
    for v in tree.bfs_order:
        if tree.is_leaf(v):
            mark = _status_mark(tree.leaf_status[v])
            nodes.append(
                f"  {_quote(v)} [shape=doublecircle,"
                f" label={_quote_label(v, mark)}];"
            )
        else:
            nodes.append(f"  {_quote(v)} [label={_quote(v)}];")
    return _frame(name, "shape=circle", nodes, tree.edges, ptree.edge_probability)


def staged_dot(staged: StagedTree, name: str = "staged") -> str:
    ptree = staged.ptree
    tree = ptree.tree
    stage_of = staged.stages.stage_id
    nodes = []
    for v in tree.bfs_order:
        if tree.is_leaf(v):
            mark = _status_mark(tree.leaf_status[v])
            nodes.append(
                f"  {_quote(v)} [shape=doublecircle, fillcolor=white,"
                f" label={_quote_label(v, mark)}];"
            )
        else:
            sid = stage_of(v)
            nodes.append(
                f"  {_quote(v)} [fillcolor={_quote(_stage_fill(sid))},"
                f" label={_quote_label(v, sid)}];"
            )
    return _frame(name, _FILLED, nodes, tree.edges, ptree.edge_probability)


def ceg_dot(ceg: Ceg, name: str = "") -> str:
    nodes = []
    for w in ceg.position_ids:
        sid = ceg.stage_ids.get(w, w)
        nodes.append(
            f"  {_quote(w)} [fillcolor={_quote(_stage_fill(sid))},"
            f" label={_quote_label(w, sid)}];"
        )
    for s in ceg.sinks:
        nodes.append(
            f"  {_quote(s)} [shape=doublecircle, fillcolor=white,"
            f" label={_quote(s)}];"
        )
    title = name or (ceg.name or "ceg")
    return _frame(title, _FILLED, nodes, ceg.edges, ceg.theta.__getitem__)
