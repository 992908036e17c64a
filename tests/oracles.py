"""Independent reference computations for the test suite.

Everything here works directly on model documents or on a graph's edges
and theta: plain path enumeration, dictionary-keyed stage grouping,
pairwise flood fill for stages within a tolerance and backtracking subtree
matching.  None of it shares code with the package's graph machinery, so
agreement between the two is evidence, not tautology.  The exceptions are
the back-door search references, which reuse the package's criteria code:
``first_passing_candidate`` runs the full back-door check on every search
candidate, ``slice_screen`` screens a candidate from one kernel pass per
slice, and ``crossing_layers`` reads the crossing slices from one kernel
pass.  They test the search's two-pass screen and its structural slices,
not the criteria themselves.  ``rebuilt_forced_effect`` likewise reads a
forced edge's effect from the graph ``singular_manipulation`` builds, to
test that ``forced_edge_effect`` gets the same floats from the idle graph.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import permutations


def adjacency(doc):
    children = defaultdict(list)
    dsts = set()
    for e in doc.edges:
        children[e.src].append(e)
        dsts.add(e.dst)
    root = next(v for v in doc.vertices if v not in dsts)
    return root, children


def tree_paths(doc):
    """Root-to-leaf edge tuples in document order."""
    root, children = adjacency(doc)
    out = []

    def walk(v, acc):
        if not children[v]:
            out.append(tuple(acc))
            return
        for e in children[v]:
            acc.append(e)
            walk(e.dst, acc)
            acc.pop()

    walk(root, [])
    return out


def tree_path_probability(doc, path, override=None):
    _, children = adjacency(doc)
    p = 1.0
    for e in path:
        sibs = children[e.src]
        vec = None
        if override is not None:
            vec = override.get(e.src)
        if vec is None:
            vec = doc.theta[e.src]
        p *= vec[sibs.index(e)]
    return p


def event_mass(doc, pred, override=None, paths=None):
    if paths is None:
        paths = tree_paths(doc)
    return math.fsum(
        tree_path_probability(doc, p, override) for p in paths if pred(p)
    )


def hits_devent(devent):
    return lambda path: any(e.devent == devent for e in path)


def through_vertices(vertices):
    vs = set(vertices)
    return lambda path: any(e.src in vs for e in path)


def graph_paths(graph):
    """Root-to-end edge tuples, depth first in edge order: the root-to-sink
    paths of a chain event graph, or the root-to-leaf paths of an event
    tree.  Lambda sets are comprehensions over these."""
    ends = getattr(graph, "sinks", ())
    out, stack = [], [()]
    while stack:
        prefix = stack.pop()
        v = prefix[-1].dst if prefix else graph.root
        edges = () if v in ends else graph.out_edges(v)
        if edges:
            stack.extend(prefix + (e,) for e in reversed(edges))
        else:
            out.append(prefix)
    return out


def path_mass(paths, theta):
    """Sum over ``paths`` of the product of the ``theta`` (edge -> factor)
    along each path."""
    return math.fsum(math.prod(theta[e] for e in p) for p in paths)


def replaced_theta(graph, theta_hat):
    """The graph's theta with each listed position's vector replaced."""
    theta = dict(graph.theta)
    for w, vec in theta_hat.items():
        theta.update(zip(graph.out_edges(w), vec))
    return theta


def substitution_effect(doc, star_vertices, theta_hat_by_vertex, target):
    """Post-intervention target probability by direct enumeration.

    ``theta_hat_by_vertex`` replaces the transition vector at each listed
    tree vertex; the result is normalized over the paths through them.
    """
    paths = [p for p in tree_paths(doc) if through_vertices(star_vertices)(p)]
    num = event_mass(doc, hits_devent(target), theta_hat_by_vertex, paths)
    den = event_mass(doc, lambda p: True, theta_hat_by_vertex, paths)
    return num / den


# -- staging oracles ---------------------------------------------------------


def floret_key(doc, v):
    """Situations with equal keys share a floret distribution."""
    _, children = adjacency(doc)
    vec = doc.theta[v]
    return frozenset(
        (e.devent, tuple(sorted(vec[i] for i, f in enumerate(children[v])
                                if f.devent == e.devent)))
        for e in children[v]
    )


def stage_blocks(doc):
    """Group situations by floret distribution.

    Floret equality is already transitive, so grouping by key is the full
    pairwise closure.
    """
    _, children = adjacency(doc)
    groups = defaultdict(list)
    for v in doc.vertices:
        if children[v]:
            groups[floret_key(doc, v)].append(v)
    return [frozenset(g) for g in groups.values()]


def tolerance_stage_blocks(doc, tol):
    """Stage blocks when florets need only agree within ``tol``.

    Two situations match when their florets carry the same d-events, each
    with as many edges, and matched sorted probabilities differ by at most
    ``tol``.  Blocks are grown by flood fill over every pair, so they are the
    transitive closure of that pairwise relation.
    """
    _, children = adjacency(doc)
    situations = [v for v in doc.vertices if children[v]]
    keys = {v: dict(floret_key(doc, v)) for v in situations}

    def matches(u, v):
        ku, kv = keys[u], keys[v]
        return ku.keys() == kv.keys() and all(
            len(ku[d]) == len(kv[d])
            and all(abs(a - b) <= tol for a, b in zip(ku[d], kv[d]))
            for d in ku
        )

    blocks, seen = [], set()
    for v in situations:
        if v in seen:
            continue
        block, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for w in situations:
                if w not in block and matches(u, w):
                    block.add(w)
                    frontier.append(w)
        seen |= block
        blocks.append(frozenset(block))
    return blocks


def subtree_isomorphic(doc, stage_of, a, b):
    """Backtracking coloured-subtree comparison.

    Tries every devent-compatible child bijection; exponential in floret
    width, which stays tiny for test trees.
    """
    _, children = adjacency(doc)

    def leaf_status(v):
        return doc.leaf_status.get(v)

    def match(u, v):
        cu, cv = children[u], children[v]
        if not cu and not cv:
            return leaf_status(u) == leaf_status(v)
        if bool(cu) != bool(cv) or len(cu) != len(cv):
            return False
        if stage_of[u] != stage_of[v]:
            return False
        theta_u, theta_v = doc.theta[u], doc.theta[v]
        by_devent_u = defaultdict(list)
        by_devent_v = defaultdict(list)
        for i, e in enumerate(cu):
            by_devent_u[e.devent].append((theta_u[i], e.dst))
        for i, e in enumerate(cv):
            by_devent_v[e.devent].append((theta_v[i], e.dst))
        if set(by_devent_u) != set(by_devent_v):
            return False
        for devent, left in by_devent_u.items():
            right = by_devent_v[devent]
            if len(left) != len(right):
                return False
            if not any(
                all(
                    lp == rp and match(lc, rc)
                    for (lp, lc), (rp, rc) in zip(left, perm)
                )
                for perm in permutations(right)
            ):
                return False
        return True

    return match(a, b)


def position_blocks(doc, stage_of):
    """Group situations by pairwise subtree isomorphism."""
    _, children = adjacency(doc)
    groups: list[list[str]] = []
    for v in doc.vertices:
        if not children[v]:
            continue
        for g in groups:
            if subtree_isomorphic(doc, stage_of, g[0], v):
                g.append(v)
                break
        else:
            groups.append([v])
    return [frozenset(g) for g in groups]


def stage_of_from_blocks(blocks):
    out = {}
    for block in blocks:
        key = min(block)
        for v in block:
            out[v] = key
    return out


# -- back-door search references -----------------------------------------------


def crossing_layers(graph, star, below):
    """The search's crossing slices, read from one kernel pass: longest-path
    depth slices of the intervened paths, wholly below w*, that the AND of
    every intervened path class marks as crossed."""
    from cegkit.causal import _crossed
    from cegkit.ceg import class_masses

    above = set(star)
    for w in reversed(graph.order):
        if any(e.dst in above for e in graph.out_edges(w)):
            above.add(w)
    depth = {graph.root: 0}
    for w in graph.order:
        if w not in depth:
            continue
        for e in graph.out_edges(w):
            if e.dst not in graph.sinks and (w in star or w in below or e.dst in above):
                depth[e.dst] = max(depth.get(e.dst, 0), depth[w] + 1)
    layers = [[] for _ in range(max(depth.values()) + 1)]
    for w in graph.position_ids:
        if w in depth:
            layers[depth[w]].append(w)
    crossing = [[e for w in layer for e in graph.out_edges(w)] for layer in layers]
    table = class_masses(graph, [_crossed(graph, star), *crossing])
    common = -1
    for mask in table:
        if mask & 1:
            common &= mask
    return [
        layer
        for d, layer in enumerate(layers)
        if (common >> (d + 1)) & 1 and all(w in below for w in layer)
    ]


def slice_screen(graph, w_star, target):
    """The per-slice screen: ``screen(d, edges, block)`` is the largest
    |lhs - rhs| of the candidate mapping slice edge to ``block``, which
    passes when that is within the graph's tolerance.  Its masses come from
    one kernel pass per slice whose classes carry a bit per slice edge."""
    from cegkit.causal import _comparisons, _criteria_table, _crossed, _layout
    from cegkit.intervention import check_separate

    star, _ = check_separate(graph, w_star)
    layout = _layout(_crossed(graph, star))
    tables = {}

    def screen(d, edges, block):
        if d not in tables:
            tables[d] = _criteria_table(graph, target, layout, [[e] for e in edges])
        table = tables[d]
        count = max(block) + 1
        rows = [[0.0] * len(table.totals) for _ in range(count)]
        for groups, cols, m in table.classes:
            row = rows[block[groups[0]]]
            for c in cols:
                row[c] += m
        labels = [str(j) for j in range(count)]
        comparisons = _comparisons(layout, labels, table.totals, rows, graph.tolerance)
        return max(abs(c.lhs - c.rhs) for c in comparisons)

    return screen


def first_passing_candidate(graph, w_star, target):
    """``(partition, report)`` of the first search candidate that passes
    ``check_backdoor_partition``, run candidate by candidate, or ``None``."""
    from cegkit.causal import _candidates, check_backdoor_partition
    from cegkit.intervention import check_separate

    star, below = check_separate(graph, w_star)
    for _, _, _, build in _candidates(graph, crossing_layers(graph, star, below)):
        candidate = build()
        report = check_backdoor_partition(graph, w_star, candidate, target)
        if report.passed:
            return candidate, report
    return None


# -- singular interventions ------------------------------------------------------


def rebuilt_forced_effect(graph, edge, target):
    """``forced_edge_effect`` read from the rebuilt forced graph: the
    target's share of the mass through the forced edge, both from one
    kernel pass on ``singular_manipulation(graph, edge)``."""
    from cegkit.ceg import _resolve_edge, class_masses
    from cegkit.errors import UndefinedConditional
    from cegkit.intervention import singular_manipulation

    forced = _resolve_edge(graph, edge)
    graph = singular_manipulation(graph, forced)
    table = class_masses(graph, [graph.out_edges(forced.src), graph.edges_of_devent(target)])
    total = math.fsum(m for mask, (m,) in table.items() if mask & 1)
    if total <= 0.0:
        raise UndefinedConditional("forced path set has no mass")
    return math.fsum(m for mask, (m,) in table.items() if mask == 3) / total
