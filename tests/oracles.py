"""Independent reference computations for the test suite.

Everything here works directly on model documents or on a graph's edges
and theta: plain path enumeration, dictionary-keyed stage grouping,
pairwise flood fill for stages within a tolerance and backtracking subtree
matching.  None of it shares code with the package's graph machinery, so
agreement between the two is evidence, not tautology.  The one exception
is ``first_passing_candidate``: it runs the package's own full back-door
check on every search candidate, so it tests the search's screen against
the check, not the criteria themselves.
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


# -- back-door search reference -------------------------------------------------


def first_passing_candidate(graph, w_star, target):
    """``(partition, report)`` of the first search candidate that passes
    ``check_backdoor_partition``, run candidate by candidate, or ``None``."""
    from cegkit.causal import _candidates, check_backdoor_partition
    from cegkit.intervention import check_separate

    star, below = check_separate(graph, w_star)
    for _, _, candidate in _candidates(graph, star, below):
        report = check_backdoor_partition(graph, w_star, candidate, target)
        if report.passed:
            return candidate, report
    return None
