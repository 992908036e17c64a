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
not the criteria themselves.  ``edge_rows`` is the decomposition routes'
table as it was, from its own kernel pass per weighting, to test that
the routes read the same floats from the query's shared idle table.  ``rebuilt_forced_effect`` likewise reads a
forced edge's effect from the graph ``singular_manipulation`` builds, to
test that ``forced_edge_effect`` gets the same floats from the idle graph.
``reference_forward_messages`` and ``reference_backward_messages`` are the
kernel's two directions as they were written apart, a push pass down the
topological order and a pull pass up it, to test that the one pull pass
adds every class in the same order.  ``reference_pipeline`` is the
document-to-graph pipeline item by item, as it was before bulk checks
decided the valid case; it reuses the package's field readers and
``validate_vector``, which it does not test.  It closes inferred stages by
the pairwise ``flood_fill`` that ``tolerance_stage_blocks`` uses, not by
the package's ``tolerance_classes``.  ``colour_classes`` is the search's
colour grouping as it was, ``tolerance_classes`` on one-value keys, and
``conditioned_graph`` is conditioning on w* as it was, by the chance of
reaching w* from every position, with no structural shortcut.
``expected_effect_imperfect`` mixes the package's ``remedial_breakdown``
rows, as the reference for the expected effect ``ceg query`` reports, and
``posterior_mean`` is the Dirichlet floret update written out for one
floret.
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


def path_counts(graph):
    """Numbers of root-to-sink paths of a chain event graph, all and
    failed: one weight-1 ``forward_messages`` pass, without listing them."""
    from cegkit.ceg import SINK_FAIL, SINK_OK, forward_messages

    arriving = forward_messages(graph, (), dict.fromkeys(graph.edges, 1))
    ends = [arriving[s][0] if s in arriving else 0 for s in (SINK_FAIL, SINK_OK)]
    return sum(ends), ends[0]


def _reference_bits(edge_sets):
    bits = {}
    for i, edges in enumerate(edge_sets):
        for e in edges:
            bits[e] = bits.get(e, 0) | 1 << i
    return bits


def reference_forward_messages(graph, edge_sets=(), weights=None):
    """``forward_messages`` as a push pass: each position reached, in
    topological order, adds its classes to the table at the far end of
    each of its out-edges."""
    bits = _reference_bits(edge_sets)
    if weights is None:
        weights = graph.theta
    arriving = {graph.root: {0: 1}}
    for w in graph.order:
        incoming = arriving.get(w)
        if incoming is None:
            continue
        for e in graph.out_edges(w):
            bit = bits.get(e, 0)
            f = weights[e]
            outgoing = arriving.setdefault(e.dst, {})
            for mask, m in incoming.items():
                key = mask | bit
                held = outgoing.get(key)
                outgoing[key] = m * f if held is None else held + m * f
    return arriving


def reference_backward_messages(graph, edge_sets):
    """``backward_messages`` as its own pull pass up the topological order,
    theta first in each product."""
    bits = _reference_bits(edge_sets)
    leaving = {s: {0: 1} for s in graph.sinks}
    for w in reversed(graph.order):
        table = leaving[w] = {}
        for e in graph.out_edges(w):
            bit = bits.get(e, 0)
            f = graph.theta[e]
            for mask, m in leaving.get(e.dst, {}).items():
                key = mask | bit
                held = table.get(key)
                table[key] = f * m if held is None else held + f * m
    return leaving


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

    return flood_fill(situations, matches)


def flood_fill(items, matches):
    """The blocks of the transitive closure of ``matches`` over ``items``,
    each grown pairwise from its first item, in the order of first items."""
    blocks, seen = [], set()
    for v in items:
        if v in seen:
            continue
        block, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for w in items:
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
    intervened = [e for w in star for e in graph.out_edges(w)]
    table = class_masses(graph, [intervened, *crossing])
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
    from cegkit.causal import _bits, _comparisons, _decode, _edge_sets, _layout
    from cegkit.ceg import class_masses
    from cegkit.intervention import check_separate

    star = check_separate(graph, w_star).star
    layout = _layout(graph, star)
    tables = {}

    def table(edges):
        """Each intervened path class as its slice edges, columns and mass,
        and every class summed per column: the check's bits, then one bit
        per slice edge."""
        sets = [*_edge_sets(graph, target, layout), *([e] for e in edges)]
        masses = {mask: m for mask, (m,) in class_masses(graph, sets).items()}
        decoded, totals = _decode(layout, masses)
        shift = len(sets) - len(edges)
        classes = [(_bits(mask >> shift, len(edges)), cols, m)
                   for mask, m in masses.items() if (cols := decoded[mask])]
        return classes, totals

    def screen(d, edges, block):
        if d not in tables:
            tables[d] = table(edges)
        classes, totals = tables[d]
        count = max(block) + 1
        rows = [[0.0] * len(totals) for _ in range(count)]
        for groups, cols, m in classes:
            row = rows[block[groups[0]]]
            for c in cols:
                row[c] += m
        labels = [str(j) for j in range(count)]
        comparisons = _comparisons(layout, labels, totals, rows, graph.tolerance)
        return max(abs(c.lhs - c.rhs) for c in comparisons)

    return screen


def first_passing_candidate(graph, w_star, target):
    """``(partition, report)`` of the first search candidate that passes
    ``check_backdoor_partition``, run candidate by candidate, or ``None``."""
    from cegkit.causal import _candidates, check_backdoor_partition
    from cegkit.intervention import check_separate

    star, below, _ = check_separate(graph, w_star)
    for _, _, _, build in _candidates(graph, crossing_layers(graph, star, below)):
        candidate = build()
        report = check_backdoor_partition(graph, w_star, candidate, target)
        if report.passed:
            return candidate, report
    return None


def set_partitions(items):
    """Every partition of ``items`` into blocks, each block in item order:
    the last item joins each block of a partition of the rest, or starts
    its own."""
    if not items:
        yield []
        return
    *rest, last = items
    for blocks in set_partitions(rest):
        for j in range(len(blocks)):
            yield [*blocks[:j], [*blocks[j], last], *blocks[j + 1 :]]
        yield [*blocks, [last]]


def exhaustive_partitions(graph, w_star, target, max_edges=6):
    """Every partition into two or more blocks of the out-edges of each
    crossing slice (from ``crossing_layers``) with at most ``max_edges`` of
    them, checked with ``check_backdoor_partition``: yields each one that
    passes, as a ``BackdoorPartition``, slice by slice."""
    from cegkit.causal import BackdoorPartition, check_backdoor_partition
    from cegkit.intervention import check_separate

    checked = check_separate(graph, w_star)
    for layer in crossing_layers(graph, checked.star, checked.below):
        edges = [e for w in layer for e in graph.out_edges(w)]
        if len(edges) > max_edges:
            continue
        for blocks in set_partitions(edges):
            if len(blocks) < 2:
                continue
            labels = tuple("+".join(map(str, b)) for b in blocks)
            partition = BackdoorPartition(tuple(map(frozenset, blocks)), labels, "exhaustive")
            if check_backdoor_partition(graph, checked, partition, target).passed:
                yield partition


def edge_rows(graph, star, hat, target):
    """The out-edges of w*, per edge its idle mass, idle target mass and
    manipulated mass, and whether w* is a fine cut: one ``class_masses``
    pass per weighting over the target and each intervened edge."""
    from cegkit.ceg import class_masses

    crossed = tuple(e for e in graph.edges if e.src in star)
    table = class_masses(
        graph, [graph.edges_of_devent(target), *([e] for e in crossed)], (graph.theta, hat)
    )
    rows = [[0.0, 0.0, 0.0] for _ in crossed]
    fine_cut = True
    for mask, (idle, hat_mass) in table.items():
        if mask > 1:  # bit 0 is the target, the single higher bit the edge
            row = rows[mask.bit_length() - 2]
            row[0] += idle
            row[1] += idle if mask & 1 else 0.0
            row[2] += hat_mass
        else:
            fine_cut = False
    return crossed, rows, fine_cut


def colour_classes(values, tol):
    """Each value's colour, the least value of its class, from
    ``tolerance_classes`` on ``((), (value,))`` keys."""
    from cegkit.staging import tolerance_classes

    distinct = list(dict.fromkeys(values))
    least = tolerance_classes([((), (x,)) for x in distinct], tol)
    colour = dict(zip(distinct, map(distinct.__getitem__, least)))
    return [colour[x] for x in values]


# -- conditioning ----------------------------------------------------------------


def conditioned_graph(graph, star, below):
    """The positions, in graph order, and the edge -> factor map of the
    idle graph conditioned on passing the checked w* ``star`` (with the
    positions and sinks ``below`` it): the chance of going on to pass w* is
    summed from every position, an edge is kept when it leaves w* or a
    position below it or when that chance is positive at its end, and a
    position is kept when one of its edges is."""
    from cegkit.errors import UndefinedConditional

    star = set(star)
    reach = {w: 1.0 for w in star}
    for w in reversed(graph.order):
        if w not in star:
            reach[w] = math.fsum(
                graph.theta[e] * reach.get(e.dst, 0.0) for e in graph.out_edges(w)
            )
    theta = {}
    for e in graph.edges:
        if e.src in star or e.src in below:
            theta[e] = graph.theta[e]
        elif reach.get(e.dst, 0.0) > 0.0:
            if reach[e.src] == 0.0:
                raise UndefinedConditional(
                    f"chance of reaching the intervened positions from {e.src}"
                    " underflows to zero"
                )
            theta[e] = graph.theta[e] * reach[e.dst] / reach[e.src]
    kept = {e.src for e in theta}
    return [w for w in graph.position_ids if w in kept], theta


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


# -- remedial mixtures ---------------------------------------------------------


def posterior_mean(alpha, eta, remedied):
    """The updated Dirichlet mean of one floret, written out: alpha plus
    eta on every component whose ``remedied`` bit is 0, over the exact sum."""
    post = [a + h * (1.0 - float(bit)) for a, h, bit in zip(alpha, eta, remedied)]
    total = math.fsum(post)
    return tuple(x / total for x in post)


def expected_effect_imperfect(graph, record, prior, target):
    """Expected manipulated target probability under an uncertain remedy:
    the per-assignment effects of ``remedial_breakdown`` mixed by the
    indicator distribution the record induces.  A perfect record collapses
    to a single assignment; an imperfect or uncertain one averages over the
    compatible ones."""
    from cegkit.causal import remedial_breakdown

    return math.fsum(w * eff for w, _, _, eff in remedial_breakdown(graph, record, prior, target))


# -- the document-to-graph pipeline, one item at a time ----------------------


def reference_pipeline(text, tolerance):
    """Every object ``ceg build`` makes from a model document's text, as the
    fields the package's dataclasses carry, by the item-by-item loops the
    package's bulk checks replaced: ``{"document", "tree", "ptree",
    "stages", "positions", "ceg"}``.  A faulty document raises the
    package's exception for the first fault, checked in the package's
    order."""
    doc = reference_document(text)
    tree, theta = reference_tree(doc, tolerance)
    stages = reference_stages(doc, tree, theta, tolerance)
    positions = reference_positions(tree, stages)
    return {
        "document": doc,
        "tree": tree,
        "ptree": {"theta": theta, "tolerance": tolerance},
        "stages": stages,
        "positions": positions,
        "ceg": reference_ceg(doc, tree, theta, tolerance, stages, positions),
    }


def reference_document(text):
    """``model_io.loads`` with its per-edge loop."""
    from cegkit.errors import ParseError
    from cegkit.event_tree import DEvent, Edge
    from cegkit.model_io import (
        ModelDocument, _float_vector, _optional_text, _require, _root_object,
    )

    raw = _root_object(text, "document")
    devents = []
    for item in _require(raw, "devents", list):
        if not isinstance(item, dict):
            raise ParseError("devents entries must be objects")
        devent_id = _require(item, "id", str)
        devents.append(DEvent(id=devent_id, text=_optional_text(item, "text")))
    vertices = tuple(_require(raw, "vertices", list))
    if not all(isinstance(v, str) for v in vertices):
        raise ParseError("vertices must be strings")
    edges = []
    ordinal = {}
    for item in _require(raw, "edges", list):
        if not isinstance(item, dict):
            raise ParseError("edges entries must be objects")
        src, dst, devent = (_require(item, k, str) for k in ("src", "dst", "devent"))
        auto = ordinal.get((src, dst), 0) + 1
        ordinal[(src, dst)] = auto
        index = item.get("index", auto)
        if type(index) is not int:
            raise ParseError(f"edge {src}->{dst}: index must be an integer")
        if index != auto:
            raise ParseError(
                f"edge {src}->{dst}: index {index} out of document order (expected {auto})"
            )
        edges.append(Edge(src, dst, devent, index))
    leaf_status = dict(_require(raw, "leaf_status", dict))
    theta = {
        v: _float_vector(vec, "theta", v) for v, vec in _require(raw, "theta", dict).items()
    }
    stages = None
    if raw.get("stages") is not None:
        blocks = raw["stages"]
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and all(isinstance(v, str) for v in b) for b in blocks
        ):
            raise ParseError("stages must be a list of vertex lists")
        stages = tuple(tuple(b) for b in blocks)
    root_causes = raw.get("root_causes", [])
    if not isinstance(root_causes, list):
        raise ParseError("root_causes must be a list of d-event ids")
    if not all(isinstance(x, str) for x in root_causes):
        raise ParseError("root_causes must be d-event ids")
    return ModelDocument(
        name=_optional_text(raw, "name"),
        devents=tuple(devents),
        vertices=vertices,
        edges=tuple(edges),
        leaf_status=leaf_status,
        theta=theta,
        stages=stages,
        root_causes=tuple(root_causes),
    )


def reference_tree(doc, tolerance):
    """``build_event_tree``: the ``EventTree`` fields and the validated
    theta, by the per-edge and per-vertex checks."""
    from cegkit.errors import (
        DanglingEdge, LengthMismatch, MissingLeafStatus, MultipleParents, ParseError,
    )
    from cegkit.event_tree import LeafStatus, validate_tolerance, validate_vector

    devents = {d.id: d for d in doc.devents}
    if len(devents) != len(doc.devents):
        raise ParseError("duplicate d-event ids")
    statuses = {s.value: s for s in LeafStatus}
    statuses.update({s: s for s in LeafStatus})
    leaf_status = {}
    for v, s in doc.leaf_status.items():
        try:
            leaf_status[v] = statuses[s]
        except (KeyError, TypeError):
            raise ParseError(f"leaf {v}: unknown status {s!r}") from None
    vertices = tuple(doc.vertices)
    vertex_set = set(vertices)
    if len(vertex_set) != len(vertices):
        raise ParseError("duplicate vertex ids")
    out = {v: [] for v in vertices}
    parent = {}
    for e in doc.edges:
        src, dst, devent, _ = e
        if src not in vertex_set or dst not in vertex_set:
            raise DanglingEdge(f"edge {e} references an unknown vertex")
        if devent not in devents:
            raise ParseError(f"edge {e} references unknown d-event {devent!r}")
        if dst in parent:
            raise MultipleParents(f"vertex {dst} has more than one parent")
        parent[dst] = e
        out[src].append(e)
    roots = [v for v in vertices if v not in parent]
    if not roots:
        raise DanglingEdge("no root vertex: every vertex has a parent")
    if len(roots) > 1:
        raise DanglingEdge(f"vertices unreachable from a single root: {roots[1:]}")
    order = [roots[0]]
    for v in order:
        order.extend([e.dst for e in out[v]])
    if len(order) < len(vertex_set):
        missing = vertex_set.difference(order)
        raise DanglingEdge(f"vertices unreachable from root: {sorted(missing)}")
    for v in vertices:
        if not out[v] and leaf_status.get(v) is None:
            raise MissingLeafStatus(f"leaf {v} has no status")
    for v in leaf_status:
        if v not in vertex_set:
            raise MissingLeafStatus(f"status given for unknown vertex {v}")
        if out[v]:
            raise MissingLeafStatus(f"status given for non-leaf vertex {v}")
    tree = {
        "vertices": vertices,
        "edges": tuple(doc.edges),
        "devents": devents,
        "leaf_status": leaf_status,
        "root": roots[0],
        "_out": {v: tuple(es) for v, es in out.items()},
        "_bfs_index": {v: i for i, v in enumerate(order)},
        "bfs_order": tuple(order),
        "situations": tuple(v for v in order if out[v]),
        "leaves": tuple(v for v in order if not out[v]),
    }
    theta = {v: tuple(vec) for v, vec in doc.theta.items()}
    validate_tolerance(tolerance)
    for v in tree["situations"]:
        vec = theta.get(v)
        if vec is None:
            raise LengthMismatch(f"no transition vector for situation {v}")
        validate_vector(f"situation {v}", out[v], vec, tolerance)
    for v in theta:
        if v not in vertex_set or not out[v]:
            raise ParseError(f"theta given for non-situation vertex {v!r}")
    for cause in doc.root_causes:
        if cause not in devents:
            raise ParseError(f"root_causes names unknown d-event {cause!r}")
    return tree, theta


def reference_floret_key(tree, theta, v):
    """A floret's (d-event, probability) pairs in sorted order, as two
    halves: the shape and the values."""
    devents = [e.devent for e in tree["_out"][v]]
    return tuple(zip(*sorted(zip(devents, theta[v]))))


def _reference_same_floret(ku, kv, tol):
    if ku == kv:
        return True
    return ku[0] == kv[0] and not any(abs(a - b) > tol for a, b in zip(ku[1], kv[1]))


def reference_stages(doc, tree, theta, tolerance):
    """``StagePartition`` fields: declared stages checked member by member
    against the first member's floret key, else inferred stages; each
    block a tuple of its members in breadth-first order.  Inferred stages
    are the pairwise flood fill of "same floret within the tolerance"."""
    from cegkit.errors import ParseError

    if doc.stages is None:
        keys = {v: reference_floret_key(tree, theta, v) for v in tree["situations"]}
        blocks = flood_fill(tree["situations"], lambda u, v: _reference_same_floret(
            keys[u], keys[v], tolerance))
    else:
        situations = set(tree["situations"])
        seen = set()
        declared = []
        for block in doc.stages:
            members = dict.fromkeys(block)
            unknown = members.keys() - situations
            if unknown:
                raise ParseError(f"declared stage names non-situations: {sorted(unknown)}")
            if not members:
                raise ParseError("declared stage is empty")
            if members.keys() & seen:
                raise ParseError("declared stages overlap")
            keys = [reference_floret_key(tree, theta, v) for v in members]
            for v, key in zip(members, keys):
                if not _reference_same_floret(keys[0], key, tolerance):
                    raise ParseError(
                        f"declared stage {sorted(members)} violates the stage"
                        f" conditions at {v}"
                    )
            seen.update(members)
            declared.append(frozenset(members))
        blocks = []
        for v in tree["situations"]:
            owner = next((b for b in declared if v in b), None)
            if owner is None:
                blocks.append(frozenset((v,)))
            elif owner not in blocks:
                blocks.append(owner)
    # each block lists its members breadth-first
    blocks = [tuple(v for v in tree["situations"] if v in block) for block in blocks]
    index = {}
    for i, block in enumerate(blocks):
        for v in block:
            index[v] = i
    return {
        "blocks": tuple(blocks),
        "ids": tuple(f"u{i}" for i in range(len(blocks))),
        "_index": index,
    }


def reference_canonical_forms(tree, stages):
    """Bottom-up canonical form ids: every distinct (stage, sorted
    (d-event, child form) pairs) gets the next integer."""
    from cegkit.event_tree import LeafStatus

    forms = {
        v: -1 if status is LeafStatus.FAILED else -2
        for v, status in tree["leaf_status"].items()
    }
    table = {}
    for v in reversed(tree["situations"]):
        children = tuple(sorted([(e.devent, forms[e.dst]) for e in tree["_out"][v]]))
        forms[v] = table.setdefault((stages["_index"][v], children), len(table))
    return forms


def reference_positions(tree, stages):
    """``PositionPartition`` fields: situations grouped by canonical form,
    blocks ordered by their breadth-first-last members."""
    forms = reference_canonical_forms(tree, stages)
    groups = {}
    for v in tree["situations"]:
        groups.setdefault(forms[v], []).append(v)
    bfs = tree["_bfs_index"]
    ordered = sorted(groups.values(), key=lambda b: bfs[b[-1]])
    return {
        "blocks": tuple(tuple(sorted(b, key=bfs.__getitem__)) for b in ordered),
        "ids": tuple(f"w{i}" for i in range(len(ordered))),
        "stage_of": tuple(stages["_index"][b[0]] for b in ordered),
    }


def reference_ceg(doc, tree, theta, tolerance, stages, positions):
    """``Ceg`` fields: each position takes its first member's floret, and
    ``reference_ceg_structure`` checks the graph."""
    from cegkit.ceg import SINK_FAIL, SINK_OK
    from cegkit.event_tree import Edge, LeafStatus

    target_of = {
        v: SINK_FAIL if status is LeafStatus.FAILED else SINK_OK
        for v, status in tree["leaf_status"].items()
    }
    for wid, block in zip(positions["ids"], positions["blocks"]):
        for v in block:
            target_of[v] = wid
    edges, ceg_theta = [], {}
    for wid, block in zip(positions["ids"], positions["blocks"]):
        parallel = {}
        for tree_edge, p in zip(tree["_out"][block[0]], theta[block[0]]):
            target = target_of[tree_edge.dst]
            parallel[target] = parallel.get(target, 0) + 1
            e = Edge(wid, target, tree_edge.devent, parallel[target])
            edges.append(e)
            ceg_theta[e] = p
    return {
        "position_ids": positions["ids"],
        "members": dict(zip(positions["ids"], positions["blocks"])),
        "edges": tuple(edges),
        "theta": ceg_theta,
        "devents": tree["devents"],
        "stage_ids": {
            wid: stages["ids"][i] for wid, i in zip(positions["ids"], positions["stage_of"])
        },
        "root_causes": tuple(doc.root_causes),
        "interior": True,
        "tolerance": tolerance,
        "name": doc.name,
        **reference_ceg_structure(positions["ids"], tuple(edges), ceg_theta, tolerance, True),
    }


def reference_ceg_structure(position_ids, edges, theta, tolerance, interior):
    """``Ceg.__post_init__``: the derived fields ``_out``, ``_in``,
    ``sinks`` and ``order``, after checking every edge and then every
    position's vector, one at a time, then that Kahn's walk places every
    position, that there is a position, and then that the first position is
    the only one without in-edges."""
    from cegkit.ceg import SINK_FAIL, SINK_OK
    from cegkit.errors import DanglingEdge, LengthMismatch, PositionNotInCeg
    from cegkit.event_tree import validate_tolerance, validate_vector

    validate_tolerance(tolerance)
    out = {w: [] for w in position_ids}
    indegree = dict.fromkeys(position_ids, 0)
    sinks = set()
    for e in edges:
        if e.src not in out:
            raise PositionNotInCeg(f"edge {e} leaves unknown position {e.src}")
        out[e.src].append(e)
        if e.dst in (SINK_FAIL, SINK_OK):
            sinks.add(e.dst)
        elif e.dst not in out:
            raise PositionNotInCeg(f"edge {e} enters unknown position {e.dst}")
        indegree[e.dst] = indegree.get(e.dst, 0) + 1
    for w in position_ids:
        if not out[w]:
            raise LengthMismatch(f"position {w} has no emanating edges")
        vec = [theta.get(e) for e in out[w]]
        validate_vector(f"position {w}", out[w], vec, tolerance, closed=not interior)
    order = [w for w in position_ids if not indegree[w]]
    for w in order:
        for e in out[w]:
            indegree[e.dst] -= 1
            if not indegree[e.dst] and e.dst in out:
                order.append(e.dst)
    if len(order) < len(position_ids):
        # walk up from the first position left out, each time to the
        # source of its first in-edge from a position left out, until a
        # position comes round again
        w, walked = next(w for w in position_ids if w not in order), []
        while w not in walked:
            walked.append(w)
            w = next(e.src for e in edges if e.dst == w and e.src not in order)
        raise DanglingEdge(f"graph has a cycle through position {w}")
    if not position_ids:
        raise DanglingEdge("graph has no positions")
    parentless = [w for w in position_ids if not any(e.dst == w for e in edges)]
    if parentless != list(position_ids[:1]):
        raise DanglingEdge(
            f"only the root {position_ids[0]} may lack in-edges, not {', '.join(parentless)}"
        )
    sinks = tuple(s for s in (SINK_FAIL, SINK_OK) if s in sinks)
    # a stable sort by the source's place in the order keeps graph order
    # within each floret
    rank = {w: i for i, w in enumerate(order)}
    into = {v: [] for v in (*position_ids, *sinks)}
    for e in sorted(edges, key=lambda e: rank[e.src]):
        into[e.dst].append(e)
    return {
        "_out": {w: tuple(es) for w, es in out.items()},
        "_in": into,
        "sinks": sinks,
        "order": tuple(order),
    }
