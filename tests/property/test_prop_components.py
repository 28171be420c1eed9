"""Property-based oracle: ``connected_components`` replays networkx.

The relation graphs of the combination step and of region chaining are
plain adjacency dicts, ``{node: {neighbour: label}}``.  Their component
order fixes the relation order and the tie order of equal-duration
regions, and the iteration order *inside* each component set fixes the
float summation order of ``TrackedRegion.total_duration``.  Both orders
must therefore equal what ``networkx.connected_components`` produced
when the tracker was built on networkx, which stays available as a
test-only dependency to serve as the reference here.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracking.combine import connected_components

#: The node shapes the tracker uses: ``("A", cid)`` in the combination
#: graph (string hashing varies per process), ``(frame, cid)`` in chaining.
nodes = st.one_of(
    st.tuples(st.sampled_from(["A", "B"]), st.integers(0, 30)),
    st.tuples(st.integers(0, 4), st.integers(0, 30)),
)


@st.composite
def insertion_sequences(draw):
    """``(u, None)`` adds node *u*, ``(u, v)`` adds the edge u–v.

    Self-loops and repeated edges are included.  Operations draw from a
    small node pool so that components grow past a few nodes: only then
    do hash collisions inside a set make its iteration order depend on
    the order its nodes were added in.
    """
    # Sizes are drawn explicitly: st.lists alone averages ~5 items.
    n_nodes, n_ops = draw(st.integers(1, 40)), draw(st.integers(0, 150))
    pool = st.sampled_from(draw(st.lists(nodes, min_size=n_nodes, max_size=n_nodes)))
    operation = st.tuples(pool, st.one_of(st.none(), pool))
    return draw(st.lists(operation, min_size=n_ops, max_size=n_ops))


def _build(ops):
    graph = nx.Graph()
    adjacency: dict = {}
    for u, v in ops:
        graph.add_node(u)
        adjacency.setdefault(u, {})
        if v is None:
            continue
        graph.add_edge(u, v, label="edge")
        adjacency.setdefault(v, {})
        adjacency[u][v] = adjacency[v][u] = "edge"
    return graph, adjacency


@given(insertion_sequences())
@settings(max_examples=150, deadline=None)
def test_matches_networkx_component_and_iteration_order(ops):
    graph, adjacency = _build(ops)
    assert list(adjacency) == list(graph.nodes)
    expected = list(nx.connected_components(graph))
    actual = list(connected_components(adjacency))
    assert actual == expected
    # Set equality ignores order; the lists pin the within-set iteration
    # order that float summations over a component depend on.
    assert [list(c) for c in actual] == [list(c) for c in expected]
