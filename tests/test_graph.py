import numpy as np
import pytest
from hypothesis import given, strategies as st

from kcanon.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    MalformedLineError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
)
from kcanon import oracle
from kcanon.graph import (
    Graph,
    adjacency,
    is_connected,
    load_graph,
    parse_edge_list,
    parse_graph,
    parse_json,
    relabel,
    to_edge_list,
    to_json,
)

from conftest import complete, cycle, path, random_permutation, shuffled_copy


class TestParseEdgeList:
    def test_default_weight(self):
        g = parse_edge_list("1 2\n2 3")
        assert g.n == 3
        assert g.edges == ((1, 2, 1.0), (2, 3, 1.0))

    def test_explicit_weight(self):
        g = parse_edge_list("1 2 0.5")
        assert g.n == 2
        assert g.edges == ((1, 2, 0.5),)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n1 2\n  \n# mid\n2 3 2.5\n")
        assert g.edges == ((1, 2, 1.0), (2, 3, 2.5))

    def test_disconnected(self):
        with pytest.raises(DisconnectedError) as exc:
            parse_edge_list("1 2\n3 4")
        assert exc.value.components == ((1, 2), (3, 4))

    def test_malformed_reports_line(self):
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list("1 2\nnope\n3 4")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "text,err",
        [
            ("1 1", SelfLoopError),
            ("1 2\n2 1", DuplicateEdgeError),
            ("1 2 0", NonPositiveWeightError),
            ("1 2 -3", NonPositiveWeightError),
            ("1 2 nan", NonPositiveWeightError),
            ("1 2 inf", NonFiniteWeightError),
            ("1 2 1e400", NonFiniteWeightError),
            ("1 2 3 4", MalformedLineError),
            ("1 x", MalformedLineError),
            ("1 2 abc", MalformedLineError),
            ("0 2", MalformedLineError),
            ("", GraphError),
        ],
    )
    def test_rejects(self, text, err):
        with pytest.raises(err):
            parse_edge_list(text)

    @pytest.mark.parametrize("bad", ["1 x", "2 3 abc"])
    def test_malformed_field_reports_line(self, bad):
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list(f"1 2\n{bad}")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("n, edges", [(0, []), (2, [(1, 3, 1.0)])])
    def test_graph_rejects_bad_nodes(self, n, edges):
        with pytest.raises(GraphError):
            Graph(n, edges)

    def test_graph_rejects_infinite_weight(self):
        with pytest.raises(NonFiniteWeightError):
            Graph(2, [(1, 2, float("inf"))])
        with pytest.raises(NonFiniteWeightError):
            parse_json('{"n": 2, "edges": [[1, 2, 1e999]]}')

    def test_gap_in_numbering_rejected(self):
        # Node 2 never appears; rejecting beats silently compacting ids.
        with pytest.raises(DisconnectedError):
            parse_edge_list("1 3")


class TestJsonFormat:
    def test_round_trip(self):
        g = parse_edge_list("1 2 0.25\n2 3 4.0")
        g2 = parse_json(to_json(g))
        assert g2 == g

    def test_same_validation(self):
        with pytest.raises(DisconnectedError):
            parse_json('{"n": 3, "edges": [[1, 2]]}')
        with pytest.raises(GraphError):
            parse_json('{"edges": []}')

    def test_invalid_json(self):
        with pytest.raises(MalformedLineError):
            parse_json("{")

    def test_sniffing(self):
        assert parse_graph('{"n":2,"edges":[[1,2,1.0]]}') == parse_graph("1 2")


class TestLoadGraph:
    def test_reads_non_ascii_utf8(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes("# r\u00e9seau \u03a9\n1 2 0.5\n".encode("utf-8"))
        assert load_graph(str(f)) == Graph(2, [(1, 2, 0.5)])

    @pytest.mark.parametrize("data, line_no", [
        (b"\xff", 1), (b"1 2\n2 3 0.5\n3 \xff4\n", 3), (b"1 2\r\n# \xc3\n", 2),
    ])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, data, line_no):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        with pytest.raises(MalformedLineError) as exc:
            load_graph(str(f))
        assert exc.value.line_no == line_no


class TestAdjacency:
    def test_p2(self):
        assert adjacency(path(2)).tolist() == [[0, 1], [1, 0]]

    def test_k3(self):
        a = adjacency(complete(3))
        assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_weighted(self):
        a = adjacency(Graph(2, [(1, 2, 0.5)]))
        assert a.tolist() == [[0, 0.5], [0.5, 0]]


def test_adj_and_weight(rng):
    graphs = [cycle(4)] + [
        oracle.random_connected_graph(rng.randint(2, 12), rng, weight_range=(0.1, 10))
        for _ in range(20)
    ]
    for g0 in graphs:
        g, _ = shuffled_copy(g0, rng)
        assert sum(len(a) for a in g.adj) == 2 * g.m
        for u, v, w in g.edges:
            assert g.adj[u - 1][v - 1] == g.adj[v - 1][u - 1] == w
            assert g.weight(u, v) == g.weight(v, u) == w
        # Ids outside 1..n name no node, even where an index would wrap.
        for u, v in [(0, 1), (1, 0), (g.n + 1, 1), (1, g.n + 1), (-1, g.n)]:
            assert g.weight(u, v) is None


class TestIsConnected:
    def test_path(self):
        assert is_connected(3, [(1, 2), (2, 3)])

    def test_single_node(self):
        assert is_connected(1, [])

    def test_two_components(self):
        assert not is_connected(4, [(1, 2), (3, 4)])

    def test_no_nodes(self):
        with pytest.raises(GraphError):
            is_connected(0, [])


def test_edge_list_round_trip_exact():
    g = parse_edge_list("1 2 0.1\n2 3 0.30000000000000004\n1 3 7")
    g2 = parse_edge_list(to_edge_list(g))
    assert np.array_equal(adjacency(g), adjacency(g2))


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_relabel_permutes_adjacency(n, rnd):
    g = complete(n)
    perm = random_permutation(n, rnd)
    h = relabel(g, perm)
    a, b = adjacency(g), adjacency(h)
    idx = [0] * n
    for old, new in perm.items():
        idx[old - 1] = new - 1
    for i in range(n):
        for j in range(n):
            assert b[idx[i], idx[j]] == a[i, j]


def test_relabel_weighted_permutes_adjacency(rng):
    g = Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0)])
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    h = relabel(g, perm)
    a, b = adjacency(g), adjacency(h)
    for i in range(4):
        for j in range(4):
            assert b[perm[i + 1] - 1, perm[j + 1] - 1] == a[i, j]


def test_relabel_rejects_non_bijection():
    with pytest.raises(GraphError):
        relabel(path(2), {1: 1, 2: 1})


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5
