import codecs
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcanon.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    MalformedLineError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
)
from kcanon import graph as graph_mod
from kcanon.graph import (
    Graph,
    load_graph,
    parse_edge_list,
    parse_graph,
    parse_json,
    relabel,
    to_edge_list,
    to_json,
)

from conftest import complete, cycle, path, random_permutation, shuffled_copy
from corpus import random_connected_graph


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


# Faulty inputs with the error type, message and line_no (None for errors
# that name no line) that building their Graph raises.  Errors come in input
# order, except that every text line is parsed, and every Graph edge
# converted, before any graph fault is looked for.
CONSTRUCTION_FAULTS = [
    ("1 2\n2 1", DuplicateEdgeError, "duplicate edge 1-2", None),
    ("5 2\n2 5", DuplicateEdgeError, "duplicate edge 2-5", None),
    ("1 2\n2 3\n3 1\n1 3", DuplicateEdgeError, "duplicate edge 1-3", None),
    ("1 1\n1 2\n2 1", SelfLoopError, "self-loop at node 1", None),
    ("1 2\n2 1\n3 3", DuplicateEdgeError, "duplicate edge 1-2", None),
    ("1 1\n3 4", SelfLoopError, "self-loop at node 1", None),
    ("1 2\n2 1\n3 4", DuplicateEdgeError, "duplicate edge 1-2", None),
    ((2, [(1, 1, 1.0), (1, 2, 10**400)]), NonFiniteWeightError,
     "an edge weight is too large for a float", None),
    ((0, [(1, 2, 10**400)]), NonFiniteWeightError, "an edge weight is too large for a float", None),
    ((0, []), GraphError, "node count must be >= 1, got 0", None),
    ((-1, [(1, 2, 1.0)]), GraphError, "node count must be >= 1, got -1", None),
    ((2, [(1, 3, 1.0)]), GraphError, "edge (1,3) endpoint outside 1..2", None),
    ((3, [(0, 1, 1.0)]), GraphError, "edge (0,1) endpoint outside 1..3", None),
    ((3, [(1, 2, 1.0), (2, -1, 1.0)]), GraphError, "edge (2,-1) endpoint outside 1..3", None),
    ((3, [(1, 2, 1.0), (2, 3, float("nan"))]), NonPositiveWeightError,
     "edge (2,3) has non-positive weight nan", None),
    ((2, [(1, 2, -1.0), (1, 2, 1.0)]), NonPositiveWeightError,
     "edge (1,2) has non-positive weight -1.0", None),
    ((2, [(1, 2, 1.0), (2, 1, -1.0)]), DuplicateEdgeError, "duplicate edge 1-2", None),
    ((2, [(1, 2, 1.0), (1, 2, float("inf"))]), DuplicateEdgeError, "duplicate edge 1-2", None),
    ((3, [(1, 2, 1.0)]), DisconnectedError, "graph is disconnected; components: [[1, 2], [3]]", None),
    ("1 1\n1 2\n2 1\nnope", MalformedLineError, "line 4: expected 2 or 3 fields, got 1", 4),
    ("1 2\n2 1\n1 x", MalformedLineError, "line 3: node ids must be integers: '1 x'", 3),
    ("1 2\n3 3\n1 2 3 4", MalformedLineError, "line 3: expected 2 or 3 fields, got 4", 3),
    ("1\t2\n2\tx\t\n", MalformedLineError, "line 2: node ids must be integers: '2\\tx'", 2),
    ("1\t2\t3\t4", MalformedLineError, "line 1: expected 2 or 3 fields, got 4", 1),
    ("1\t2\tabc", MalformedLineError, "line 1: bad weight: 'abc'", 1),
    ("1 2\n  3   y   \n", MalformedLineError, "line 2: node ids must be integers: '3   y'", 2),
    ("1 2\n0   2", MalformedLineError, "line 2: node ids must be positive: '0   2'", 2),
    ("1 2\r\n2 x\r\n", MalformedLineError, "line 2: node ids must be integers: '2 x'", 2),
    ("#x\n  # indented\n1 2 3 4", MalformedLineError, "line 3: expected 2 or 3 fields, got 4", 3),
    ("1 2 # trailing", MalformedLineError, "line 1: expected 2 or 3 fields, got 4", 1),
    ("1 2 0", NonPositiveWeightError, "edge (1,2) has non-positive weight 0.0", None),
    ("1 2 -3", NonPositiveWeightError, "edge (1,2) has non-positive weight -3.0", None),
    ("1 2 nan", NonPositiveWeightError, "edge (1,2) has non-positive weight nan", None),
    ("1 2 inf", NonFiniteWeightError, "edge (1,2) has infinite weight", None),
    ("1 2 1e400", NonFiniteWeightError, "edge (1,2) has infinite weight", None),
    ("", GraphError, "no edges found", None),
    ("# only a comment\n\n   \n", GraphError, "no edges found", None),
    ("1 2\n3 4\n5 6", DisconnectedError,
     "graph is disconnected; components: [[1, 2], [3, 4], [5, 6]]", None),
    ("4 6\n1 5\n2 3", DisconnectedError,
     "graph is disconnected; components: [[1, 5], [2, 3], [4, 6]]", None),
    ("1 3", DisconnectedError, "graph is disconnected; components: [[1, 3], [2]]", None),
    ('{"n": 3, "edges": [[1, 2], [2, 1]]}', DuplicateEdgeError, "duplicate edge 1-2", None),
    ('{"n": 4, "edges": [[1, 2]]}', DisconnectedError,
     "graph is disconnected; components: [[1, 2], [3], [4]]", None),
    ('{"n": 2, "edges": [[1, 2, 1e999]]}', NonFiniteWeightError, "edge (1,2) has infinite weight", None),
    # Isolated nodes past the first 10 are only counted, with 2m >= n and 2m < n.
    ((20, [(i, j, 1.0) for i in range(1, 6) for j in range(i + 1, 6)]), DisconnectedError,
     "graph is disconnected; components: [[1, 2, 3, 4, 5], [6], [7], [8], [9], [10], [11], [12],"
     " [13], [14], [15]] and 5 more isolated nodes", None),
    ("1 2\n2 1000000000", DisconnectedError,
     "graph is disconnected; components: [[1, 2, 1000000000], [3], [4], [5], [6], [7], [8], [9],"
     " [10], [11], [12]] and 999999987 more isolated nodes", None),
    # Library arguments are validated, never coerced: ids and n are integers
    # and not bools, weights real numbers and not bools.
    ((2, [(1.9, 2, 1.0)]), GraphError, "edge (1.9, 2, 1.0) has a node id that is not an integer", None),
    ((2.7, [(1, 2, 1.0)]), GraphError, "node count must be an integer, got 2.7", None),
    (("3", [(1, 2, 1.0), (2, 3, 1.0)]), GraphError, "node count must be an integer, got '3'", None),
    ((2, [(True, 2, 1.0)]), GraphError, "edge (True, 2, 1.0) has a node id that is not an integer",
     None),
    ((2, [(1, 2, True)]), GraphError, "edge weight must be a real number, got True", None),
    ((2, [(1, 2, "1.5")]), GraphError, "edge weight must be a real number, got '1.5'", None),
    ((2, [(1, 2)]), GraphError, "edge (1, 2) is not a (u, v, w) triple", None),
    ((2, [(1, 2, "x")]), GraphError, "edge weight must be a real number, got 'x'", None),
    ((2, None), GraphError, "edges must be iterable, got NoneType", None),
    ((None, [(1, 2, 1.0)]), GraphError, "node count must be an integer, got None", None),
    ((2, [(1, 2, 1j)]), GraphError, "edge weight must be a real number, got 1j", None),
    (b"1 2\n", GraphError, "edge-list text must be a str, got bytes", None),
    # A type fault is found in the conversion pass, so it comes before graph
    # faults of earlier edges, as a weight too large for a float does.
    ((3, [(1, 1, 1.0), (2, 3, "x")]), GraphError, "edge weight must be a real number, got 'x'", None),
]


class TestConstructionFaults:
    @pytest.mark.parametrize("source, err, message, line_no", CONSTRUCTION_FAULTS)
    def test_error_type_message_and_line(self, source, err, message, line_no):
        with pytest.raises(GraphError) as exc:
            parse_graph(source) if isinstance(source, (str, bytes)) else Graph(*source)
        assert type(exc.value) is err
        assert str(exc.value) == message
        assert getattr(exc.value, "line_no", None) == line_no

    def test_components_are_sorted(self):
        with pytest.raises(DisconnectedError) as exc:
            parse_edge_list("4 6\n1 5\n2 3")
        assert exc.value.components == ((1, 5), (2, 3), (4, 6))

    @pytest.mark.parametrize("source", ["1 2\n2 1000000000", (10**9, [(1, 2, 1.0)])])
    def test_huge_node_id_rejected_in_time_bounded_by_the_input(self, source):
        start = time.perf_counter()
        with pytest.raises(DisconnectedError) as exc:
            parse_graph(source) if isinstance(source, str) else Graph(*source)
        assert time.perf_counter() - start < 0.5
        head = exc.value.components[0]
        assert exc.value.components[1:] == tuple((x,) for x in range(3, 13))
        assert exc.value.isolated == 10**9 - len(head)


    def test_connected_graph_never_lists_components(self, monkeypatch):
        # One walk from node 1 tells a connected graph; only the error lists components.
        def refuse(adj, nodes):
            raise AssertionError("components listed")

        monkeypatch.setattr(graph_mod, "_components", refuse)
        assert parse_edge_list("1 2\n2 3 0.5\n3 1").n == 3
        assert Graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 2.0)]).m == 3
        assert Graph(1, []).n == 1
        with pytest.raises(AssertionError, match="components listed"):
            parse_edge_list("1 2\n3 4")


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

    @pytest.mark.parametrize("text", ['{"n": 2, "edges": ' + "[" * 100000, "[" * 100000 + "]" * 100000],
                             ids=["unclosed", "closed"])
    def test_nesting_too_deep_is_a_graph_error(self, text):
        # json.loads raises RecursionError here, before it finds the end.
        with pytest.raises(GraphError) as exc:
            parse_json(text)
        assert type(exc.value) is GraphError
        assert str(exc.value) == "JSON nesting is too deep to read"

    @pytest.mark.parametrize("text, error, message", [
        ('{"n": 2, "edges": [[1, 2, BIG]]}', NonFiniteWeightError, "edge (1,2) has infinite weight"),
        ('{"n": 2, "edges": [[1, 2, -BIG]]}', NonPositiveWeightError,
         "edge (1,2) has non-positive weight -inf"),
        ('{"n": BIG, "edges": [[1, 2]]}', GraphError,
         'JSON graph must be an object with integer "n" and list "edges", got "n": inf'),
        ('{"n": 2, "edges": [[1, BIG]]}', GraphError, "bad edge entry: [1, inf]"),
    ], ids=["weight", "negative-weight", "n", "id"])
    def test_integer_past_the_digit_limit(self, text, error, message):
        # int() refuses more digits than sys.get_int_max_str_digits(), 4,300
        # by default, with a bare ValueError; such an integer reads as the
        # infinite float it overflows to, as 1e400 does.
        with pytest.raises(GraphError) as exc:
            parse_json(text.replace("BIG", "1" * 5000))
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_integer_past_the_digit_limit_in_an_unread_key(self):
        text = '{"n": 2, "edges": [[1, 2]], "note": ' + "1" * 5000 + "}"
        assert parse_json(text) == Graph(2, [(1, 2, 1.0)])

    @pytest.mark.parametrize("text", [b'{"n":2,"edges":[[1,2]]}', bytearray(b'{"n":2,"edges":[[1,2]]}'),
                                      3, None], ids=["bytes", "bytearray", "int", "None"])
    def test_text_must_be_a_str(self, text):
        # As parse_edge_list does; json.loads would decode bytes.
        with pytest.raises(GraphError) as exc:
            parse_json(text)
        assert type(exc.value) is GraphError
        assert str(exc.value) == f"JSON text must be a str, got {type(text).__name__}"


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

    @pytest.mark.parametrize("text", ["1 2 0.5\n2 3\n", '{"n":3,"edges":[[1,2,0.5],[2,3]]}'],
                             ids=["edge-list", "json"])
    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, text):
        f = tmp_path / "g.txt"
        f.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_graph(str(f)) == Graph(3, [(1, 2, 0.5), (2, 3, 1.0)])

    def test_bad_byte_after_a_byte_order_mark_names_its_line_and_byte(self, tmp_path):
        # Decoding as utf-8-sig would count offsets without the mark and
        # blame byte 0x20 on line 2.
        f = tmp_path / "g.txt"
        f.write_bytes(b"\xef\xbb\xbf1 2\n2 3\n\xff 4\n")
        with pytest.raises(MalformedLineError) as exc:
            load_graph(str(f))
        assert str(exc.value) == "line 3: byte 0xff is not UTF-8"


def test_numpy_and_other_real_arguments_accepted():
    g = Graph(np.int64(3), [(np.int32(1), np.uint8(2), np.float32(0.5)),
                            (2, np.int64(3), Fraction(5, 2)), (3, 1, 4)])
    assert g == Graph(3, [(1, 2, 0.5), (2, 3, 2.5), (3, 1, 4.0)])
    assert type(g.n) is int
    assert all(type(u) is type(v) is int and type(w) is float for u, v, w in g.edges)


def weights(g):
    """Graph.weight of every ordered pair of node ids; None where no edge."""
    ids = range(1, g.n + 1)
    return {(x, y): g.weight(x, y) for x in ids for y in ids}


def test_adj_and_weight(rng):
    graphs = [cycle(4)] + [
        random_connected_graph(rng.randint(2, 12), rng, weight_range=(0.1, 10))
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


def test_weight_takes_integer_ids_only():
    g = path(3, 2.5)
    assert g.weight(np.int64(1), np.uint8(2)) == g.weight(2, np.int32(3)) == 2.5
    assert g.weight(np.int64(4), 1) is None
    for u, v in [(1.5, 2), (1, 2.0), (2.0, 1), (True, 2), (1, False), ("1", 2), (1, None), (None, None)]:
        with pytest.raises(GraphError, match=r"must be integers"):
            g.weight(u, v)


def test_edge_list_round_trip_exact():
    g = parse_edge_list("1 2 0.1\n2 3 0.30000000000000004\n1 3 7")
    g2 = parse_edge_list(to_edge_list(g))
    assert weights(g2) == weights(g)


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_relabel_permutes_adjacency(n, rnd):
    g = complete(n)
    perm = random_permutation(n, rnd)
    h = relabel(g, perm)
    assert weights(h) == {(perm[x], perm[y]): w for (x, y), w in weights(g).items()}


def test_relabel_weighted_permutes_adjacency(rng):
    g = Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0)])
    perm = {1: 3, 2: 1, 3: 4, 4: 2}
    h = relabel(g, perm)
    assert weights(h) == {(perm[x], perm[y]): w for (x, y), w in weights(g).items()}


def test_relabel_rejects_non_bijection():
    with pytest.raises(GraphError):
        relabel(path(2), {1: 1, 2: 1})


@pytest.mark.parametrize("perm", [
    [2, 1, 3], "abc", (1, 2, 3), None, {1: 1, "2": 2, 3: 3},
    # Floats and bools equal to ids are not ids.
    {1: 1.0, 2: 2, 3: 3}, {1: True, 2: 2, 3: 3}, {1: 1, 2: 2, 3: 3.0}, {1: 2, 2: True, 3: 3},
])
def test_relabel_rejects_non_mapping_or_unsortable_perm(perm):
    with pytest.raises(GraphError, match=r"^perm must be a bijection on 1\.\.N$"):
        relabel(path(3), perm)


def test_relabel_takes_numpy_integer_ids():
    h = relabel(path(3), {np.int64(1): 3, 2: np.int64(2), 3: 1})
    assert h.edges == ((3, 2, 1.0), (2, 1, 1.0))


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


@st.composite
def edge_list_texts(draw):
    """(text, n, edges) of a valid connected edge list: 2- and 3-field lines
    in random order and orientation, comments, blank lines, CRLF or LF
    endings, and extra spaces and tabs around and between fields."""
    n = draw(st.integers(2, 12))
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    pad = st.sampled_from(["", " ", "\t", "  "])
    weight = st.none() | st.sampled_from(["1", "0.5", "2.5e-3", "7"]) | st.floats(
        1e-300, 1e300, allow_nan=False, allow_infinity=False).map(repr)
    lines, edges = [], []
    for u, v in draw(st.permutations(sorted(pairs))):
        if draw(st.booleans()):
            u, v = v, u
        filler = draw(st.sampled_from([None, "", "  \t", "#", "# a comment", " \t# 1 2 3"]))
        if filler is not None:
            lines.append(filler)
        fields = [str(u), str(v)]
        w = draw(weight)
        if w is not None:
            fields.append(w)
        lines.append(draw(pad) + "".join(f + draw(gap) for f in fields[:-1]) + fields[-1] + draw(pad))
        edges.append((u, v, 1.0 if w is None else float(w)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), n, tuple(edges)


@settings(max_examples=200, deadline=None)
@given(edge_list_texts())
def test_parsed_graph_matches_an_independent_build(case):
    text, n, edges = case
    g = parse_edge_list(text)
    assert "adj" in vars(g)
    assert (g.n, g.edges) == (n, edges)
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u - 1][v - 1] = w
        adj[v - 1][u - 1] = w
    assert g.adj == tuple(adj)
    expected = (np.array([u - 1 for u, _, _ in edges]), np.array([v - 1 for _, v, _ in edges]),
                np.array([w for _, _, w in edges]))
    for got, want in zip(g.arrays, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    assert parse_edge_list(to_edge_list(g)) == g


def test_arrays_of_a_graph_without_edges():
    arrays = Graph(1, []).arrays
    assert [a.dtype for a in arrays] == [np.intp, np.intp, np.float64]
    for a in arrays:
        assert a.shape == (0,) and not a.flags.writeable


# Fields of arbitrary edge-list lines: ids that are valid, out of order, past
# every other id (a gap), zero, negative or not integers; weights that are
# valid, zero, negative, nan, infinite, too large or not numbers; comments.
LINE_TOKENS = st.sampled_from([
    "1", "2", "3", "4", "5", "0", "-1", "x", "1.5", "+2", "1000000000",
    "0.5", "2.5e-3", "7", "0.0", "-2", "nan", "inf", "-inf", "1e400", "abc", "#", "#c",
])


@st.composite
def any_edge_list_texts(draw):
    """Edge-list text, valid or faulty: the lines of a connected graph on
    nodes 1..n in random order, perhaps less one, with lines put in among
    them: random fields, 0-4 of them; edges on ids -1..n + 2 (self-loops,
    repeats, gaps, ids below 1) with any weight; reversed repeats; comment
    and blank lines."""
    n = draw(st.integers(1, 5))
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    weight = st.sampled_from(["", " 1", " 0.5", " 3e-2"])
    lines = [f"{u} {v}{draw(weight)}" for u, v in draw(st.permutations(sorted(pairs)))]
    cut = draw(st.integers(0, 2 * len(lines)))  # below len(lines): a tree edge is left out
    del lines[cut:cut + 1]
    any_weight = st.sampled_from(["", "1", "0.5", "0", "-2", "nan", "inf", "-inf", "1e400", "abc"])
    extra = st.one_of(
        st.lists(LINE_TOKENS, max_size=4).map(" ".join),
        st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2), any_weight).map(
            lambda e: "{} {} {}".format(*e)),
        st.sampled_from(lines or ["1 2"]).map(lambda line: " ".join(reversed(line.split()[:2]))),
        st.sampled_from(["", "  ", "#c", "# 1 2", "#1 2 3", "\t# 1 2 3"]),
    )
    for line in draw(st.lists(extra, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


def read_edge_list(text):
    """Graph(N, edges) from the edge-list lines as the format defines them,
    or the MalformedLineError of the first line that is not an edge."""
    edges = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (2, 3):
            raise MalformedLineError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(line_no, f"node ids must be integers: {line.strip()!r}")
        if u < 1 or v < 1:
            raise MalformedLineError(line_no, f"node ids must be positive: {line.strip()!r}")
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise MalformedLineError(line_no, f"bad weight: {parts[2]!r}")
        edges.append((u, v, w))
    if not edges:
        raise GraphError("no edges found")
    return Graph(max(max(u, v) for u, v, _ in edges), edges)


def build_outcome(build, text):
    """The error's type, message and line_no, or the graph's n, edges (by
    repr, so that a weight 1 is not 1.0), adj and arrays."""
    try:
        g = build(text)
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g.n, repr(g.edges), g.adj, [(a.dtype, a.tolist(), a.flags.writeable) for a in g.arrays]


@settings(max_examples=400, deadline=None)
@given(any_edge_list_texts())
def test_parse_edge_list_builds_as_graph_does(text):
    # parse_edge_list skips Graph's conversion pass; that must change no outcome.
    assert build_outcome(parse_edge_list, text) == build_outcome(read_edge_list, text)
