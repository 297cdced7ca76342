"""Chip ingestion, grid generation, and hop-distance tests.

Distance oracles are independent: networkx BFS for loaded/generated
topologies, and the lattice edge-count formula evaluated by brute force
over coordinates.
"""

import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from qpusched.chip import (
    Chip,
    ChipError,
    CouplingGraph,
    DistanceMatrix,
    QubitSpec,
    dump_chip,
    generate_grid,
    load_chip,
)

from conftest import path_chip, uniform_chip
from graphgen import connected_graphs


MINIMAL_DOC = {
    "name": "mini",
    "qubits": [
        {"id": 0, "t2_us": 100, "readout_error": 0.01},
        {"id": 1, "t2_us": 120, "readout_error": 0.02},
    ],
    "edges": [[0, 1]],
}


def heavy_hex_doc(qubit_rows=8, row_len=16):
    """Heavy-hex style lattice: full qubit rows joined by sparse connector
    qubits every 4 columns, offset alternating between gaps. With 8 rows of
    16 this gives the 156-qubit layout used by current large devices."""
    ids = {}
    nxt = 0
    for r in range(qubit_rows):
        for c in range(row_len):
            ids[("q", r, c)] = nxt
            nxt += 1
    edges = []
    for r in range(qubit_rows):
        for c in range(row_len - 1):
            edges.append([ids[("q", r, c)], ids[("q", r, c + 1)]])
    for gap in range(qubit_rows - 1):
        offset = 0 if gap % 2 == 0 else 2
        for c in range(offset, row_len, 4):
            ids[("c", gap, c)] = nxt
            edges.append([ids[("q", gap, c)], nxt])
            edges.append([nxt, ids[("q", gap + 1, c)]])
            nxt += 1
    qubits = [{"id": i, "t2_us": 100.0, "readout_error": 0.01} for i in range(nxt)]
    return {"name": "heavy-hex-156", "qubits": qubits, "edges": edges}


class TestLoadChip:
    def test_minimal_two_qubit_file(self):
        chip = load_chip(json.dumps(MINIMAL_DOC))
        assert chip.n_qubits == 2
        assert chip.graph.edges == ((0, 1),)
        assert chip.specs[1].t2_us == 120
        assert chip.specs[1].t1_us is None

    def test_reads_bytes_and_file_objects(self, tmp_path):
        raw = json.dumps(MINIMAL_DOC).encode()
        assert load_chip(raw).n_qubits == 2
        p = tmp_path / "chip.json"
        p.write_bytes(raw)
        with open(p, "rb") as fh:
            assert load_chip(fh).n_qubits == 2

    def test_self_loop_rejected(self):
        doc = dict(MINIMAL_DOC, edges=[[0, 0]])
        with pytest.raises(ChipError, match="self-loop"):
            load_chip(json.dumps(doc))

    def test_duplicate_edge_rejected(self):
        doc = dict(MINIMAL_DOC, edges=[[0, 1], [1, 0]])
        with pytest.raises(ChipError, match="duplicate"):
            load_chip(json.dumps(doc))

    def test_index_out_of_range_rejected(self):
        doc = dict(MINIMAL_DOC, edges=[[0, 2]])
        with pytest.raises(ChipError, match="out of range"):
            load_chip(json.dumps(doc))

    def test_nonpositive_coherence_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["qubits"][0]["t2_us"] = 0
        with pytest.raises(ChipError, match="t2"):
            load_chip(json.dumps(doc))

    def test_readout_probability_range(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["qubits"][1]["readout_error"] = 1.5
        with pytest.raises(ChipError, match="readout_error"):
            load_chip(json.dumps(doc))

    def test_disconnected_rejected(self):
        doc = {
            "name": "x",
            "qubits": [{"id": i, "t2_us": 100, "readout_error": 0.01} for i in range(4)],
            "edges": [[0, 1], [2, 3]],
        }
        with pytest.raises(ChipError, match="disconnected"):
            load_chip(json.dumps(doc))

    def test_malformed_document(self):
        with pytest.raises(ChipError, match="malformed"):
            load_chip(b"{not json")

    @pytest.mark.parametrize("path, value, message", [
        (("qubits", 0, "id"), 0.9, "qubit id must be an integer, got 0.9"),
        (("qubits", 0, "id"), True, "qubit id must be an integer, got True"),
        (("qubits", 0, "id"), "0", "qubit id must be an integer, got '0'"),
        (("edges", 0), [0, 1.7], "edge endpoint must be an integer, got 1.7"),
        (("edges", 0), [0, "1"], "edge endpoint must be an integer, got '1'"),
        (("edges", 0), [True, 1], "edge endpoint must be an integer, got True"),
        (("qubits", 1, "t2_us"), True, "t2_us must be a number, got True"),
        (("qubits", 1, "t2_us"), "120", "t2_us must be a number, got '120'"),
        (("qubits", 1, "t1_us"), "60", "t1_us must be a number, got '60'"),
        (("qubits", 0, "readout_error"), False, "readout_error must be a number, got False"),
    ], ids=["id-fraction", "id-bool", "id-string", "edge-fraction", "edge-string",
            "edge-bool", "t2-bool", "t2-string", "t1-string", "readout-bool"])
    def test_values_follow_the_json_number_rule(self, path, value, message):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        with pytest.raises(ChipError, match=message):
            load_chip(json.dumps(doc))

    @pytest.mark.parametrize("name", [None, [1, 2], 7])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ChipError, match="name must be a string"):
            load_chip(json.dumps(dict(MINIMAL_DOC, name=name)))

    def test_absent_name_defaults_to_chip(self):
        doc = {k: v for k, v in MINIMAL_DOC.items() if k != "name"}
        assert load_chip(json.dumps(doc)).name == "chip"

    def test_integer_beyond_any_float_is_not_finite(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["qubits"][0]["t2_us"] = 10**400
        with pytest.raises(ChipError, match="t2 must be positive and finite, got inf"):
            load_chip(json.dumps(doc))

    @pytest.mark.parametrize("edge", [[0], [0, 1, 1], 1])
    def test_edge_names_two_qubits(self, edge):
        with pytest.raises(ChipError, match="malformed chip document"):
            load_chip(json.dumps(dict(MINIMAL_DOC, edges=[edge])))

    def test_integral_floats_and_int_calibration_accepted(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["qubits"][1]["id"] = 1.0
        doc["qubits"][0]["t1_us"] = 90
        doc["edges"] = [[0.0, 1.0]]
        chip = load_chip(json.dumps(doc))
        assert chip.graph.edges == ((0, 1),)
        assert [s.id for s in chip.specs] == [0, 1]
        assert chip.specs[0].t1_us == 90.0 and type(chip.specs[0].t1_us) is float

    def test_heavy_hex_156(self):
        doc = heavy_hex_doc()
        # independent count check: 8 rows of 16 plus 7 connector rows of 4
        assert len(doc["qubits"]) == 8 * 16 + 7 * 4 == 156
        assert len(doc["edges"]) == 8 * 15 + 2 * 28 == 176
        chip = load_chip(json.dumps(doc))
        assert chip.n_qubits == 156
        assert len(chip.graph.edges) == 176
        g = nx.Graph(chip.graph.edges)
        g.add_nodes_from(range(156))
        assert nx.is_connected(g)
        assert max(dict(g.degree).values()) <= 3  # heavy-hex degree bound

    def test_round_trip(self):
        doc = heavy_hex_doc()
        chip = load_chip(json.dumps(doc))
        again = load_chip(json.dumps(dump_chip(chip)))
        assert again == chip

    def test_round_trip_with_jitter_and_t1(self):
        chip = generate_grid(3, 4, spec_template=QubitSpec(0, 80.0, 0.02, t1_us=150.0),
                             noise_seed=7)
        again = load_chip(json.dumps(dump_chip(chip)))
        assert again == chip


class TestGenerateGrid:
    def test_single_qubit(self):
        chip = generate_grid(1, 1)
        assert chip.n_qubits == 1
        assert chip.graph.edges == ()

    def test_2x2(self):
        chip = generate_grid(2, 2)
        assert chip.n_qubits == 4
        assert len(chip.graph.edges) == 4

    def test_5x5_edge_count(self):
        # oracle: enumerate lattice-adjacent coordinate pairs directly
        expected = sum(
            1
            for r1 in range(5) for c1 in range(5)
            for r2 in range(5) for c2 in range(5)
            if (r1, c1) < (r2, c2) and abs(r1 - r2) + abs(c1 - c2) == 1
        )
        chip = generate_grid(5, 5)
        assert len(chip.graph.edges) == expected == 40
        assert chip.n_qubits == 25

    @given(rows=st.integers(1, 20), cols=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, rows, cols):
        chip = generate_grid(rows, cols)
        assert len(chip.graph.edges) == rows * (cols - 1) + cols * (rows - 1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ChipError):
            generate_grid(0, 3)

    def test_jitter_deterministic(self):
        a = generate_grid(3, 3, noise_seed=11)
        b = generate_grid(3, 3, noise_seed=11)
        c = generate_grid(3, 3, noise_seed=12)
        assert a == b
        assert a != c
        assert any(s.t2_us != 100.0 for s in a.specs)

    def test_template_respected_without_seed(self):
        chip = generate_grid(2, 3, spec_template=QubitSpec(0, 55.0, 0.03))
        assert all(s.t2_us == 55.0 and s.readout_error == 0.03 for s in chip.specs)


def scipy_hops(chip: Chip) -> np.ndarray:
    """Independent oracle: scipy's unweighted shortest paths."""
    n = chip.n_qubits
    edges = np.array(chip.graph.edges, dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return shortest_path(adj, directed=False, unweighted=True)


@st.composite
def connected_graph(draw):
    """A random spanning tree plus random extra edges; n straddles 64-bit words."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129]))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        extra = draw(st.lists(pair, max_size=2 * n))
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in edges]


class TestDistances:
    def test_path_graph(self):
        hops = path_chip(3).distances.hops
        assert hops[0, 2] == 2
        assert hops[0, 1] == 1

    def test_self_distance_zero(self, grid5):
        hops = grid5.distances.hops
        assert all(hops[q, q] == 0 for q in range(grid5.n_qubits))

    def test_grid_corner_to_corner(self, grid5):
        # Manhattan distance oracle on the 5x5 lattice
        assert grid5.distances.hops[0, 24] == 8

    def test_matches_networkx(self, grid5):
        hops = grid5.distances.hops
        g = nx.Graph(grid5.graph.edges)
        for src, lengths in nx.all_pairs_shortest_path_length(g):
            for dst, d in lengths.items():
                assert hops[src, dst] == d

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_triangle_inequality(self, rows, cols):
        chip = generate_grid(rows, cols)
        h = chip.distances.hops.astype(np.int64)
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h) == 0)
        n = chip.n_qubits
        for k in range(n):
            assert np.all(h <= h[:, k][:, None] + h[k, :][None, :])

    def test_matches_networkx_off_grid(self):
        # ring, star, ternary tree, then every connected graph on <= 5 vertices
        graphs = [
            (9, [(i, (i + 1) % 9) for i in range(9)]),
            (7, [(0, i) for i in range(1, 7)]),
            (13, [((i - 1) // 3, i) for i in range(1, 13)]),
            *connected_graphs(5),
        ]
        for n, edges in graphs:
            hops = uniform_chip(n, edges).distances.hops
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            for src, lengths in nx.all_pairs_shortest_path_length(g):
                for dst, d in lengths.items():
                    assert hops[src, dst] == d, (n, edges, src, dst)

    @given(graph=connected_graph())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_across_word_boundaries(self, graph):
        n, edges = graph
        chip = uniform_chip(n, edges)
        assert np.array_equal(chip.distances.hops, scipy_hops(chip))

    @pytest.mark.parametrize("n", [2, 64, 129, 300, 600])
    def test_long_paths_use_every_bit_plane(self, n):
        # diameters up to 599 need ten bit planes; a scrambled labelling
        # spreads each level over several words
        order = np.random.default_rng(n).permutation(n)
        chip = uniform_chip(n, list(zip(order[:-1], order[1:])))
        hops = chip.distances.hops
        assert hops.max() == n - 1
        assert np.array_equal(hops, scipy_hops(chip))

    @pytest.mark.parametrize("chip", [
        generate_grid(32, 32),
        generate_grid(5, 13),
        load_chip(json.dumps(heavy_hex_doc())),
    ], ids=["grid32x32", "grid5x13", "heavy-hex"])
    def test_matches_scipy_on_chips(self, chip):
        assert np.array_equal(chip.distances.hops, scipy_hops(chip))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (8, 8), (9, 15)])
    def test_hops_int16_read_only_zero_diagonal(self, rows, cols):
        hops = generate_grid(rows, cols).distances.hops
        assert hops.dtype == np.int16
        assert not hops.flags.writeable
        assert not np.diag(hops).any()
        with pytest.raises(ValueError, match="read-only"):
            hops[0, 0] = 1

    def test_eccentricity(self, grid5):
        ecc = grid5.distances.eccentricity
        assert ecc[0] == 8       # corner
        assert ecc[12] == 4      # center


class TestTypes:
    def test_spec_validation(self):
        with pytest.raises(ChipError):
            QubitSpec(id=0, t2_us=-1, readout_error=0.1)
        with pytest.raises(ChipError):
            QubitSpec(id=0, t2_us=10, readout_error=-0.1)
        with pytest.raises(ChipError):
            QubitSpec(id=0, t2_us=10, readout_error=0.1, t1_us=0.0)

    @pytest.mark.parametrize("field", ["t2_us", "t1_us"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_coherence_rejected(self, field, value):
        kwargs = {"t2_us": 100.0, "t1_us": 60.0, field: value}
        with pytest.raises(ChipError, match=field[:2]):
            QubitSpec(id=0, readout_error=0.01, **kwargs)

    def test_unknown_coherence_mode_rejected_without_t1(self):
        with pytest.raises(ChipError, match="unknown coherence mode"):
            QubitSpec(0, t2_us=100.0, readout_error=0.01).coherence_us("bogus")

    def test_coherence_modes(self):
        s = QubitSpec(id=0, t2_us=100, readout_error=0.01, t1_us=60)
        assert s.coherence_us("t2") == 100
        assert s.coherence_us("min_t1_t2") == 60
        assert QubitSpec(id=0, t2_us=100, readout_error=0.01).coherence_us("min_t1_t2") == 100

    def test_coherence_array_cached_read_only_and_per_mode(self):
        specs = (
            QubitSpec(0, t2_us=100.0, readout_error=0.01, t1_us=60.0),
            QubitSpec(1, t2_us=80.0, readout_error=0.02),
            QubitSpec(2, t2_us=50.0, readout_error=0.03, t1_us=90.0),
        )
        chip = Chip("c", CouplingGraph(3, ((0, 1), (1, 2))), specs)
        for mode in ("t2", "min_t1_t2"):
            arr = chip.coherence_array(mode)
            assert arr.tolist() == [s.coherence_us(mode) for s in specs]
            assert chip.coherence_array(mode) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert chip.coherence_array("t2").tolist() == [100.0, 80.0, 50.0]
        assert chip.coherence_array("min_t1_t2").tolist() == [60.0, 80.0, 50.0]
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ChipError, match="unknown coherence mode"):
                chip.coherence_array("t3")

    def test_chip_spec_count_mismatch(self):
        graph = CouplingGraph(n_qubits=2, edges=((0, 1),))
        with pytest.raises(ChipError):
            Chip(name="x", graph=graph, specs=(QubitSpec(0, 100, 0.01),))

    def test_distance_matrix_equality(self, grid4):
        a = DistanceMatrix(grid4.distances.hops.copy())
        assert a == grid4.distances
