"""Quantum-chip topology and calibration model.

A chip is a connected coupling graph (vertices = physical qubits, edges =
allowed two-qubit interactions) plus per-qubit calibration: coherence times
in microseconds and a readout-error probability. Chips, and the distance
matrices derived from them, are immutable after construction and safe to
share between concurrently running simulations.

Chip files are JSON documents::

    {"name": "...",
     "qubits": [{"id": 0, "t1_us": 120.0, "t2_us": 100.0, "readout_error": 0.01}, ...],
     "edges": [[0, 1], [1, 2], ...]}

``t1_us`` is optional. Indices are 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsontypes import typed


class ChipError(ValueError):
    """Malformed or inconsistent chip description."""


COHERENCE_MODES = ("t2", "min_t1_t2")


def check_coherence_mode(mode: str) -> None:
    """Raise ChipError unless ``mode`` names a coherence time (COHERENCE_MODES)."""
    if mode not in COHERENCE_MODES:
        raise ChipError(f"unknown coherence mode {mode!r}; expected one of {COHERENCE_MODES}")


@dataclass(frozen=True)
class QubitSpec:
    """Calibration data for one physical qubit. Durations in microseconds."""

    id: int
    t2_us: float
    readout_error: float
    t1_us: float | None = None

    def __post_init__(self):
        if self.id < 0:
            raise ChipError(f"qubit id must be non-negative, got {self.id}")
        if not (math.isfinite(self.t2_us) and self.t2_us > 0):
            raise ChipError(f"qubit {self.id}: t2 must be positive and finite, got {self.t2_us}")
        if self.t1_us is not None and not (math.isfinite(self.t1_us) and self.t1_us > 0):
            raise ChipError(f"qubit {self.id}: t1 must be positive and finite, got {self.t1_us}")
        if not 0.0 <= self.readout_error <= 1.0:
            raise ChipError(
                f"qubit {self.id}: readout_error must lie in [0, 1], "
                f"got {self.readout_error}"
            )

    def coherence_us(self, mode: str = "t2") -> float:
        """Coherence time used by error formulas: plain t2 or min(t1, t2)."""
        check_coherence_mode(mode)
        if mode == "t2" or self.t1_us is None:
            return self.t2_us
        return min(self.t1_us, self.t2_us)


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected, connected graph over qubit indices 0..n_qubits-1."""

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ChipError(f"chip needs at least one qubit, got {self.n_qubits}")
        seen = set()
        normalized = []
        for e in self.edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ChipError(f"self-loop edge [{a}, {b}]")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ChipError(f"edge [{a}, {b}] index out of range (n={self.n_qubits})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ChipError(f"duplicate edge [{a}, {b}]")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        if not self._is_connected():
            raise ChipError("coupling graph is disconnected")

    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for v in self.neighbors[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_qubits

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(v)) for v in adj)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) int32 arrays: neighbor lists concatenated in qubit order."""
        indptr = np.cumsum([0, *map(len, self.neighbors)], dtype=np.int32)
        indices = np.array([v for nbrs in self.neighbors for v in nbrs], dtype=np.int32)
        return indptr, indices

    @cached_property
    def degree(self) -> tuple[int, ...]:
        """Each qubit's number of neighbours, as Python ints for per-qubit loops."""
        return tuple(map(len, self.neighbors))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array(self.degree, dtype=np.int64)


def backend_name() -> str:
    """Identifier of the numeric backend; numpy is the only one."""
    return "numpy"


def _bfs_all_pairs(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Read-only (n, n) hop distances of a connected graph, all sources at once.

    Bit-parallel BFS (Then et al., "The More the Merrier", PVLDB 8(4),
    2014): bit s of the packed uint64 row v is set once source s has
    reached v, and a level ORs the frontier rows of v's neighbours over the
    CSR arrays. Levels are kept as bit planes (plane b holds bit b of each
    distance) and unpacked a block of rows at a time, which bounds the
    temporaries. int16 is exact up to 32768 vertices: the diameter is at
    most n - 1.
    """
    src = np.arange(n)
    frontier = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    frontier[src, src // 64] = np.uint64(1) << (src % 64).astype(np.uint64)
    seen = frontier.copy()
    planes: list[np.ndarray] = []
    for level in range(1, n):
        frontier = np.bitwise_or.reduceat(frontier[indices], indptr[:-1], axis=0) & ~seen
        if not frontier.any():
            break
        seen |= frontier
        if level >> len(planes):
            planes.append(np.zeros_like(seen))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= frontier
    del frontier, seen  # freed before the (n, n) matrix is allocated
    hops = np.zeros((n, n), dtype=np.int16 if n <= 32768 else np.int32)
    block = max(1, (1 << 19) // n)  # rows per unpacked block
    for lo in range(0, n, block):
        for b, plane in enumerate(planes):
            packed = plane[lo:lo + block].astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
            hops[lo:lo + block] |= bits.astype(hops.dtype) << b
    hops.flags.writeable = False
    return hops


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path hop distances of a connected chip."""

    hops: np.ndarray = field(repr=False)

    @cached_property
    def eccentricity(self) -> np.ndarray:
        """Per-qubit eccentricity: max hop distance to any other qubit."""
        return self.hops.max(axis=1)

    def __eq__(self, other):
        return isinstance(other, DistanceMatrix) and np.array_equal(self.hops, other.hops)


@dataclass(frozen=True)
class Chip:
    """Named coupling graph plus one QubitSpec per qubit."""

    name: str
    graph: CouplingGraph
    specs: tuple[QubitSpec, ...]

    def __post_init__(self):
        if len(self.specs) != self.graph.n_qubits:
            raise ChipError(
                f"{len(self.specs)} qubit specs for a {self.graph.n_qubits}-qubit graph"
            )
        for i, spec in enumerate(self.specs):
            if spec.id != i:
                raise ChipError(f"qubit specs must cover ids 0..n-1 in order; slot {i} has id {spec.id}")

    @property
    def n_qubits(self) -> int:
        return self.graph.n_qubits

    @cached_property
    def distances(self) -> DistanceMatrix:
        indptr, indices = self.graph.csr
        return DistanceMatrix(_bfs_all_pairs(indptr, indices, self.n_qubits))

    def coherence_array(self, mode: str = "t2") -> np.ndarray:
        """Per-qubit coherence time in microseconds under the given mode.

        Built once per mode and cached on the chip; the array is read-only.
        """
        arr = self._coherence_arrays.get(mode)
        if arr is None:
            arr = _read_only([s.coherence_us(mode) for s in self.specs])
            self._coherence_arrays[mode] = arr
        return arr

    @cached_property
    def _coherence_arrays(self) -> dict[str, np.ndarray]:
        return {}

    @cached_property
    def readout_array(self) -> np.ndarray:
        return _read_only([s.readout_error for s in self.specs])


def _read_only(values: list[float]) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def load_chip(source) -> Chip:
    """Parse and validate a chip file.

    ``source`` may be bytes, a JSON string, or a readable file object.
    Values follow ``jsontypes.typed``: qubit ids and edge endpoints are
    integral, calibration values are numbers. Raises ChipError for
    malformed documents or invariant violations.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ChipError(f"malformed chip document: {exc}") from exc
    if not isinstance(doc, dict) or "qubits" not in doc or "edges" not in doc:
        raise ChipError("chip document must be an object with 'qubits' and 'edges'")
    try:
        records = [
            (
                typed(q["id"], int, "qubit id"),
                typed(q["t2_us"], float, "t2_us"),
                typed(q["readout_error"], float, "readout_error"),
                None if q.get("t1_us") is None else typed(q["t1_us"], float, "t1_us"),
            )
            for q in doc["qubits"]
        ]
        edges = tuple(
            (typed(a, int, "edge endpoint"), typed(b, int, "edge endpoint"))
            for a, b in doc["edges"]
        )
        name = typed(doc["name"], str, "name") if "name" in doc else "chip"
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: an edge that is not a pair
        raise ChipError(f"malformed chip document: {exc}") from exc
    specs = tuple(QubitSpec(*r) for r in sorted(records, key=lambda r: r[0]))
    graph = CouplingGraph(n_qubits=len(specs), edges=edges)
    return Chip(name=name, graph=graph, specs=specs)


def dump_chip(chip: Chip) -> dict:
    """Chip as a JSON-serializable document; load_chip(json.dumps(...)) round-trips."""
    qubits = []
    for s in chip.specs:
        rec: dict = {"id": s.id, "t2_us": s.t2_us, "readout_error": s.readout_error}
        if s.t1_us is not None:
            rec["t1_us"] = s.t1_us
        qubits.append(rec)
    return {
        "name": chip.name,
        "qubits": qubits,
        "edges": [list(e) for e in chip.graph.edges],
    }


DEFAULT_TEMPLATE = QubitSpec(id=0, t2_us=100.0, readout_error=0.01)


def generate_grid(
    rows: int,
    cols: int,
    spec_template: QubitSpec | None = None,
    noise_seed: int | None = None,
    name: str | None = None,
) -> Chip:
    """Build a rows x cols lattice chip with 4-neighbor coupling.

    Qubits are indexed row-major. With ``noise_seed`` given, each qubit's
    t2 (and t1, if the template has one) is jittered by a uniform +-20%
    factor and readout_error by +-50%, deterministically for the seed.
    """
    if rows < 1 or cols < 1:
        raise ChipError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    template = spec_template if spec_template is not None else DEFAULT_TEMPLATE
    n = rows * cols
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    specs = []
    for q in range(n):
        t2 = template.t2_us
        ro = template.readout_error
        t1 = template.t1_us
        if rng is not None:
            t2 = t2 * rng.uniform(0.8, 1.2)
            ro = float(np.clip(ro * rng.uniform(0.5, 1.5), 1e-9, 1.0))
            if t1 is not None:
                t1 = t1 * rng.uniform(0.8, 1.2)
        specs.append(QubitSpec(id=q, t2_us=t2, readout_error=ro, t1_us=t1))
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    graph = CouplingGraph(n_qubits=n, edges=tuple(edges))
    return Chip(name=name or f"grid-{rows}x{cols}", graph=graph, specs=tuple(specs))
