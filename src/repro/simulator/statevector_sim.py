"""Dense statevector simulation of mixed-dimensional qudit circuits.

Gates are applied by reshaping the amplitude vector into one tensor
axis per qudit, slicing out the control-satisfying subspace, and
contracting the target axis with a ``d x d`` local matrix.  Cost is
``O(prod(dims) * d_target)`` per application.

Two entry points share one kernel:

* :func:`simulate` / :func:`apply_gate` — the immutable API.  Inputs
  are never mutated; :func:`simulate` allocates one private working
  buffer for the whole circuit and delegates to the in-place kernel,
  so cost per block is one subspace-sized temporary instead of the
  seed's two full-state copies (``tensor.copy()`` plus the
  :class:`StateVector` constructor's validating copy).
* :func:`apply_gate_inplace` / :func:`simulate_inplace` — the
  zero-copy kernel.  The caller owns the buffer.  One function applies
  a ``d x d`` matrix on a ``(target, controls)`` subspace, and
  :func:`simulate_inplace` feeds it one *block* at a time, in emitted
  order: for a circuit stored as a
  :class:`~repro.circuit.table.CircuitTable`, a block is a run of
  consecutive rows sharing target and control row, applied as the
  product of its rows (built vectorised); for a gate list, a block is
  one gate, with its matrix from a :class:`GateMatrixCache`.  Nothing
  is reordered or scheduled, so the kernel is exact for any circuit.

The seed's per-gate-copy loop is kept as a test oracle in
``tests/kernel_oracles.py``, which the equivalence tests and
``benchmarks/bench_hotpaths.py`` measure against.
"""

from __future__ import annotations

import cmath
import threading
from collections import OrderedDict

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.circuit.table import PHASE, CircuitTable
from repro.exceptions import SimulationError
from repro.states.statevector import StateVector

__all__ = [
    "GateMatrixCache",
    "apply_gate",
    "apply_gate_inplace",
    "simulate",
    "simulate_inplace",
]


class GateMatrixCache:
    """Memo of local gate matrices keyed by gate identity and dimension.

    The key reuses the gate's equality contract (class, parameters —
    controls and target excluded, they do not affect the local
    matrix), so two equal-parameter rotations on different qudits of
    the same dimension share one matrix.  Matrices are marked
    read-only before being handed out; the simulation kernels never
    write to them.

    The memo is a bounded LRU and serves gate-list circuits only
    (hand-built, parsed and transpiled ones): a synthesised circuit is
    a table, whose block matrices are built from its columns without
    this cache.  Each simulation makes a fresh cache unless the caller
    passes one in, and a caller that keeps one cache across many
    circuits would otherwise grow it without limit: rotation angles
    almost never repeat.  Thread-safe, so concurrent simulations may
    share one instance.

    Args:
        maxsize: Entry cap; least-recently-used matrices are evicted
            past it.
    """

    __slots__ = ("_matrices", "_maxsize", "_lock")

    #: Default entry cap.  It bounds the memory of a long-lived shared
    #: cache; a gate circuit with more distinct matrices than this
    #: evicts while it runs and only rebuilds matrices.
    DEFAULT_MAXSIZE = 16384

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise SimulationError(
                f"maxsize must be >= 1, got {maxsize}"
            )
        self._matrices: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._maxsize = maxsize
        self._lock = threading.Lock()

    def matrix(self, gate: Gate, dimension: int) -> np.ndarray:
        """Return (and memoise) ``gate.matrix(dimension)``."""
        key = (gate.__class__, gate._parameters(), dimension)
        with self._lock:
            matrix = self._matrices.get(key)
            if matrix is not None:
                self._matrices.move_to_end(key)
                return matrix
        matrix = np.asarray(gate.matrix(dimension), dtype=np.complex128)
        matrix.setflags(write=False)
        with self._lock:
            self._matrices[key] = matrix
            self._matrices.move_to_end(key)
            while len(self._matrices) > self._maxsize:
                self._matrices.popitem(last=False)
        return matrix

    @property
    def maxsize(self) -> int:
        """The entry cap of this cache."""
        return self._maxsize

    def clear(self) -> None:
        """Drop every memoised matrix."""
        with self._lock:
            self._matrices.clear()

    def __len__(self) -> int:
        return len(self._matrices)


def _apply_subspace(
    tensor: np.ndarray,
    matrix: np.ndarray,
    index: tuple,
    axis: int,
) -> None:
    """Apply a ``d x d`` matrix on a ``(target, controls)`` subspace.

    ``index`` holds each control's level at its qudit's position and
    ``slice(None)`` elsewhere; ``axis`` is the target's axis in the
    view ``tensor[index]`` (integer indices collapse control axes).
    """
    subspace = tensor[index]
    moved = (
        subspace if axis == 0 else np.moveaxis(subspace, axis, 0)
    )
    dimension = moved.shape[0]
    # reshape copies when ``moved`` is a non-contiguous view; the copy
    # is subspace-sized, and the matmul runs straight into BLAS
    # without np.tensordot's axis-normalisation overhead.
    moved[...] = (
        matrix @ moved.reshape(dimension, -1)
    ).reshape(moved.shape)


def apply_gate_inplace(
    tensor: np.ndarray,
    gate: Gate,
    matrix: np.ndarray | None = None,
) -> None:
    """Apply one gate to an amplitude tensor, writing in place.

    Args:
        tensor: Amplitudes reshaped to one axis per qudit (the result
            of :meth:`StateVector.as_tensor` on a writable buffer).
            Mutated in place; the only allocation is the transformed
            subspace.
        gate: Gate to apply; the caller is responsible for having
            validated it against the register (as
            :func:`simulate_inplace` does once per circuit).
        matrix: The gate's local matrix, if the caller already holds
            it (e.g. from a :class:`GateMatrixCache`).
    """
    if matrix is None:
        matrix = gate.matrix(tensor.shape[gate.target])
    index: list[object] = [slice(None)] * tensor.ndim
    axis = gate.target
    for control in gate.controls:
        index[control.qudit] = control.level
        # Integer indices collapse control axes, shifting the target
        # axis left by the number of controls preceding it.
        if control.qudit < gate.target:
            axis -= 1
    _apply_subspace(tensor, matrix, tuple(index), axis)


def _table_blocks(table: CircuitTable):
    """Yield ``(matrix, index, axis)`` per run of a table, in order.

    A run is a maximal stretch of consecutive rows with one target and
    one control row; its matrix is the product of its rows' two-level
    matrices (later rows on the left).  The matrices of all runs on
    one dimension are built together: step ``j`` applies the ``j``-th
    row of every run at least ``j + 1`` rows long.
    """
    rows = table.num_rows
    if rows == 0:
        return
    target = table.target
    row_block = table.row_blocks()
    controls = table.controls
    same = target[1:] == target[:-1]
    crossing = np.flatnonzero(row_block[1:] != row_block[:-1])
    same[crossing] &= np.all(
        controls[row_block[crossing]] == controls[row_block[crossing + 1]],
        axis=1,
    )
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    lengths = np.diff(np.append(starts, rows))
    run_target = target[starts]
    run_block = row_block[starts]

    # The 2x2 block [[g00, g01], [g10, g11]] of every row on its
    # (lower, upper) levels: R(theta, phi) for Givens rows,
    # RZ(delta) = diag(e^{-i delta/2}, e^{i delta/2}) for phase rows.
    half = table.theta / 2.0
    cos, sin = np.cos(half), np.sin(half)
    phase = table.kind == PHASE
    g00 = np.where(phase, np.exp(-0.5j * table.theta), cos)
    g11 = np.where(phase, np.exp(0.5j * table.theta), cos)
    g01 = np.where(phase, 0.0, -1j * np.exp(-1j * table.phi) * sin)
    g10 = np.where(phase, 0.0, -1j * np.exp(1j * table.phi) * sin)

    run_dims = np.asarray(table.dims)[run_target]
    matrices: list[np.ndarray] = [None] * starts.size
    # bincount, not np.unique: the latter imports numpy.ma on first use.
    for dimension in np.flatnonzero(np.bincount(run_dims)).tolist():
        runs = np.flatnonzero(run_dims == dimension)
        stack = np.zeros((runs.size, dimension, dimension), complex)
        stack[:, np.arange(dimension), np.arange(dimension)] = 1.0
        first, length = starts[runs], lengths[runs]
        for step in range(int(length.max())):
            active = np.flatnonzero(length > step)
            row = first[active] + step
            lower, upper = table.lower[row], table.upper[row]
            low = stack[active, lower]
            high = stack[active, upper]
            stack[active, lower] = (
                g00[row, None] * low + g01[row, None] * high
            )
            stack[active, upper] = (
                g10[row, None] * low + g11[row, None] * high
            )
        for position, run in enumerate(runs.tolist()):
            matrices[run] = stack[position]

    # Integer indices collapse control axes, shifting the target axis
    # left by the number of controls preceding it.
    before = np.cumsum(controls >= 0, axis=1)[run_block, run_target]
    axes = (run_target - before).tolist()
    free = slice(None)
    control_rows = controls[run_block].tolist()
    for matrix, row, axis in zip(matrices, control_rows, axes):
        index = tuple([free if level < 0 else level for level in row])
        yield matrix, index, axis


def simulate_inplace(
    circuit: Circuit,
    amplitudes: np.ndarray,
    matrix_cache: GateMatrixCache | None = None,
) -> np.ndarray:
    """Run a circuit on a caller-owned amplitude buffer, in place.

    Blocks run in emitted order: the runs of a table circuit (see
    :func:`_table_blocks`), or the gates of a gate list, one by one.

    Args:
        circuit: The circuit to execute (its global phase is applied).
        amplitudes: Writable, C-contiguous complex128 vector of size
            ``circuit.register.size``; mutated to the output state.
        matrix_cache: Optional shared gate-matrix memo for gate-list
            circuits; pass one cache across calls to reuse matrices
            between circuits.  Table circuits do not use it.

    Returns:
        The same ``amplitudes`` array, for chaining.

    Raises:
        SimulationError: If the buffer shape does not match the
            register.
    """
    dims = circuit.dims
    if amplitudes.shape != (circuit.register.size,):
        raise SimulationError(
            f"buffer of shape {amplitudes.shape} cannot hold a state "
            f"over dims {dims}"
        )
    tensor = amplitudes.reshape(dims)
    table = circuit.table
    if table is not None:
        # A table was validated when it was built.
        for matrix, index, axis in _table_blocks(table):
            _apply_subspace(tensor, matrix, index, axis)
    else:
        if matrix_cache is None:
            matrix_cache = GateMatrixCache()
        # One per-circuit validation pass instead of one validate()
        # per gate per call: Circuit.append validated every gate
        # against this register on entry, so the memoised pass is free
        # for circuits built through the public API and re-validates
        # only when the gate list was manipulated behind the
        # container's back.
        circuit.ensure_validated()
        for gate in circuit.gates:
            apply_gate_inplace(
                tensor, gate, matrix_cache.matrix(gate, dims[gate.target])
            )
    if circuit.global_phase:
        amplitudes *= cmath.exp(1j * circuit.global_phase)
    return amplitudes


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one (possibly multi-controlled) gate to a state.

    Args:
        state: Input state.
        gate: Gate to apply; validated against the state's register.

    Returns:
        The output state (a new object; inputs are never mutated).
    """
    gate.validate(state.dims)
    tensor = state.as_tensor().copy()
    apply_gate_inplace(tensor, gate)
    return StateVector(tensor.reshape(-1), state.register)


def simulate(
    circuit: Circuit,
    initial: StateVector | None = None,
) -> StateVector:
    """Run a circuit on an initial state (default ``|0...0>``).

    The circuit's global phase is applied to the result.  The
    immutable contract is kept by running :func:`simulate_inplace` on
    one private copy of the initial amplitudes, so results are
    bit-for-bit those of the in-place kernel.

    Args:
        circuit: The circuit to execute.
        initial: Input state; ``|0...0>`` when ``None``.

    Raises:
        SimulationError: If the initial state's register mismatches.
    """
    if initial is None:
        buffer = np.zeros(circuit.register.size, dtype=np.complex128)
        buffer[0] = 1.0
    elif initial.register != circuit.register:
        raise SimulationError(
            f"initial state on {initial.dims} does not match circuit "
            f"on {circuit.dims}"
        )
    else:
        buffer = np.array(
            initial.amplitudes, dtype=np.complex128, copy=True
        )
    simulate_inplace(circuit, buffer)
    return StateVector(buffer, circuit.register)
