"""Dense statevector simulation of mixed-dimensional qudit circuits.

Gates are applied by reshaping the amplitude vector into one tensor
axis per qudit, slicing out the control-satisfying subspace, and
contracting the target axis with the gate's local matrix.  Cost is
``O(prod(dims) * d_target)`` per gate.

Two execution paths are provided:

* :func:`simulate` / :func:`apply_gate` — the immutable API.  Inputs
  are never mutated; :func:`simulate` allocates one private working
  buffer for the whole circuit and delegates to the in-place kernel,
  so cost per gate is one subspace-sized temporary instead of the
  seed's two full-state copies (``tensor.copy()`` plus the
  :class:`StateVector` constructor's validating copy).
* :func:`apply_gate_inplace` / :func:`simulate_inplace` — the
  zero-copy kernel.  The caller owns the buffer; gate matrices are
  memoised per ``(gate identity, dimension)`` in a
  :class:`GateMatrixCache` so parameterised rotations are built once
  per circuit, not once per application.
* :func:`simulate_reference` — the seed's per-gate-copy loop, kept as
  the executable baseline the benchmark-trajectory harness
  (``benchmarks/bench_hotpaths.py``) and the equivalence tests measure
  against.
"""

from __future__ import annotations

import cmath
import threading
from collections import OrderedDict

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.exceptions import SimulationError
from repro.states.statevector import StateVector

__all__ = [
    "GateMatrixCache",
    "apply_gate",
    "apply_gate_inplace",
    "simulate",
    "simulate_inplace",
    "simulate_reference",
]


class GateMatrixCache:
    """Memo of local gate matrices keyed by gate identity and dimension.

    The key reuses the gate's equality contract (class, parameters —
    controls and target excluded, they do not affect the local
    matrix), so two equal-parameter rotations on different qudits of
    the same dimension share one matrix.  Matrices are marked
    read-only before being handed out; the simulation kernels never
    write to them.

    The memo is a bounded LRU.  Each simulation makes a fresh cache
    unless the caller passes one in, and a caller that keeps one
    cache across many circuits would otherwise grow it without limit:
    synthesised rotations almost never repeat an angle.  The default
    cap holds every distinct matrix of the dense 12-qudit benchmark
    circuit (13,825), so one simulation does not evict.  Thread-safe,
    so concurrent simulations may share one instance.

    Args:
        maxsize: Entry cap; least-recently-used matrices are evicted
            past it.
    """

    __slots__ = ("_matrices", "_maxsize", "_lock")

    #: Default entry cap — above the 13,825 distinct local matrices of
    #: the dense 12-qudit benchmark circuit, the largest one verified.
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
    subspace = tensor[tuple(index)]
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


def simulate_inplace(
    circuit: Circuit,
    amplitudes: np.ndarray,
    matrix_cache: GateMatrixCache | None = None,
) -> np.ndarray:
    """Run a circuit on a caller-owned amplitude buffer, in place.

    Args:
        circuit: The circuit to execute (its global phase is applied).
        amplitudes: Writable, C-contiguous complex128 vector of size
            ``circuit.register.size``; mutated to the output state.
        matrix_cache: Optional shared gate-matrix memo; pass one cache
            across calls to reuse matrices between circuits.

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
    if matrix_cache is None:
        matrix_cache = GateMatrixCache()
    # One per-circuit validation pass instead of one validate() per
    # gate per call: Circuit.append validated every gate against this
    # register on entry, so the memoised pass is free for circuits
    # built through the public API and re-validates only when the
    # gate list was manipulated behind the container's back.
    circuit.ensure_validated()
    tensor = amplitudes.reshape(dims)
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


def simulate_reference(
    circuit: Circuit,
    initial: StateVector | None = None,
) -> StateVector:
    """Seed baseline of :func:`simulate`: two full copies per gate.

    Chains :func:`apply_gate`, allocating a fresh
    :class:`StateVector` after every gate exactly like the seed
    implementation did.  Retained for the benchmark-trajectory
    harness and the in-place equivalence tests; prefer
    :func:`simulate` everywhere else.
    """
    if initial is None:
        initial = StateVector.zero_state(circuit.register)
    elif initial.register != circuit.register:
        raise SimulationError(
            f"initial state on {initial.dims} does not match circuit "
            f"on {circuit.dims}"
        )
    state = initial
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    if circuit.global_phase:
        state = StateVector(
            state.amplitudes * cmath.exp(1j * circuit.global_phase),
            state.register,
        )
    return state
