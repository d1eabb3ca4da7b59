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
  :func:`simulate_inplace` feeds it in emitted order.  For a circuit
  stored as a :class:`~repro.circuit.table.CircuitTable`, a *run* is
  a stretch of consecutive rows sharing target and control row,
  applied as the product of its rows (built vectorised); consecutive
  runs on one target with one control mask and pairwise different
  control rows act on disjoint subspaces, and where their subspaces
  are small they run as one *batch*: one gather, one
  ``(k, d, d) @ (k, d, rest)`` matmul and one scatter.  For a gate
  list, each gate is applied with its local matrix, built once per
  simulation for all gates of equal parameters on qudits of one
  dimension.  Nothing is reordered or scheduled, so the kernel is
  exact for any circuit.

The seed's per-gate-copy loop is kept as a test oracle in
``tests/kernel_oracles.py``, which the equivalence tests and
``benchmarks/bench_hotpaths.py`` measure against.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate
from repro.circuit.table import PHASE, CircuitTable
from repro.exceptions import SimulationError
from repro.registers.mixed_radix import strides
from repro.states.statevector import StateVector

__all__ = [
    "apply_gate",
    "apply_gate_inplace",
    "simulate",
    "simulate_inplace",
]


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
            it.
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


#: Blocks whose ``(target, controls)`` subspace holds fewer amplitudes
#: than this run in batches; larger ones run one by one, where a single
#: subspace matmul already amortises the per-call cost and a gather
#: would only add copies.
_BATCH_AMPLITUDES = 4096

#: Batches of fewer runs than this run one by one: a batch's fixed
#: cost (gather, stacked matmul, scatter) is that of two to three small
#: subspace calls.
_BATCH_RUNS = 3


def _run_matrices(
    table: CircuitTable,
    starts: np.ndarray,
    lengths: np.ndarray,
    run_dims: np.ndarray,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The ``d x d`` matrix of every run, stacked per dimension.

    A run's matrix is the product of its rows' two-level matrices
    (later rows on the left).  The matrices of all runs on one
    dimension are built together: step ``j`` applies the ``j``-th row
    of every run at least ``j + 1`` rows long.

    Returns:
        ``(stacks, positions)``: per dimension, the ``(count, d, d)``
        matrices of its runs in run order, and each run's position in
        its dimension's stack.
    """
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

    stacks: dict[int, np.ndarray] = {}
    positions = np.zeros(starts.size, dtype=np.intp)
    # bincount, not np.unique: the latter imports numpy.ma on first use.
    for dimension in np.flatnonzero(np.bincount(run_dims)).tolist():
        runs = np.flatnonzero(run_dims == dimension)
        positions[runs] = np.arange(runs.size)
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
        stacks[dimension] = stack
    return stacks, positions


def _batch_starts(
    run_target: np.ndarray,
    controlled: np.ndarray,
    offsets: np.ndarray,
    subspace: np.ndarray,
) -> np.ndarray:
    """First run of every batch.

    A batch is a maximal stretch of consecutive runs with one target,
    one control mask and pairwise different control rows, whose
    subspaces are smaller than :data:`_BATCH_AMPLITUDES`.  Its runs act
    on disjoint subspaces, so applying them at once equals applying
    them in order.  A control row that repeats inside a stretch ends
    the batch before it.  A batch of fewer than :data:`_BATCH_RUNS`
    runs is split into batches of one.
    """
    new = np.ones(run_target.size, dtype=bool)
    new[1:] = ~(
        (run_target[1:] == run_target[:-1])
        & np.all(controlled[1:] == controlled[:-1], axis=1)
        & (subspace[1:] < _BATCH_AMPLITUDES)
    )
    stretch_starts = np.flatnonzero(new)
    stretch = np.cumsum(new) - 1
    # One mask per stretch: a control row's offset identifies it.  A
    # sort, not np.unique (which imports numpy.ma).
    order = np.lexsort((offsets, stretch))
    repeated = (offsets[order[1:]] == offsets[order[:-1]]) & (
        stretch[order[1:]] == stretch[order[:-1]]
    )
    if repeated.any():
        stretch_stops = np.append(stretch_starts[1:], run_target.size)
        for index in np.flatnonzero(np.bincount(
            stretch[order[1:][repeated]]
        )).tolist():
            first = int(stretch_starts[index])
            seen: set[int] = set()
            for run, value in enumerate(
                offsets[first:stretch_stops[index]].tolist(), first
            ):
                if value in seen:
                    new[run] = True
                    seen.clear()
                seen.add(value)
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, run_target.size))
    new |= np.repeat(lengths, lengths) < _BATCH_RUNS
    return np.flatnonzero(new)


def _apply_batch(
    tensor: np.ndarray,
    matrices: np.ndarray,
    row: list[int],
    offsets: np.ndarray,
    target: int,
) -> None:
    """Apply ``k`` matrices on ``k`` disjoint subspaces at once.

    The subspaces share one control mask, that of ``row`` (one of
    their control rows), and ``offsets`` holds their ``k`` pairwise
    different flat offsets (each control row's levels times the
    qudits' strides).  Adjacent qudits of one role (controlled or free)
    merge into one axis of a view of ``tensor``, so a stretch of
    controls is one index, read off the offsets; with the controlled
    axes first and the target next, one gather, one
    ``(k, d, d) @ (k, d, rest)`` matmul and one scatter apply every
    matrix on its subspace.
    """
    dims = tensor.shape
    shape: list[int] = []
    segments: list[list[int]] = []
    free_axes: list[int] = []
    target_axis = 0
    previous = None
    for qudit, level in enumerate(row):
        role = None if qudit == target else level >= 0
        if role is not None and role == previous:
            shape[-1] *= dims[qudit]
            if role:
                segments[-1][2] = qudit + 1
        else:
            if role is None:
                target_axis = len(shape)
            elif role:
                segments.append([len(shape), qudit, qudit + 1])
            else:
                free_axes.append(len(shape))
            shape.append(dims[qudit])
        previous = role
    view = tensor.reshape(shape).transpose(
        [axis for axis, _, _ in segments] + [target_axis] + free_axes
    )
    # The index of a controlled stretch [first, stop) is the offset
    # modulo the stride of the qudit before it, divided by the stride
    # of its last qudit.
    stride = strides(dims)
    index = []
    for _, first, stop in segments:
        above = offsets % stride[first - 1] if first else offsets
        index.append(above // stride[stop - 1])
    index = tuple(index)
    subspaces = view[index]
    gathered = subspaces.shape
    view[index] = (
        matrices @ subspaces.reshape(offsets.size, gathered[1], -1)
    ).reshape(gathered)


def _run_table(tensor: np.ndarray, table: CircuitTable) -> None:
    """Apply a table to an amplitude tensor, in place, in emitted order.

    A run is a maximal stretch of consecutive rows with one target and
    one control row, applied as one matrix (:func:`_run_matrices`).
    Runs go in batches (:func:`_batch_starts`): a batch of several
    runs is one gather of their subspaces, one ``(k, d, d) @ (k, d,
    rest)`` matmul and one scatter; a batch of one is one
    :func:`_apply_subspace` call.
    """
    rows = table.num_rows
    if rows == 0:
        return
    dims = np.asarray(table.dims, dtype=np.int64)
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
    run_dims = dims[run_target]
    stacks, positions = _run_matrices(table, starts, lengths, run_dims)

    run_controls = controls[row_block[starts]]
    controlled = run_controls >= 0
    subspace = tensor.size // np.prod(
        np.where(controlled, dims, 1), axis=1
    )
    # Each run's subspace starts at its control levels times the
    # qudits' strides in the flat state.
    offsets = np.maximum(run_controls, 0).astype(np.int64) @ np.array(
        strides(table.dims), dtype=np.int64
    )
    batches = _batch_starts(run_target, controlled, offsets, subspace)
    stops = np.append(batches[1:], run_target.size).tolist()

    # Integer indices collapse control axes, shifting the target axis
    # left by the number of controls preceding it.
    before = np.cumsum(controlled, axis=1)[
        np.arange(run_target.size), run_target
    ]
    axes = (run_target - before).tolist()
    free = slice(None)
    control_rows = run_controls.tolist()
    run_target = run_target.tolist()
    run_dims = run_dims.tolist()
    positions = positions.tolist()
    for start, stop in zip(batches.tolist(), stops):
        stack = stacks[run_dims[start]]
        position = positions[start]
        if stop - start == 1:
            index = tuple(
                [free if level < 0 else level for level in control_rows[start]]
            )
            _apply_subspace(tensor, stack[position], index, axes[start])
        else:
            _apply_batch(
                tensor,
                stack[position:position + stop - start],
                control_rows[start],
                offsets[start:stop],
                run_target[start],
            )


def simulate_inplace(circuit: Circuit, amplitudes: np.ndarray) -> np.ndarray:
    """Run a circuit on a caller-owned amplitude buffer, in place.

    Blocks run in emitted order: the runs of a table circuit, one by
    one or in batches (see :func:`_run_table`), or the gates of a gate
    list, one by one.  A gate list's local matrices are memoised for
    the call, keyed by gate class, parameters and dimension (target and
    controls do not change the matrix).

    Args:
        circuit: The circuit to execute (its global phase is applied).
        amplitudes: Writable, C-contiguous complex128 vector of size
            ``circuit.register.size``; mutated to the output state.

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
        _run_table(tensor, table)
    else:
        # One per-circuit validation pass instead of one validate()
        # per gate per call: Circuit.append validated every gate
        # against this register on entry, so the memoised pass is free
        # for circuits built through the public API and re-validates
        # only when the gate list was manipulated behind the
        # container's back.
        circuit.ensure_validated()
        matrices: dict[tuple, np.ndarray] = {}
        for gate in circuit.gates:
            dimension = dims[gate.target]
            key = (gate.__class__, gate._parameters(), dimension)
            matrix = matrices.get(key)
            if matrix is None:
                matrix = matrices[key] = np.asarray(
                    gate.matrix(dimension), dtype=np.complex128
                )
            apply_gate_inplace(tensor, gate, matrix)
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
