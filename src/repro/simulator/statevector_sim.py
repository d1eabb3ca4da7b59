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
  zero-copy kernel.  The caller owns the buffer.  For a gate list,
  each gate is applied with its local matrix, built once per
  simulation for all gates of equal parameters on qudits of one
  dimension.  For a circuit stored as a
  :class:`~repro.circuit.table.CircuitTable`, a *run* is a stretch of
  consecutive rows sharing target and control row, applied as the
  product of its rows; consecutive runs on one target with one control
  mask and pairwise different control rows act on disjoint subspaces,
  and where they read few amplitudes they run as one *batch*: one
  gather, one ``(k, d, d) @ (k, d, rest)`` matmul (or, for first
  columns, one ``(k, d, 1) * (k, 1, rest)`` product) and one write.
  Nothing is reordered or scheduled, so the kernel is exact for any
  circuit.

A table run on ``|0...0>`` (as verification runs every synthesised
circuit) knows which qudits can hold anything beyond level 0: none at
the start, and each once a run has targeted it.  A synthesised
circuit prepares its state one level at a time, so the blocks of a
level act on a qudit still at level 0 and reach only amplitudes whose
later qudits are 0.  A run then reads only level 0 of the qudits not
yet reached, skips itself where it is controlled above level 0 on
one, and needs only the first column of its matrix (``c = 1``) where
its target's levels above 0 hold zeros.  A batch that finds non-zero
levels above 0 gets its runs' full matrices.  On any other input every
qudit is reached and every run gets its full matrix (``c = d``).

The run matrices of a table are built vectorised, one stack per
dimension held run axis last, ``(d, c, k)``, and transposed once to
``(k, d, c)`` for the batches: a row mixes two rows of a matrix, so a
first column is the same stepping on one column.  Each row kind
computes only its own entries of its 2x2 block: ``cos``/``sin`` of
``theta/2`` and ``e^{i phi}`` on Givens rows, ``e^{i delta/2}`` on
phase rows, the mirrored entries taken as conjugates.  Where every run
of a dimension has one length and one ``(lower, upper)`` sequence, as
in a synthesised table with identity rotations kept, a step updates
two contiguous ``(c, k)`` slabs with ``(k,)`` coefficient vectors;
otherwise it updates the rows of the runs still active.  The matrices
are bit for bit those of the ``(k, d, d)`` loop kept as
``run_matrices_reference`` in ``tests/kernel_oracles.py``, and the
first columns its column 0.

The seed's per-gate-copy loop is kept as a test oracle in the same
file, which the equivalence tests and ``benchmarks/bench_hotpaths.py``
measure against.
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


#: Runs that read fewer amplitudes than this (their subspace, where the
#: buffer can hold non-zero amplitudes) run in batches; larger ones run
#: one by one, where a single subspace matmul already amortises the
#: per-call cost and a gather would only add copies.
_BATCH_AMPLITUDES = 4096

#: Batches of fewer runs than this run one by one: a batch's fixed
#: cost (gather, stacked matmul, scatter) is that of two to three small
#: subspace calls.
_BATCH_RUNS = 3


#: ``-0.0`` as a ``float64`` bit pattern.
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def _mirrored(turn: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """``exp(-1j * angle)`` from ``turn = exp(1j * angle)``, bit for bit.

    ``1j * angle`` has the imaginary part ``+0.0`` where ``angle`` is
    ``-0.0``, so there the conjugate's is ``-0.0``, while
    ``exp(-1j * -0.0)`` is exactly ``1 + 0j``; at every other finite
    angle the conjugate has ``exp(-1j * angle)``'s bits.
    """
    mirror = np.conj(turn)
    mirror[angle.view(np.int64) == _NEGATIVE_ZERO] = 1.0
    return mirror


def _step_slabs(
    stack: np.ndarray,
    blocks: np.ndarray,
    rows: np.ndarray,
    levels: list[list[int]],
) -> None:
    """Step a ``(d, c, k)`` stack in place on whole ``(c, k)`` slabs.

    Step ``j`` applies rows ``rows[j]`` (one per run), all on levels
    ``levels[j]``; ``blocks`` holds every row's ``g00, g01, g10, g11``.
    A sum commutes bit for bit, but NumPy's complex product does not:
    each keeps its coefficient on the left and goes to a new array.
    Written into its right operand (``out=``), or taken of a ``(1,)``
    and a ``(1, 1)`` array, it is rounded as if its operands were
    swapped, so coefficients come as ``(1, k)`` rows.
    """
    c00, c01, c10, c11 = np.take(blocks, rows[:, None], axis=1)
    for step, (lower, upper) in enumerate(levels):
        low, high = stack[lower], stack[upper]
        products = (
            c00[step] * low,
            c01[step] * high,
            c10[step] * low,
            c11[step] * high,
        )
        np.add(products[0], products[1], out=low)
        np.add(products[2], products[3], out=high)


def _run_matrices(
    table: CircuitTable,
    starts: np.ndarray,
    lengths: np.ndarray,
    run_dims: np.ndarray,
    full: bool = True,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The ``d x d`` matrix of every run, or its first column, stacked
    per dimension.

    A run's matrix is the product of its rows' two-level matrices
    (later rows on the left).  The matrices of all runs on one
    dimension are built together, run axis last: step ``j`` applies
    the ``j``-th row of every run at least ``j + 1`` rows long.  A row
    mixes two rows of a matrix and never its columns, so the first
    column (``full=False``) is the same stepping on a ``(d, 1, k)``
    stack.  When every run of a dimension has one length and one
    ``(lower, upper)`` sequence (a synthesised table with identity
    rotations kept), a step updates the two whole slabs of its levels
    with ``(k,)`` coefficient vectors (:func:`_step_slabs`).  Every
    product is the one a ``(k, d, d)`` stack stepped run by run
    computes, with the coefficient on the left, and every sum adds the
    same two products (addition commutes bit for bit), so the matrices
    are those of ``run_matrices_reference`` in
    ``tests/kernel_oracles.py``, and the first columns its column 0,
    bit for bit.  Only the rows of the given runs are read.

    Returns:
        ``(stacks, positions)``: per dimension, the ``(count, d, d)``
        matrices of its runs in run order (``(count, d, 1)`` first
        columns unless ``full``), and each run's position in its
        dimension's stack.
    """
    total = int(lengths.sum())
    if total == table.num_rows:
        # Every run of the table: its rows are the table's.
        rows = slice(None)
        first_rows = starts
    else:
        # The runs' rows, run by run.
        first_rows = np.zeros(starts.size, dtype=np.intp)
        np.cumsum(lengths[:-1], out=first_rows[1:])
        rows = np.repeat(starts - first_rows, lengths) + np.arange(total)
    theta, phi = table.theta[rows], table.phi[rows]
    lower, upper = table.lower[rows], table.upper[rows]
    # Each row's (lower, upper) levels as one number.
    width = int(upper.max()) + 1
    pairs = lower * width + upper
    # The 2x2 block [[g00, g01], [g10, g11]] of every row on its
    # (lower, upper) levels: R(theta, phi) for Givens rows,
    # RZ(delta) = diag(e^{-i delta/2}, e^{i delta/2}) for phase rows.
    # Each kind computes only its own entries; cos(theta/2), cheap, is
    # written on every row and overwritten on phase rows.
    blocks = np.zeros((4, total), dtype=np.complex128)
    g00, g01, g10, g11 = blocks
    is_phase = table.kind[rows] == PHASE
    phase, givens = np.flatnonzero(is_phase), np.flatnonzero(~is_phase)
    half = theta / 2.0
    g00.real = g11.real = np.cos(half)
    sin = np.sin(half[givens])
    phi = phi[givens]
    turn = np.exp(1j * phi)
    g01[givens] = -1j * _mirrored(turn, phi) * sin
    g10[givens] = -1j * turn * sin
    turn = np.exp(0.5j * theta[phase])
    g00[phase] = _mirrored(turn, half[phase])
    g11[phase] = turn

    stacks: dict[int, np.ndarray] = {}
    positions = np.zeros(starts.size, dtype=np.intp)
    # bincount, not np.unique: the latter imports numpy.ma on first use.
    for dimension in np.flatnonzero(np.bincount(run_dims)).tolist():
        runs = np.flatnonzero(run_dims == dimension)
        positions[runs] = np.arange(runs.size)
        columns = dimension if full else 1
        # stack[i, j, r] is entry (i, j) of run r's matrix.
        stack = np.zeros((dimension, columns, runs.size), complex)
        diagonal = np.arange(columns)
        stack[diagonal, diagonal] = 1.0
        first, length = first_rows[runs], lengths[runs]
        steps = int(length.max())
        shared = None
        if int(length.min()) == steps:
            step_rows = first + np.arange(steps)[:, None]
            pair = pairs[step_rows]
            if (pair == pair[:, :1]).all():
                shared = [divmod(value, width) for value in pair[:, 0].tolist()]
        if shared is not None:
            _step_slabs(stack, blocks, step_rows, shared)
        else:
            for step in range(steps):
                active = np.flatnonzero(length > step)
                row = first[active] + step
                low_level, high_level = lower[row], upper[row]
                low = stack[low_level, :, active]
                high = stack[high_level, :, active]
                stack[low_level, :, active] = (
                    g00[row, None] * low + g01[row, None] * high
                )
                stack[high_level, :, active] = (
                    g10[row, None] * low + g11[row, None] * high
                )
        stacks[dimension] = np.ascontiguousarray(stack.transpose(2, 0, 1))
    return stacks, positions


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows in which two ``(m, n)`` arrays differ, possibly
    repeated: one flat pass, where a reduction along short rows would
    pay a call per row."""
    return np.flatnonzero(a != b) // max(a.shape[1], 1)


def _batch_starts(new: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """First run of every batch.

    ``new`` marks the first run of every *stretch* (consecutive runs
    with one target and one control mask, see :func:`_run_table`) and
    every run that reads too much to share a batch.  A batch is a
    stretch of runs with pairwise different control rows: they act on
    disjoint subspaces, so applying them at once equals applying them
    in order.  ``offsets`` identify the control rows; a row that
    repeats inside a stretch ends the batch before it.  A batch of
    fewer than :data:`_BATCH_RUNS` runs is split into batches of one.
    """
    new = new.copy()
    inside = np.diff(offsets)[~new[1:]]
    # Offsets that only fall (a synthesised preparation) or only rise
    # inside every stretch never repeat.
    if not ((inside < 0).all() or (inside > 0).all()):
        stretch_starts = np.flatnonzero(new)
        stretch = np.cumsum(new) - 1
        # A sort, not np.unique (which imports numpy.ma).
        order = np.lexsort((offsets, stretch))
        repeated = (offsets[order[1:]] == offsets[order[:-1]]) & (
            stretch[order[1:]] == stretch[order[:-1]]
        )
        stretch_stops = np.append(stretch_starts[1:], new.size)
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
    lengths = np.diff(np.append(starts, new.size))
    new |= np.repeat(lengths, lengths) < _BATCH_RUNS
    return np.flatnonzero(new)


def _subspaces(
    tensor: np.ndarray,
    row: list[int],
    target: int,
    offsets: np.ndarray | None = None,
    stride: tuple[int, ...] = (),
) -> tuple[np.ndarray, tuple]:
    """Where a batch reads and writes its ``k`` disjoint subspaces.

    ``row`` is a control row (``-1`` for a free qudit) and ``target``
    the qudit the batch acts on.  Returns ``(holder, key)``:
    ``holder[key]`` are the ``(k, d, ...)`` subspaces, target axis
    second, and ``holder[key] = values`` writes them.  Without
    ``offsets``, the one subspace of ``row`` is a view of ``tensor``,
    target axis first (``key`` adds the batch axis).  Otherwise the
    subspaces share ``row``'s control mask and ``offsets`` holds their
    ``k`` pairwise different flat offsets (each control row's levels
    times the qudits' strides, ``stride``).  Adjacent qudits of one
    role (controlled or free) merge into one axis of a view of
    ``tensor``, so a stretch of controls is one index, read off the
    offsets; with the controlled axes first and the target next,
    ``key`` gathers every subspace at once.
    """
    if offsets is None:
        subspace = tensor[
            tuple([slice(None) if level < 0 else level for level in row])
        ]
        # Integer indices collapse control axes, shifting the target
        # axis left by the number of controls preceding it.
        axis = target - sum(1 for level in row[:target] if level >= 0)
        if axis:
            order = list(range(subspace.ndim))
            order.insert(0, order.pop(axis))
            subspace = subspace.transpose(order)
        return subspace, (None,)
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
    # of its last qudit (``stride`` holds the qudits' strides).
    index = []
    for _, first, stop in segments:
        above = offsets % stride[first - 1] if first else offsets
        index.append(above // stride[stop - 1])
    return view, tuple(index)


def _apply_batch(
    holder: np.ndarray, key: tuple, matrices: np.ndarray
) -> None:
    """Apply ``k`` matrices, or their first columns, on a batch's
    ``k`` subspaces (``holder[key]``, see :func:`_subspaces`).

    ``(k, d, c)`` matrices read the first ``c`` levels of each
    subspace's target: ``c = 1`` where the levels above 0 hold zeros,
    so a column times one amplitude (a broadcast product) replaces a
    matmul that adds zeros.  Otherwise one ``(k, d, d) @ (k, d,
    rest)`` matmul.  Then one write.
    """
    count, dimension, columns = matrices.shape
    if columns == dimension:
        read = holder[key]
        products = matrices @ read.reshape(count, dimension, -1)
    else:
        read = holder[key + (slice(None, 1),)]
        products = matrices * read.reshape(count, 1, -1)
    holder[key] = products.reshape((count, dimension) + read.shape[2:])


def _run_table(
    tensor: np.ndarray, table: CircuitTable, fresh: bool
) -> None:
    """Apply a table to an amplitude tensor, in place, in emitted order.

    A run is a maximal stretch of consecutive rows with one target and
    one control row, applied as one matrix (:func:`_run_matrices`).
    Runs go in batches (:func:`_batch_starts`): a batch is one gather
    of its runs' subspaces, one product of its ``(k, d, c)`` stack and
    one write (:func:`_apply_batch`); a batch of one works on a view.

    A ``fresh`` tensor holds ``|0...0>`` up to a factor, so a qudit
    holds level 0 only until a run targets it; from then on it is
    *reached*.  A run controlled above level 0 on a qudit not yet
    reached acts on zeros and is dropped.  A run reads only level 0 of
    the free qudits not yet reached: its control row gains a level-0
    control there (a control at level 0 reads level 0 anyway).  Every
    run gets the first column of its matrix, which is all it needs
    where its target's levels above 0 hold zeros: always in the batch
    that first targets a qudit, and on a reached target wherever the
    batch's gathered levels above 0 are zero, as on a second control
    mask of a level.  Otherwise only that batch's runs get full
    matrices.  A dropped run still reaches its target, which only
    keeps full subspaces for later runs.  On any other tensor every
    qudit is reached and every run gets its full matrix.
    """
    rows = table.num_rows
    if rows == 0:
        return
    dims = np.asarray(table.dims, dtype=np.int64)
    target = table.target
    # The blocks holding rows, their first rows and control rows.
    filled = np.flatnonzero(table.block_lengths())
    block_starts = table.offsets[filled]
    controls = table.controls
    if filled.size < controls.shape[0]:
        controls = controls[filled]
    # A run ends where the target changes, or the control row does.
    same = target[1:] == target[:-1]
    same[block_starts[1 + _rows_differ(controls[1:], controls[:-1])] - 1] = (
        False
    )
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    lengths = np.diff(np.append(starts, rows))
    run_target = target[starts]
    if np.array_equal(starts, block_starts):
        run_controls = controls
    else:
        run_controls = controls[
            np.searchsorted(block_starts, starts, side="right") - 1
        ]

    def stretches() -> tuple[np.ndarray, np.ndarray]:
        """Each run's stretch (consecutive runs with one target and one
        control mask) and whether it starts one."""
        new = np.ones(run_target.size, dtype=bool)
        new[1:] = run_target[1:] != run_target[:-1]
        controlled = run_controls >= 0
        new[1 + _rows_differ(controlled[1:], controlled[:-1])] = True
        return np.cumsum(new) - 1, new

    stretch, new = stretches()
    heads = np.flatnonzero(new)
    head_controlled = run_controls[heads] >= 0
    if fresh:
        # Each run's original index orders it against the first run on
        # every qudit, which starts a stretch.
        index = np.arange(starts.size)
        first = np.full(dims.size, starts.size)
        np.minimum.at(first, run_target[heads], heads)
        # Controlled qudits of each stretch not yet reached.
        blocked = (heads[:, None] <= first) & head_controlled
        if blocked.any():
            dead = _rows_differ(
                (run_controls > 0) & blocked[stretch], False
            )
            if dead.size:
                live = np.ones(starts.size, dtype=bool)
                live[dead] = False
                if not live.any():
                    return
                starts, lengths, run_target, run_controls, index = (
                    column[live]
                    for column in (
                        starts, lengths, run_target, run_controls, index
                    )
                )
                stretch, new = stretches()
                heads = np.flatnonzero(new)
                head_controlled = run_controls[heads] >= 0
        # The free qudits of each stretch not yet reached.
        fill = (
            (index[heads, None] <= first)
            & ~head_controlled
            & (run_target[heads, None] != np.arange(dims.size))
        )
        head_controlled |= fill
    run_dims = dims[run_target]
    stacks, positions = _run_matrices(
        table, starts, lengths, run_dims, full=not fresh
    )

    # The amplitudes a run reads: its subspace, where the buffer can
    # hold non-zero amplitudes.  A stretch's runs read alike.
    reads = tensor.size // np.prod(
        np.where(head_controlled, dims, 1), axis=1
    )
    big = reads >= _BATCH_AMPLITUDES
    if big.any():
        new |= big[stretch]
    # Each run's subspace starts at its control levels times the
    # qudits' strides in the flat state.  An integer product: a float
    # one would go to BLAS, whose threads stall when another process
    # holds a core.
    stride = strides(table.dims)
    offsets = np.maximum(run_controls, 0).astype(np.int64) @ np.array(
        stride, dtype=np.int64
    )
    batches = _batch_starts(new, offsets)
    stops = np.append(batches[1:], run_target.size)
    # Only the batch heads are read below: their control rows with the
    # level-0 controls, and whether their stack entries apply as built
    # (full matrices, or first columns where the batch opens a qudit).
    rows_read = run_controls[batches]
    if fresh:
        rows_read[fill[stretch[batches]]] = 0
        ready = (index[batches] == first[run_target[batches]]).tolist()
    else:
        ready = [True] * batches.size

    above_zero = (slice(1, None),)
    for start, stop, control_row, target, dimension, position, known in zip(
        batches.tolist(),
        stops.tolist(),
        rows_read.tolist(),
        run_target[batches].tolist(),
        run_dims[batches].tolist(),
        positions[batches].tolist(),
        ready,
    ):
        holder, key = _subspaces(
            tensor,
            control_row,
            target,
            offsets[start:stop] if stop - start > 1 else None,
            stride,
        )
        matrices = stacks[dimension][position:position + stop - start]
        if not known and holder[key + above_zero].any():
            matrices = _run_matrices(
                table,
                starts[start:stop],
                lengths[start:stop],
                run_dims[start:stop],
            )[0][dimension]
        _apply_batch(holder, key, matrices)


def simulate_inplace(circuit: Circuit, amplitudes: np.ndarray) -> np.ndarray:
    """Run a circuit on a caller-owned amplitude buffer, in place.

    Blocks run in emitted order: the runs of a table circuit, one by
    one or in batches (see :func:`_run_table`; a buffer that holds
    ``|0...0>`` runs from level 0 of every qudit), or the gates of a
    gate list, one by one.  A gate list's local matrices are memoised
    for the call, keyed by gate class, parameters and dimension (target
    and controls do not change the matrix).

    Args:
        circuit: The circuit to execute (its global phase is applied).
        amplitudes: Writable complex128 vector of size
            ``circuit.register.size``; mutated to the output state.

    Returns:
        The same ``amplitudes`` array, for chaining.

    Raises:
        SimulationError: If the buffer is not a writable complex128
            vector of the register's size; it is left untouched.
    """
    dims = circuit.dims
    if amplitudes.shape != (circuit.register.size,):
        raise SimulationError(
            f"buffer of shape {amplitudes.shape} cannot hold a state "
            f"over dims {dims}"
        )
    if amplitudes.dtype != np.complex128:
        raise SimulationError(
            f"a {amplitudes.dtype} buffer cannot hold a state; it must "
            f"be complex128"
        )
    if not amplitudes.flags.writeable:
        raise SimulationError("the buffer is read-only")
    tensor = amplitudes.reshape(dims)
    table = circuit.table
    if table is not None:
        # A table was validated when it was built.  A buffer holding
        # |0...0> (the last amplitude decides most others at once)
        # runs from level 0 of every qudit.
        fresh = not (amplitudes[-1] or amplitudes[1:].any())
        _run_table(tensor, table, fresh)
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
