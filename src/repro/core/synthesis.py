"""Circuit synthesis from decision diagrams (Section 4.2 of the paper).

For every visited node of dimension ``d`` the synthesis emits a ladder
of ``d - 1`` two-level Givens rotations followed by one two-level phase
rotation, each controlled on the root-to-node path (one
``(qudit, level)`` control per ancestor edge).  The emitted circuit
*disentangles* the represented state down to ``|0...0>``; the
preparation circuit is its reversed adjoint.  Complexity is linear in
the number of path-expanded DD nodes, matching the paper's complexity
claim.

The tensor-product rule of Section 4.3 is applied per node: when all
non-zero edges of a node point to the same child, the subtree is
synthesised once *without* a control on that node's qudit.

The circuit is emitted level by level, deepest level first, as
Mozafari et al. do; within a level, visits follow their root paths in
lexicographic order.  Compared with a depth-first post-order walk,
this stably sorts the blocks by target level, so a block only moves
past blocks that are neither its ancestors nor its descendants.  Two
such visits split on some level where their parent was not elided, so
they carry explicit, different controls on that qudit: they act on
disjoint subspaces and commute.  A tensor-elided level has one child
visit, so root paths never split there.

Synthesis is an array program over the diagram's level arrays
(:attr:`~repro.dd.diagram.DecisionDiagram.levels`) and reads no
:class:`~repro.dd.node.DDNode`:

* the visits of a level are the followed edges of the visits one level
  up, in parent order and then digit order (``np.nonzero`` over the
  parents' edge masks); each child's control row is its parent's plus
  its digit, or its parent's alone when the parent row is elided;
* one vectorised ladder (:func:`_ladders`) covers every distinct node
  of every level of one dimension, and every visit gathers its node's
  rows;
* the result is one :class:`~repro.circuit.table.CircuitTable`, one
  block per visit, and no :class:`~repro.circuit.gate.Gate` is built.

Angles agree with the scalar
:func:`~repro.core.angles.disentangling_rotation` to within rounding:
NumPy's ``arctan2`` and ``hypot`` may differ from ``math``'s in the
last bit, and the ladder carries each merged weight in polar form
instead of rebuilding it as a complex number.  The gate-by-gate
depth-first synthesis is the test oracle ``tests/synthesis_oracle.py``.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.table import GIVENS, PHASE, CircuitTable
from repro.core.angles import MERGE_CUTOFF
from repro.dd.diagram import DecisionDiagram
from repro.dd.edge import WEIGHT_ZERO_CUTOFF
from repro.exceptions import SynthesisError

__all__ = [
    "CIRCUIT_FORMAT",
    "synthesize_unpreparation",
    "synthesize_preparation",
]

#: Names the layout of the circuits synthesis emits.  Content keys
#: include it, so cached circuits of an older layout miss once instead
#: of being served; change it whenever synthesis output changes.
#: ``"level-major"`` named the same layout before approximation
#: renormalised only the rows it changed, which moved the last bits of
#: approximated circuits' angles.
CIRCUIT_FORMAT = "level-major-2"

#: Angles at or below this magnitude are identity rotations, which
#: ``emit_identity_rotations=False`` drops.
_IDENTITY_ANGLE = 1e-14


def _ladders(
    weights: np.ndarray, emit_identity_rotations: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ladders of ``(m, d)`` weight rows, as ``(m, d)`` columns.

    Column ``k < d - 1`` is the Givens rotation merging level
    ``d - 1 - k`` into level ``d - 2 - k``; column ``d - 1`` is the
    phase rotation of the residual phase on level 0.  This is
    :func:`~repro.core.angles.disentangling_rotation` applied down each
    row, vectorised over the rows.

    Returns:
        ``(theta, phi, keep)``: the angles and which rows are emitted.
    """
    rows, dimension = weights.shape
    theta = np.zeros((rows, dimension))
    phi = np.zeros((rows, dimension))
    magnitudes = np.hypot(weights.real, weights.imag)
    arguments = np.arctan2(weights.imag, weights.real)
    # The phase a merge keeps: weights at or below the cutoff count as
    # zero, so their merges come out real positive.
    kept_arguments = np.where(magnitudes > MERGE_CUTOFF, arguments, 0.0)
    # The weight carried down the ladder, in polar form: a merge leaves
    # hypot(|a|, |b|) with a's kept phase, a skipped merge leaves a.
    magnitude_b = magnitudes[:, dimension - 1]
    arg_b = arguments[:, dimension - 1]
    for column, upper in enumerate(range(dimension - 1, 0, -1)):
        magnitude_a = magnitudes[:, upper - 1]
        arg_a = kept_arguments[:, upper - 1]
        merging = magnitude_b > MERGE_CUTOFF
        theta[:, column] = np.where(
            merging, 2.0 * np.arctan2(magnitude_b, magnitude_a), 0.0
        )
        phi[:, column] = np.where(merging, arg_b - arg_a - np.pi / 2.0, 0.0)
        magnitude_b = np.where(
            merging, np.hypot(magnitude_a, magnitude_b), magnitude_a
        )
        arg_b = np.where(merging, arg_a, arguments[:, upper - 1])
    # The residual phase on level 0; for canonically normalised nodes
    # (first non-zero weight real positive) this is exactly zero, but
    # it is computed -- not assumed -- so non-canonical diagrams stay
    # correct.
    residual = np.where(magnitude_b > 0.0, arg_b, 0.0)
    theta[:, dimension - 1] = 2.0 * residual
    if emit_identity_rotations:
        keep = np.ones((rows, dimension), dtype=bool)
    else:
        keep = np.abs(theta) > _IDENTITY_ANGLE
        keep[:, dimension - 1] = np.abs(residual) > _IDENTITY_ANGLE
    return theta, phi, keep


def _followed_edges(
    weights: np.ndarray, children: np.ndarray, tensor_elision: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Which edges of each row lead to a child visit.

    An edge is followed when it is non-zero (``abs(w) > cutoff``, the
    test of :attr:`~repro.dd.edge.Edge.is_zero`) and its child is not
    the terminal.  A row is elided when all its non-zero edges share
    one child row; it follows its first non-zero edge only.

    Returns:
        ``(follow, elided)``: an ``(m, d)`` and an ``(m,)`` mask.
    """
    nonzero = np.hypot(weights.real, weights.imag) > WEIGHT_ZERO_CUTOFF
    follow = nonzero & (children >= 0)
    if not tensor_elision:
        return follow, np.zeros(weights.shape[0], dtype=bool)
    first = np.argmax(nonzero, axis=1)
    shared = children[np.arange(first.size), first]
    elided = np.all((children == shared[:, None]) | ~nonzero, axis=1)
    follow &= ~elided[:, None] | (
        np.arange(weights.shape[1]) == first[:, None]
    )
    return follow, elided


def _unpreparation_table(
    dd: DecisionDiagram,
    tensor_elision: bool,
    emit_identity_rotations: bool,
) -> CircuitTable:
    """The disentangling circuit of ``dd`` as a table, deepest level
    first, one block per visit.

    The ladders and edge masks are computed once per distinct
    dimension, over the rows of all its levels.  Ladders sit
    right-aligned in ``width = max(dims)`` columns, so column ``c``
    rotates levels ``(width - 2 - c, width - 1 - c)`` on every level
    and the last column is the phase rotation.
    """
    if abs(dd.root_weight) <= WEIGHT_ZERO_CUTOFF:
        raise SynthesisError("cannot synthesise the zero state")
    levels = dd.levels
    dims = dd.dims
    num_qudits = len(dims)
    width = max(dims)
    counts = [weights.shape[0] for weights in levels.weights]
    base = np.zeros(num_qudits + 1, dtype=np.intp)
    np.cumsum(counts, out=base[1:])
    theta = np.zeros((base[-1], width))
    phi = np.zeros((base[-1], width))
    keep = np.zeros((base[-1], width), dtype=bool)
    row_dims = np.repeat(dims, counts)
    follows: list[np.ndarray] = [None] * num_qudits
    elisions: list[np.ndarray] = [None] * num_qudits
    for dimension in set(dims):
        group = [
            level for level in range(num_qudits) if dims[level] == dimension
        ]
        weights = np.concatenate([levels.weights[level] for level in group])
        rows = np.flatnonzero(row_dims == dimension)
        columns = slice(width - dimension, None)
        theta[rows, columns], phi[rows, columns], keep[rows, columns] = (
            _ladders(weights, emit_identity_rotations)
        )
        follow, elided = _followed_edges(
            weights,
            np.concatenate([levels.children[level] for level in group]),
            tensor_elision,
        )
        offset = 0
        for level in group:
            follows[level] = follow[offset:offset + counts[level]]
            elisions[level] = elided[offset:offset + counts[level]]
            offset += counts[level]

    # Visits level by level: each followed edge of a visit is a visit
    # one level down, in parent order and then digit order.
    visit_rows = [np.zeros(1, dtype=np.intp)]
    visit_controls = [np.full((1, num_qudits), -1, dtype=np.int16)]
    for level in range(num_qudits - 1):
        parent, digit = np.nonzero(follows[level][visit_rows[level]])
        parent_rows = visit_rows[level][parent]
        visit_rows.append(levels.children[level][parent_rows, digit])
        controls = visit_controls[level][parent]
        controls[:, level] = np.where(
            elisions[level][parent_rows], -1, digit
        )
        visit_controls.append(controls)

    deepest_first = range(num_qudits - 1, -1, -1)
    rows = np.concatenate(
        [visit_rows[level] + base[level] for level in deepest_first]
    )
    emitted = keep[rows]
    lengths = np.count_nonzero(emitted, axis=1)
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    visit, column = np.nonzero(emitted)
    row = rows[visit]
    kind = np.full(width, GIVENS, dtype=np.uint8)
    kind[-1] = PHASE
    upper = np.arange(width - 1, -1, -1, dtype=np.int32)
    upper[-1] = 1
    lower = upper - 1
    lower[-1] = 0
    visits = np.array([visit_rows[level].size for level in deepest_first])
    return CircuitTable(
        dims,
        kind=kind[column],
        target=np.repeat(
            np.repeat(np.arange(num_qudits - 1, -1, -1), visits), lengths
        ),
        lower=lower[column],
        upper=upper[column],
        theta=theta[row, column],
        phi=phi[row, column],
        offsets=offsets,
        controls=np.concatenate(
            [visit_controls[level] for level in deepest_first]
        ),
    )


def synthesize_unpreparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """Synthesise the circuit mapping the DD's state to ``|0...0>``.

    Blocks are emitted deepest level first, in root-path order within a
    level (see the module docstring).

    Args:
        dd: Decision diagram of the state (canonical, non-zero).
        tensor_elision: Apply the tensor-product rule — subtrees whose
            parent factorises are synthesised once without the parent
            control.  Disable to obtain per-path controls everywhere.
        emit_identity_rotations: Emit rotations with zero angle (the
            paper counts them; disabling yields shorter circuits with
            identical action).

    Returns:
        Circuit ``U`` with ``U|psi> = w |0...0>`` where ``w`` is the
        DD's root weight (a pure phase for unit-norm states).

    Raises:
        SynthesisError: If the diagram is zero.
    """
    return Circuit.from_table(
        _unpreparation_table(dd, tensor_elision, emit_identity_rotations)
    )


def synthesize_preparation(
    dd: DecisionDiagram,
    tensor_elision: bool = True,
    emit_identity_rotations: bool = True,
) -> Circuit:
    """Synthesise the circuit preparing the DD's state from ``|0...0>``.

    The reversed adjoint of :func:`synthesize_unpreparation` (its
    table reversed, with ``theta`` and ``delta`` negated), so it runs
    shallowest level first, with the root weight's phase applied as a
    global phase so the prepared state matches the diagram exactly
    (not merely up to phase).

    Returns:
        Circuit ``P`` with ``P|0...0> = |psi> / ||psi||``.
    """
    table = _unpreparation_table(
        dd, tensor_elision, emit_identity_rotations
    )
    preparation = Circuit.from_table(table.inverse())
    preparation.global_phase = cmath.phase(dd.root_weight)
    return preparation
