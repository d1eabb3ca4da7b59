"""Dense state vectors over mixed-dimensional qudit registers.

:class:`StateVector` couples a numpy amplitude array with the
:class:`~repro.registers.QuditRegister` that defines its shape.  It is
the interchange format between the state library, the decision-diagram
builder, and the simulator.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import DimensionError, NormalizationError, StateError
from repro.registers import QuditRegister
from repro.registers.register import RegisterLike, as_register

__all__ = ["StateVector"]

#: Amplitudes below this magnitude are treated as exact zeros when
#: deciding sparsity; the value is far above double rounding noise yet
#: far below any physically meaningful amplitude.
ZERO_CUTOFF = 1e-14


class StateVector:
    """An amplitude vector bound to a qudit register.

    The amplitude of basis state ``|a_0 ... a_{n-1}>`` is stored at the
    flat index ``register.index((a_0, ..., a_{n-1}))``.

    Example:
        >>> import numpy as np
        >>> sv = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        >>> round(sv.probability((1, 1)), 3)
        0.5
    """

    __slots__ = ("_amplitudes", "_register")

    def __init__(
        self,
        amplitudes: Sequence[complex] | np.ndarray,
        register: RegisterLike,
    ):
        self._register = as_register(register)
        array = np.asarray(amplitudes, dtype=np.complex128)
        if array.ndim != 1:
            raise StateError(
                f"amplitudes must be one-dimensional, got shape {array.shape}"
            )
        if array.shape[0] != self._register.size:
            raise DimensionError(
                f"register of size {self._register.size} cannot hold "
                f"{array.shape[0]} amplitudes"
            )
        if not np.all(np.isfinite(array)):
            raise StateError("amplitudes must be finite")
        self._amplitudes = array.copy()
        self._amplitudes.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero_state(cls, register: RegisterLike) -> "StateVector":
        """Return ``|0...0>`` over the given register."""
        register = as_register(register)
        amplitudes = np.zeros(register.size, dtype=np.complex128)
        amplitudes[0] = 1.0
        return cls(amplitudes, register)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def register(self) -> QuditRegister:
        """The register this state is defined over."""
        return self._register

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-qudit dimensions of the register."""
        return self._register.dims

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude array."""
        return self._amplitudes

    @property
    def size(self) -> int:
        """Number of amplitudes."""
        return self._amplitudes.shape[0]

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector.

        Finite whenever the norm itself is: amplitudes whose sum of
        squares overflows (magnitudes above about 1e154) are divided
        by their largest part first.
        """
        scale, norm = self._scaled_norm()
        return scale * norm

    def _scaled_norm(self) -> tuple[float, float]:
        """``(scale, norm)``: the norm is ``scale * norm``.

        ``scale`` is 1 unless the sum of squares overflows; then it
        is the largest real or imaginary part of any amplitude, and
        ``norm`` is the norm of the amplitudes divided by it.
        """
        amplitudes = self._amplitudes
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amplitudes))
        if norm != np.inf:
            return 1.0, norm
        scale = max(
            np.abs(amplitudes.real).max(), np.abs(amplitudes.imag).max()
        )
        return float(scale), float(np.linalg.norm(amplitudes / scale))

    def is_normalized(self, tolerance: float = 1e-9) -> bool:
        """Whether the squared norm is within ``tolerance`` of 1."""
        return abs(self.norm() - 1.0) <= tolerance

    def num_nonzero(self, cutoff: float = ZERO_CUTOFF) -> int:
        """Number of amplitudes with magnitude above ``cutoff``."""
        return int(np.count_nonzero(np.abs(self._amplitudes) > cutoff))

    # ------------------------------------------------------------------
    # Amplitude access
    # ------------------------------------------------------------------
    def amplitude(self, basis: Sequence[int] | int) -> complex:
        """Amplitude of a basis state given as digits or flat index."""
        if isinstance(basis, (int, np.integer)):
            index = int(basis)
            if not 0 <= index < self.size:
                raise DimensionError(
                    f"index {index} out of range for size {self.size}"
                )
        else:
            index = self._register.index(basis)
        return complex(self._amplitudes[index])

    def probability(self, basis: Sequence[int] | int) -> float:
        """Measurement probability of a basis state."""
        return abs(self.amplitude(basis)) ** 2

    def nonzero_terms(
        self, cutoff: float = ZERO_CUTOFF
    ) -> Iterator[tuple[tuple[int, ...], complex]]:
        """Yield ``(digits, amplitude)`` for non-negligible amplitudes."""
        for index in np.flatnonzero(np.abs(self._amplitudes) > cutoff):
            yield self._register.digits(int(index)), complex(
                self._amplitudes[index]
            )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "StateVector":
        """Return the unit-norm copy of this state.

        Amplitudes whose sum of squares overflows (magnitudes above
        about 1e154) are divided by their largest part first.

        Raises:
            NormalizationError: If the vector is (numerically) zero.
        """
        scale, norm = self._scaled_norm()
        if norm <= ZERO_CUTOFF:
            raise NormalizationError("cannot normalise the zero vector")
        amplitudes = self._amplitudes
        if scale != 1.0:
            amplitudes = amplitudes / scale
        return StateVector(amplitudes / norm, self._register)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Return the tensor product ``self (x) other``.

        ``self`` supplies the most significant qudits of the result.
        """
        register = QuditRegister(self.dims + other.dims)
        return StateVector(
            np.kron(self._amplitudes, other._amplitudes), register
        )

    def as_tensor(self) -> np.ndarray:
        """Return the amplitudes reshaped to one axis per qudit."""
        return self._amplitudes.reshape(self.dims)

    def global_phase_aligned(self) -> "StateVector":
        """Return a copy whose first non-zero amplitude is real positive.

        Useful for comparing states that may differ by a global phase.
        """
        nonzero = np.flatnonzero(np.abs(self._amplitudes) > ZERO_CUTOFF)
        if nonzero.size == 0:
            return StateVector(self._amplitudes, self._register)
        pivot = self._amplitudes[nonzero[0]]
        phase = pivot / abs(pivot)
        return StateVector(self._amplitudes / phase, self._register)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def sample(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[tuple[int, ...], int]:
        """Sample measurement outcomes in the computational basis.

        Args:
            shots: Number of samples to draw (must be positive).
            rng: Optional numpy random generator for reproducibility.

        Returns:
            A histogram mapping digit tuples to observed counts.

        Raises:
            StateError: If the state is not normalised or shots <= 0.
        """
        if shots <= 0:
            raise StateError(f"shots must be positive, got {shots}")
        if not self.is_normalized(tolerance=1e-6):
            raise StateError("cannot sample from an unnormalised state")
        if rng is None:
            rng = np.random.default_rng()
        probabilities = np.abs(self._amplitudes) ** 2
        probabilities = probabilities / probabilities.sum()
        outcomes = rng.choice(self.size, size=shots, p=probabilities)
        histogram: dict[tuple[int, ...], int] = {}
        for index in outcomes:
            digits = self._register.digits(int(index))
            histogram[digits] = histogram.get(digits, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StateVector):
            return self._register == other._register and np.array_equal(
                self._amplitudes, other._amplitudes
            )
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashable
        raise TypeError("StateVector is not hashable")

    def isclose(self, other: "StateVector", tolerance: float = 1e-9) -> bool:
        """Element-wise closeness over the same register."""
        return self._register == other._register and bool(
            np.allclose(
                self._amplitudes, other._amplitudes, atol=tolerance, rtol=0.0
            )
        )

    def __repr__(self) -> str:
        return (
            f"StateVector(dims={list(self.dims)}, "
            f"nonzero={self.num_nonzero()}/{self.size})"
        )

    def __str__(self) -> str:
        terms = []
        for digits, amplitude in self.nonzero_terms():
            label = "".join(str(d) for d in digits)
            terms.append(f"({amplitude:.4g})|{label}>")
            if len(terms) >= 8:
                terms.append("...")
                break
        return " + ".join(terms) if terms else "0"
