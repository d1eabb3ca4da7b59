#!/usr/bin/env python3
"""Decision-diagram inspection and DOT export (Figures 3 and 4).

Builds the qutrit-qubit state of the paper's Example 4 /
Figure 3, walks its decision diagram, demonstrates the path-product
amplitude rule, and writes Graphviz DOT files for both the exact and
an approximated diagram.

Run:  python examples/dd_visualization.py [output-directory]
"""

import math
import pathlib
import sys

import numpy as np

from repro import StateVector, approximate, build_dd
from repro.dd.dot import to_dot


def figure3_state() -> StateVector:
    """(|00> - |11> + |21>)/sqrt(3) on a qutrit-qubit register."""
    amplitudes = np.zeros(6, dtype=complex)
    amplitudes[0] = 1.0   # |00>
    amplitudes[3] = -1.0  # |11>
    amplitudes[5] = 1.0   # |21>
    return StateVector(amplitudes / math.sqrt(3.0), (3, 2))


def main() -> None:
    output_dir = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else "."
    )
    state = figure3_state()
    dd = build_dd(state)

    print("state:", state)
    print(f"DAG nodes: {dd.stats.num_nodes}, "
          f"distinct complex values: {dd.stats.distinct_complex}")

    # The amplitude of |11> is the product of the weights on its path
    # (Example 4 of the paper).
    root = dd.root.node
    path_product = (
        dd.root.weight
        * root.successor(1).weight
        * root.successor(1).node.successor(1).weight
    )
    print(f"amplitude(|11>) from path product: {path_product:.6f}")
    assert np.isclose(path_product, -1 / math.sqrt(3))

    # Root edges 1 and 2 share one child node (the reduction rule).
    shared = root.successor(1).node is root.successor(2).node
    print(f"root edges 1 and 2 share a child node: {shared}")

    exact_path = output_dir / "figure3_exact.dot"
    exact_path.write_text(to_dot(dd, show_zero_edges=True))
    print(f"wrote {exact_path}")

    # Approximate at 2/3 fidelity: the smallest subtree is pruned.
    result = approximate(dd, 2.0 / 3.0)
    approx_path = output_dir / "figure3_approx.dot"
    approx_path.write_text(to_dot(result.diagram))
    print(
        f"wrote {approx_path} "
        f"(fidelity {result.fidelity:.4f}, "
        f"removed mass {result.removed_mass:.4f})"
    )
    print("render with: dot -Tpdf figure3_exact.dot -o figure3.pdf")


if __name__ == "__main__":
    main()
