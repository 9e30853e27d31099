"""Property test: basis_state returns a unit-norm state or raises ValueError, whatever it is given.

An accepted spec also uses only the ket grammar's characters (besides whitespace).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arcsim.hamiltonians import HilbertStructure, basis_state  # noqa: E402

GRAMMAR = set("0123456789|>⟩()+-*/√.,sqrt")
# The three benchmark layouts: MFIM (qubits only), Kerr (Fock only), Rabi (Fock then one qubit).
structures = (
    st.builds(HilbertStructure, qubit_sites=st.integers(2, 5))
    | st.builds(HilbertStructure, fock_dim=st.integers(2, 60))
    | st.builds(HilbertStructure, qubit_sites=st.just(1), fock_dim=st.integers(2, 60))
)
# Pieces of the ket grammar, near misses (underscores, signs, non-ASCII digits and
# spaces) and junk, spliced into otherwise valid specs.
fragments = st.sampled_from([
    "|", ">", "⟩", "(", ")", "+", "-", "/", "√2", "sqrt(2)", ",", " ", ".", "*",
    "0", "1", "5", "10", "2.5", "_", "١", "５", "\u00a0", "e3", "x",
])


@st.composite
def specs(draw):
    """(spec, structure): a label, a ket sum or junk for one of the layouts, maybe spliced."""
    structure = draw(structures)

    def label():
        parts = []
        if structure.fock_dim:  # the top value is one past the truncation
            level = str(draw(st.integers(0, structure.fock_dim)))
            if draw(st.integers(0, 3)) == 0:  # a near miss that int() would read as a level
                at = draw(st.integers(0, len(level)))
                level = level[:at] + draw(st.sampled_from(["_", "١", "５", "+", " "])) + level[at:]
            parts.append(level)
        if structure.qubit_sites:  # one bit short or long now and then
            q = structure.qubit_sites
            n = draw(st.sampled_from([q, q, q, q - 1, q + 1]))
            parts.append(draw(st.text("01", min_size=n, max_size=n)))
        return ",".join(parts)

    def kets():
        return "".join(
            draw(st.sampled_from(["", "+", "-"])) + draw(st.sampled_from(["", "2", "0.5"]))
            + "|" + label() + draw(st.sampled_from(["⟩", ">"]))
            for _ in range(draw(st.integers(1, 3)))
        )

    kind = draw(st.sampled_from(["label", "kets", "normalized", "text", "fragments"]))
    spec = {
        "label": label,
        "kets": kets,
        "normalized": lambda: f"({kets()})/" + draw(st.sampled_from(["√2", "sqrt(2)"])),
        "text": lambda: draw(st.text(max_size=12)),
        "fragments": lambda: "".join(draw(st.lists(fragments, max_size=10))),
    }[kind]()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(spec)))
        spec = spec[:at] + draw(fragments) + spec[at:]
    return spec, structure


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(specs())
@example(("|1_0,0>", HilbertStructure(qubit_sites=1, fock_dim=50)))
@example(("|١,1>", HilbertStructure(qubit_sites=1, fock_dim=50)))
@example(("|0⟩-|0⟩", HilbertStructure(fock_dim=4)))
@example(("(|2,0⟩+|5,0⟩)/√2", HilbertStructure(qubit_sites=1, fock_dim=50)))
def test_basis_state_is_unit_norm_or_raises_value_error(case):
    spec, structure = case
    try:
        state = basis_state(spec, structure)
    except ValueError:
        return
    assert state.data.shape == (structure.dim,)
    assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12
    assert {c for c in spec if not c.isspace()} <= GRAMMAR, spec
