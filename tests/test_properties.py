"""Property tests over arbitrary small instances (Hypothesis, derandomized).

Exact mode must reproduce the query-free reference min(Ax, b) on every
instance; every run, in every mode, must charge each query to exactly one
subroutine tag; and in every row group the blocks must tile the columns they
scanned.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab.core import ProblemInstance, matvec_min
from ineqlab.linsys import bounded_matrix_product, classical_bounded_product
from ineqlab.qsim import MODE_SV, MODES

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(0, t), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, t), min_size=n, max_size=n))
    return ProblemInstance(A=np.array(A), x=np.array(x), b=np.array(b), t=t)


def quantum_runs(instance, S, seed):
    """One bounded product per quantum mode, all from the same seed.

    Statevector counting reads bit tapes only, so it runs on x clipped to {0, 1}.
    """
    bits = ProblemInstance(A=instance.A, x=np.minimum(instance.x, 1), b=instance.b, t=instance.t)
    return [
        bounded_matrix_product(bits if mode == MODE_SV else instance, S, mode, np.random.default_rng(seed))
        for mode in MODES
    ]


@PROPERTY_SETTINGS
@given(instance=instances(), S=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_exact_mode_equals_reference(instance, S, seed):
    result = bounded_matrix_product(instance, S, "exact", np.random.default_rng(seed))
    np.testing.assert_array_equal(result.y, matvec_min(instance))
    assert result.correct


@PROPERTY_SETTINGS
@given(instance=instances(), S=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_ledger_total_is_sum_over_subroutines(instance, S, seed):
    results = quantum_runs(instance, S, seed) + [classical_bounded_product(instance, S)]
    for result in results:
        ledger = result.ledger
        assert ledger.total == sum(ledger.by_subroutine.values())
        assert ledger.total == ledger.queries_x + ledger.queries_b


@PROPERTY_SETTINGS
@given(instance=instances(), S=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_blocks_tile_the_scanned_columns(instance, S, seed):
    for result in quantum_runs(instance, S, seed):
        for blocks in result.group_traces:
            end = 0   # the first block starts at column 0
            for block in blocks:
                assert block.start == end
                assert block.length >= 1
                end = block.start + block.length
            assert end <= instance.n
