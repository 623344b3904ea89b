"""Property test: the sparse banded attention equals the dense masked
reference on random layouts, head counts, key and value dims and dtypes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cubegen.attention import (  # noqa: E402
    BLOCK_ROWS,
    CHUNK_ROWS,
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    dense_masked_attention,
    mask_matrix,
    sparse_context_attention,
)

TOLERANCE = {np.float64: 1e-10, np.float32: 1e-5}


@st.composite
def cases(draw):
    g = draw(st.integers(0, 130))
    # Contexts up to two chunks and a block; dims stay at most 8 so the
    # dense reference stays fast.
    c = draw(st.integers(0 if g else 1, 2 * CHUNK_ROWS + BLOCK_ROWS + 1))
    return dict(heads=draw(st.integers(1, 3)), g=g, c=c,
                kb=draw(st.integers(1, c + 2)), dim=draw(st.integers(1, 8)),
                dim_v=draw(st.integers(1, 8)),
                dtype=draw(st.sampled_from([np.float64, np.float32])),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cases())
def test_sparse_equals_dense(case):
    rng = np.random.default_rng(case["seed"])
    shape = (case["heads"], case["g"] + case["c"], case["dim"])
    shape_v = shape[:2] + (case["dim_v"],)
    inp = AttentionInputs(*(rng.standard_normal(s).astype(case["dtype"])
                            for s in (shape, shape, shape_v)))
    layout = TokenLayout(num_generation=case["g"], num_context=case["c"])
    spec = BandedMaskSpec(bandwidth=case["kb"])
    sparse = sparse_context_attention(inp, layout, spec)
    dense = dense_masked_attention(inp, mask_matrix(layout, spec))
    assert sparse.dtype == dense.dtype == case["dtype"]
    assert sparse.shape == dense.shape == shape_v
    assert np.abs(sparse - dense).max() <= TOLERANCE[case["dtype"]]
