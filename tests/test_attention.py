"""Attention tests.  The dense masked path is checked against a scalar
double-loop oracle; the sparse path is checked against the dense path."""

import tracemalloc

import numpy as np
import pytest

from cubegen.attention import (
    BLOCK_ROWS,
    CHUNK_ROWS,
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    attention_flops,
    attention_peak_bytes,
    dense_attention_flops,
    dense_masked_attention,
    mask_matrix,
    sparse_context_attention,
    tokens_per_frame,
)


def random_inputs(rng, tokens, dim=4, heads=2, dtype=np.float64):
    shape = (heads, tokens, dim)
    return AttentionInputs(
        queries=rng.normal(size=shape).astype(dtype),
        keys=rng.normal(size=shape).astype(dtype),
        values=rng.normal(size=shape).astype(dtype),
    )


def allowed_pairs(layout, spec):
    """The mask rule as a scalar predicate, independent of ``mask_matrix``:
    generation queries and generation keys are always allowed, and context
    pairs within the band |q - k| <= K."""
    g, kb = layout.num_generation, spec.bandwidth
    return lambda q, k: q < g or k < g or abs(q - k) <= kb


def brute_force(inp, allowed):
    """Independent scalar re-implementation of masked attention."""
    h, n, d = inp.queries.shape
    out = np.zeros(inp.values.shape)
    for hh in range(h):
        for q in range(n):
            keys = [k for k in range(n) if allowed(q, k)]
            scores = np.array([inp.queries[hh, q] @ inp.keys[hh, k] for k in keys])
            scores = scores / np.sqrt(d)
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            for wk, k in zip(w, keys):
                out[hh, q] += wk * inp.values[hh, k]
    return out


class TestBuildContextMask:
    """``mask_matrix``, the dense reference mask."""

    def test_enumerated_small_case(self):
        layout = TokenLayout(num_generation=2, num_context=3)
        m = mask_matrix(layout, BandedMaskSpec(bandwidth=1))
        ctx_pairs = {(q, k) for q in (2, 3, 4) for k in (2, 3, 4) if m[q, k]}
        assert ctx_pairs == {(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
        assert m[:2].all() and m[:, :2].all()

    def test_no_context_all_true(self):
        layout = TokenLayout(num_generation=3, num_context=0)
        m = mask_matrix(layout, BandedMaskSpec(bandwidth=2))
        assert m.shape == (3, 3) and m.all()

    def test_wide_band_equals_full(self):
        layout = TokenLayout(num_generation=2, num_context=5)
        m = mask_matrix(layout, BandedMaskSpec(bandwidth=4))
        assert m.all()

    def test_matrix_matches_predicate(self):
        # (G, C, K): no generation, no context, bands as wide as and wider
        # than the context, the narrowest band, and bands narrower than C
        for g, c, kb in ((0, 9, 2), (5, 0, 3), (4, 6, 6), (4, 6, 9), (3, 11, 1),
                         (3, 7, 2), (2, 40, 4), (70, 130, 64)):
            layout = TokenLayout(num_generation=g, num_context=c)
            spec = BandedMaskSpec(bandwidth=kb)
            allowed = allowed_pairs(layout, spec)
            expected = np.array([[allowed(q, k) for k in range(g + c)]
                                 for q in range(g + c)], dtype=bool).reshape(g + c, g + c)
            m = mask_matrix(layout, spec)
            assert m.dtype == bool
            assert np.array_equal(m, expected), (g, c, kb)

    def test_context_row_key_budget(self):
        # every context query: all G generation keys + at most 2K+1 context keys
        layout = TokenLayout(num_generation=5, num_context=20)
        spec = BandedMaskSpec(bandwidth=3)
        m = mask_matrix(layout, spec)
        for q in range(5, 25):
            assert m[q, :5].all()
            assert m[q, 5:].sum() <= 2 * 3 + 1


class TestDenseMaskedAttention:
    def test_single_token_returns_value(self, rng):
        inp = random_inputs(rng, 1)
        out = dense_masked_attention(inp, np.ones((1, 1), bool))
        np.testing.assert_allclose(out, inp.values, atol=1e-15)

    def test_identical_keys_average_values(self, rng):
        h, n, d = 1, 4, 3
        keys = np.repeat(rng.normal(size=(h, 1, d)), n, axis=1)
        inp = AttentionInputs(queries=rng.normal(size=(h, n, d)), keys=keys,
                              values=rng.normal(size=(h, n, d)))
        mask = np.ones((n, n), bool)
        mask[0, 2:] = False  # row 0 averages values 0 and 1 only
        out = dense_masked_attention(inp, mask)
        np.testing.assert_allclose(out[0, 0], inp.values[0, :2].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out[0, 1], inp.values[0].mean(axis=0), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        layout = TokenLayout(num_generation=3, num_context=5)
        spec = BandedMaskSpec(bandwidth=2)
        inp = random_inputs(rng, 8, dim=4)
        out = dense_masked_attention(inp, mask_matrix(layout, spec))
        oracle = brute_force(inp, allowed_pairs(layout, spec))
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_blocks_match_double_loop_oracle(self, rng, n, heads):
        # query rows straddling BLOCK_ROWS, with values of their own dim
        layout = TokenLayout(num_generation=n // 3, num_context=n - n // 3)
        spec = BandedMaskSpec(bandwidth=5)
        inp = AttentionInputs(rng.normal(size=(heads, n, 4)),
                              rng.normal(size=(heads, n, 4)),
                              rng.normal(size=(heads, n, 7)))
        out = dense_masked_attention(inp, mask_matrix(layout, spec))
        assert out.shape == (heads, n, 7)
        oracle = brute_force(inp, allowed_pairs(layout, spec))
        np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32, np.float32),
                                        (np.float32, np.float32, np.float64),
                                        (np.float64, np.float32, np.float32),
                                        (np.float32, np.float64, np.float32)])
    def test_mixed_dtypes_promote(self, rng, dtypes):
        layout = TokenLayout(num_generation=10, num_context=60)
        spec = BandedMaskSpec(bandwidth=3)
        inp = AttentionInputs(*(rng.normal(size=(2, 70, 4)).astype(t)
                                for t in dtypes))
        out = dense_masked_attention(inp, mask_matrix(layout, spec))
        assert out.dtype == np.result_type(*dtypes)
        oracle = brute_force(inp, allowed_pairs(layout, spec))
        assert np.abs(out - oracle).max() < 1e-5

    def test_empty_row_rejected(self, rng):
        inp = random_inputs(rng, 3)
        mask = np.ones((3, 3), bool)
        mask[1] = False
        with pytest.raises(ValueError):
            dense_masked_attention(inp, mask)

    def test_weights_row_stochastic(self, rng):
        layout = TokenLayout(num_generation=4, num_context=9)
        spec = BandedMaskSpec(bandwidth=2)
        inp = random_inputs(rng, 13)
        mask = mask_matrix(layout, spec)
        _, w = dense_masked_attention(inp, mask, return_weights=True)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        # one masked softmax over the full (heads, n, n) score matrix
        scores = inp.queries @ inp.keys.swapaxes(1, 2) / np.sqrt(inp.dim)
        scores = np.where(mask, scores, -np.inf)
        full = np.exp(scores - scores.max(axis=-1, keepdims=True))
        full /= full.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(w, full, rtol=0, atol=1e-12)
        assert not w[:, ~mask].any()

    def test_memory_of_blocked_reference(self):
        # The attend-grid check's shape: beyond its (n, n) boolean mask the
        # reference holds O(BLOCK_ROWS * n); full float score matrices
        # would be 4 n^2 bytes each.
        g, c, d = 256, 1024, 32
        n = g + c
        layout = TokenLayout(num_generation=g, num_context=c)
        spec = BandedMaskSpec(bandwidth=64)
        rng = np.random.default_rng(7)
        inp = AttentionInputs(*(rng.standard_normal((1, n, d), dtype=np.float32)
                                for _ in range(3)))
        tracemalloc.start()
        try:
            dense_masked_attention(inp, mask_matrix(layout, spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n + 2 * 2 ** 20

    def test_memory_of_mask(self):
        # no integer (n, n) index arrays: 8 n^2 bytes each
        layout = TokenLayout(num_generation=256, num_context=4096)
        n = layout.total
        tracemalloc.start()
        try:
            mask_matrix(layout, BandedMaskSpec(bandwidth=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n


class TestAttentionInputs:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_, np.complex128])
    def test_non_floating_rejected(self, rng, dtype):
        shape = (1, 10, 4)
        arrays = [rng.normal(size=shape) for _ in range(3)]
        arrays[1] = arrays[1].astype(dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            AttentionInputs(*arrays)

    def test_values_must_share_heads_and_tokens(self, rng):
        q = rng.normal(size=(2, 10, 4))
        for shape in ((1, 10, 4), (2, 9, 4), (2, 10, 0), (20, 4)):
            with pytest.raises(ValueError):
                AttentionInputs(q, q, rng.normal(size=shape))

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32, np.float64),
                                        (np.float64, np.float32, np.float32),
                                        (np.float32, np.float64, np.float32)])
    def test_mixed_dtypes_promote(self, rng, dtypes):
        layout = TokenLayout(num_generation=5, num_context=80)
        spec = BandedMaskSpec(bandwidth=3)
        inp = AttentionInputs(*(rng.normal(size=(2, 85, d)).astype(t)
                                for t, d in zip(dtypes, (4, 4, 6))))
        sparse = sparse_context_attention(inp, layout, spec)
        dense = dense_masked_attention(inp, mask_matrix(layout, spec))
        assert sparse.dtype == dense.dtype == np.float64
        assert sparse.shape == dense.shape == (2, 85, 6)
        assert np.abs(sparse - dense).max() < 1e-5


class TestSparseContextAttention:
    @pytest.mark.parametrize("g", [4, 16])
    @pytest.mark.parametrize("c", [0, 8, 64])
    @pytest.mark.parametrize("kb", [2, 8])
    def test_equivalence_float64(self, rng, g, c, kb):
        layout = TokenLayout(num_generation=g, num_context=c)
        spec = BandedMaskSpec(bandwidth=kb)
        for _ in range(5):
            inp = random_inputs(rng, g + c)
            sparse = sparse_context_attention(inp, layout, spec)
            dense = dense_masked_attention(inp, mask_matrix(layout, spec))
            np.testing.assert_allclose(sparse, dense, atol=1e-10)

    def test_equivalence_float32(self, rng):
        worst = 0.0
        for g in (4, 16):
            for c in (0, 8, 64):
                for kb in (2, 8):
                    layout = TokenLayout(num_generation=g, num_context=c)
                    spec = BandedMaskSpec(bandwidth=kb)
                    inp = random_inputs(rng, g + c, dtype=np.float32)
                    sparse = sparse_context_attention(inp, layout, spec)
                    dense, weights = dense_masked_attention(
                        inp, mask_matrix(layout, spec), return_weights=True)
                    assert dense.dtype == weights.dtype == np.float32
                    worst = max(worst, np.abs(sparse - dense).max())
        assert worst < 1e-5

    def test_no_context_is_plain_attention(self, rng):
        g = 6
        layout = TokenLayout(num_generation=g, num_context=0)
        inp = random_inputs(rng, g)
        out = sparse_context_attention(inp, layout, BandedMaskSpec(bandwidth=3))
        full = dense_masked_attention(inp, np.ones((g, g), bool))
        np.testing.assert_allclose(out, full, atol=1e-12)

    def test_wide_band_is_full_attention(self, rng):
        layout = TokenLayout(num_generation=3, num_context=6)
        inp = random_inputs(rng, 9)
        out = sparse_context_attention(inp, layout, BandedMaskSpec(bandwidth=5))
        full = dense_masked_attention(inp, np.ones((9, 9), bool))
        np.testing.assert_allclose(out, full, atol=1e-12)

    def test_pure_context_no_generation(self, rng):
        layout = TokenLayout(num_generation=0, num_context=7)
        spec = BandedMaskSpec(bandwidth=2)
        inp = random_inputs(rng, 7)
        sparse = sparse_context_attention(inp, layout, spec)
        dense = dense_masked_attention(inp, mask_matrix(layout, spec))
        np.testing.assert_allclose(sparse, dense, atol=1e-10)


class TestSparseBlockBoundaries:
    """Layouts whose G and C straddle multiples of ``BLOCK_ROWS`` (64), and
    whose C straddles multiples of ``CHUNK_ROWS`` (1024), with band windows
    clipped at both context ends or wider than the context."""

    GS = (0, 1, 70, 130)
    CS = (1, 63, 64, 65, 200)

    @staticmethod
    def bandwidths(c):
        return (1, 64, 100, c)

    @pytest.mark.parametrize("g", GS)
    @pytest.mark.parametrize("c", CS)
    def test_equivalence_float64(self, rng, g, c):
        layout = TokenLayout(num_generation=g, num_context=c)
        inp = random_inputs(rng, g + c, dim=8)
        for kb in self.bandwidths(c):
            spec = BandedMaskSpec(bandwidth=kb)
            sparse = sparse_context_attention(inp, layout, spec)
            dense = dense_masked_attention(inp, mask_matrix(layout, spec))
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)

    def test_equivalence_float32(self, rng):
        worst = 0.0
        for g in self.GS:
            for c in self.CS:
                layout = TokenLayout(num_generation=g, num_context=c)
                inp = random_inputs(rng, g + c, dim=8, dtype=np.float32)
                for kb in self.bandwidths(c):
                    spec = BandedMaskSpec(bandwidth=kb)
                    sparse = sparse_context_attention(inp, layout, spec)
                    assert sparse.dtype == np.float32
                    dense = dense_masked_attention(inp, mask_matrix(layout, spec))
                    worst = max(worst, np.abs(sparse - dense).max())
        assert worst < 1e-5

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("g", [0, 70])
    @pytest.mark.parametrize("c", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   2 * CHUNK_ROWS + BLOCK_ROWS + 1])
    def test_chunk_boundaries(self, rng, g, c, heads):
        layout = TokenLayout(num_generation=g, num_context=c)
        inp = random_inputs(rng, g + c, dim=8, heads=heads)
        inp32 = AttentionInputs(*(a.astype(np.float32)
                                  for a in (inp.queries, inp.keys, inp.values)))
        for kb in self.bandwidths(c):
            spec = BandedMaskSpec(bandwidth=kb)
            mask = mask_matrix(layout, spec)
            sparse = sparse_context_attention(inp, layout, spec)
            dense = dense_masked_attention(inp, mask)
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)
            sparse = sparse_context_attention(inp32, layout, spec)
            assert sparse.dtype == np.float32
            assert np.abs(sparse - dense_masked_attention(inp32, mask)).max() < 1e-5

    def test_empty_layout(self, rng):
        inp = random_inputs(rng, 0)
        out = sparse_context_attention(inp, TokenLayout(0, 0), BandedMaskSpec(1))
        assert out.shape == inp.values.shape


class TestSparseAtScale:
    """Contexts of many blocks: interior windows, windows clipped at both
    context ends, and bands wider than a block."""

    @pytest.mark.parametrize("seed", [1, 11])
    def test_attend_grid_gate(self, seed):
        # The benchmark's correctness check: its C=1024 case, seeded the same
        # way, against the dense reference within its 1e-5 gate.
        g, c, d = 256, 1024, 32
        rng = np.random.default_rng(np.random.SeedSequence((seed, c)))
        inp = AttentionInputs(*(rng.standard_normal((1, g + c, d), dtype=np.float32)
                                for _ in range(3)))
        layout = TokenLayout(num_generation=g, num_context=c)
        spec = BandedMaskSpec(bandwidth=64)
        sparse = sparse_context_attention(inp, layout, spec)
        dense = dense_masked_attention(inp, mask_matrix(layout, spec))
        assert sparse.dtype == np.float32
        assert np.abs(sparse - dense).max() <= 1e-5

    @pytest.mark.parametrize("g", [0, 70])
    def test_equivalence_float64(self, rng, g):
        c = 1000
        layout = TokenLayout(num_generation=g, num_context=c)
        inp = random_inputs(rng, g + c, dim=8, heads=3)
        for kb in (1, 63, 64, 65, 300):
            spec = BandedMaskSpec(bandwidth=kb)
            sparse = sparse_context_attention(inp, layout, spec)
            dense = dense_masked_attention(inp, mask_matrix(layout, spec))
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)


class TestAttentionPeakBytes:
    @pytest.mark.parametrize("g", [0, 256])
    def test_tracemalloc_peak_within_bound(self, g):
        # The attend-grid shape at its largest context (K = tokens per frame
        # at R=64, patch 8); a (C, 2K+1, d) key copy alone would be 270 MB.
        c, d = 16384, 32
        layout = TokenLayout(num_generation=g, num_context=c)
        spec = BandedMaskSpec(bandwidth=64)
        rng = np.random.default_rng(7)
        inp = AttentionInputs(*(rng.standard_normal((1, g + c, d), dtype=np.float32)
                                for _ in range(3)))
        tracemalloc.start()
        try:
            sparse_context_attention(inp, layout, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= attention_peak_bytes(layout, spec, d, itemsize=4)

    @pytest.mark.parametrize("g", [0, 256])
    def test_bound_is_tight(self, g):
        c, d = 16384, 32
        layout = TokenLayout(num_generation=g, num_context=c)
        spec = BandedMaskSpec(bandwidth=64)
        rng = np.random.default_rng(7)
        inp = AttentionInputs(*(rng.standard_normal((1, g + c, d), dtype=np.float32)
                                for _ in range(3)))
        tracemalloc.start()
        try:
            sparse_context_attention(inp, layout, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = attention_peak_bytes(layout, spec, d, itemsize=4)
        assert peak <= bound <= 1.25 * peak

    def test_linear_in_context(self):
        spec = BandedMaskSpec(bandwidth=64)
        b1, b2 = (attention_peak_bytes(TokenLayout(256, c), spec, 32, 4)
                  for c in (1 << 16, 1 << 17))
        assert 1.9 < b2 / b1 < 2.0
        # O(BLOCK_ROWS * (G+C)): a generation block's scores dominate
        n = 256 + (1 << 17)
        assert b2 < 2 * 4 * BLOCK_ROWS * n


class TestAttentionFlops:
    def test_no_context(self):
        layout = TokenLayout(num_generation=8, num_context=0)
        assert attention_flops(layout, BandedMaskSpec(bandwidth=4), dim=2) == \
            2 * 2 * 64

    def test_closed_form_small_case(self):
        layout = TokenLayout(num_generation=4, num_context=6)
        spec = BandedMaskSpec(bandwidth=1)
        assert attention_flops(layout, spec, dim=1) == 164
        # exact allowed-pair accounting stays at or below the closed form
        exact = 2 * 1 * int(mask_matrix(layout, spec).sum())
        assert exact == 160 <= 164

    def test_doubling_context_approaches_factor_two(self):
        spec = BandedMaskSpec(bandwidth=4)
        d = 8
        c = 4096
        f1 = attention_flops(TokenLayout(num_generation=16, num_context=c), spec, d)
        f2 = attention_flops(TokenLayout(num_generation=16, num_context=2 * c), spec, d)
        assert 1.9 < f2 / f1 < 2.0

    def test_linear_fit_sparse_vs_quadratic_dense(self):
        g, kb, d = 64, 16, 32
        cs = np.array([64, 128, 256, 512, 1024, 2048, 4096], dtype=float)
        spec = BandedMaskSpec(bandwidth=kb)
        sparse = np.array([attention_flops(
            TokenLayout(num_generation=g, num_context=int(c)), spec, d) for c in cs])
        dense = np.array([dense_attention_flops(
            TokenLayout(num_generation=g, num_context=int(c)), d) for c in cs])

        def linear_r2(y):
            a = np.vstack([cs, np.ones_like(cs)]).T
            coef, *_ = np.linalg.lstsq(a, y, rcond=None)
            res = y - a @ coef
            return 1.0 - (res ** 2).sum() / ((y - y.mean()) ** 2).sum()

        assert linear_r2(sparse) >= 0.999
        assert linear_r2(dense) < 0.999


class TestLayoutHelpers:
    def test_tokens_per_frame(self):
        assert tokens_per_frame(64, 8) == 64
        with pytest.raises(ValueError):
            tokens_per_frame(60, 8)

    def test_step_tokens_counted_per_source(self):
        # the first step's bundle: no history, all six faces curr-cond, and
        # no fragments on an unobserved video; 4 frames of 4 tokens per face
        from cubegen.geometry import CubemapVideo
        from cubegen.pipeline import simulate_contexts
        from cubegen.planner import plan_order
        cond = CubemapVideo((8, 6, 16, 16, 1), lambda t, out: out.fill(0.0))
        log = simulate_contexts(cond, np.zeros((6, 8)), plan_order(np.zeros((6, 2))),
                                history_capacity=0, frag_length=4,
                                frag_threshold=0.5, patch_size=8)
        assert (log[0]["face"], log[0]["s"], log[0]["e"]) == ("F", 0, 4)
        assert log[0]["tokens"] == {"generation": 16, "hist": 0, "curr-gen": 0,
                                    "curr-cond": 96, "fut": 0}
