"""Attention tests.  The dense masked path is checked against a scalar
double-loop oracle; the sparse path is checked against the dense path."""

import tracemalloc

import numpy as np
import pytest

from cubegen.attention import (
    BLOCK_ROWS,
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    attention_flops,
    attention_peak_bytes,
    build_context_mask,
    dense_attention_flops,
    dense_masked_attention,
    layout_from_bundle,
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


def brute_force(inp, allowed):
    """Independent scalar re-implementation of masked attention."""
    h, n, d = inp.queries.shape
    out = np.zeros((h, n, d))
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
    def test_enumerated_small_case(self):
        layout = TokenLayout(num_generation=2, num_context=3)
        allowed = build_context_mask(layout, BandedMaskSpec(bandwidth=1))
        ctx_pairs = {(q, k) for q in (2, 3, 4) for k in (2, 3, 4) if allowed(q, k)}
        assert ctx_pairs == {(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
        for q in (0, 1):
            assert all(allowed(q, k) for k in range(5))
        for q in (2, 3, 4):
            assert all(allowed(q, k) for k in (0, 1))

    def test_no_context_all_true(self):
        layout = TokenLayout(num_generation=3, num_context=0)
        m = mask_matrix(layout, BandedMaskSpec(bandwidth=2))
        assert m.shape == (3, 3) and m.all()

    def test_wide_band_equals_full(self):
        layout = TokenLayout(num_generation=2, num_context=5)
        m = mask_matrix(layout, BandedMaskSpec(bandwidth=4))
        assert m.all()

    def test_matrix_matches_predicate(self, rng):
        layout = TokenLayout(num_generation=3, num_context=7)
        spec = BandedMaskSpec(bandwidth=2)
        allowed = build_context_mask(layout, spec)
        m = mask_matrix(layout, spec)
        for q in range(10):
            for k in range(10):
                assert m[q, k] == allowed(q, k)

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
        oracle = brute_force(inp, build_context_mask(layout, spec))
        np.testing.assert_allclose(out, oracle, atol=1e-12)

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
        _, w = dense_masked_attention(inp, mask_matrix(layout, spec),
                                      return_weights=True)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


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
                    dense = dense_masked_attention(inp, mask_matrix(layout, spec))
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
    """Layouts whose G and C straddle multiples of ``BLOCK_ROWS`` (64), with
    band windows clipped at both context ends or wider than the context."""

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

    def test_empty_layout(self, rng):
        inp = random_inputs(rng, 0)
        out = sparse_context_attention(inp, TokenLayout(0, 0), BandedMaskSpec(1))
        assert out.shape == inp.values.shape


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

    def test_layout_from_bundle(self):
        from cubegen.context import ContextPool, WindowState, assemble_context
        from cubegen.faces import FACES
        cond = {f: np.zeros((8, 16, 16, 1)) for f in FACES}
        state = WindowState(window=1, start=0, end=4)
        bundle = assemble_context(ContextPool(capacity=0), state, "F", [], cond)
        layout = layout_from_bundle(bundle, generation_frames=4, resolution=16,
                                    patch_size=8)
        assert layout.num_generation == 4 * 4
        assert layout.num_context == 6 * 4 * 4
        assert len(layout.segments) == 6
        assert layout.segments[0] == (0, 16, "curr-cond:F")

    def test_segment_tiling_enforced(self):
        with pytest.raises(ValueError):
            TokenLayout(num_generation=1, num_context=8,
                        segments=((0, 4, "a"), (5, 3, "b")))
