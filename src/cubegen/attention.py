"""Generation/context token layout, banded context mask, and attention paths.

The G generation tokens attend everywhere.  The C context tokens attend to
all generation tokens but only to a diagonal band of half-width K among
themselves, which keeps context self-attention linear in C.  A dense masked
reference and a sliding-chunk sparse path are both provided; the sparse path
takes query rows in blocks of ``BLOCK_ROWS`` and never materializes a
(G+C)^2 score matrix.

Reduction order: each block's scores come from one BLAS matmul and are
reduced with numpy sums after max-subtraction; outputs are deterministic for
a fixed BLAS, and tests compare with tolerances rather than bit equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "TokenLayout",
    "BandedMaskSpec",
    "AttentionInputs",
    "build_context_mask",
    "mask_matrix",
    "dense_masked_attention",
    "sparse_context_attention",
    "attention_flops",
    "attention_peak_bytes",
    "dense_attention_flops",
    "layout_from_bundle",
    "tokens_per_frame",
]

# Query rows per block of the sparse path.  64 rows keep each block's
# matmuls in BLAS's efficient range while its scores stay O(64 * (G+C)).
BLOCK_ROWS = 64


@dataclass(frozen=True)
class TokenLayout:
    """Token partition: G generation tokens then C context tokens.

    ``segments`` optionally records (offset, length, tag) provenance blocks
    that partition the C context tokens; offsets are context-local from 0.
    """

    num_generation: int
    num_context: int
    segments: tuple = ()

    def __post_init__(self):
        if self.num_generation < 0 or self.num_context < 0:
            raise ValueError("token counts must be >= 0")
        if self.segments:
            off = 0
            for seg_off, seg_len, _ in self.segments:
                if seg_off != off or seg_len < 0:
                    raise ValueError("segments must tile the context contiguously")
                off += seg_len
            if off != self.num_context:
                raise ValueError(
                    f"segments cover {off} tokens, context has {self.num_context}")

    @property
    def total(self) -> int:
        return self.num_generation + self.num_context


@dataclass(frozen=True)
class BandedMaskSpec:
    """Diagonal band half-width (in tokens) for context self-attention."""

    bandwidth: int

    def __post_init__(self):
        if self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")


@dataclass(frozen=True)
class AttentionInputs:
    """Per-head queries/keys/values of shape (heads, G+C, dim)."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q, k, v = (np.asarray(a) for a in (self.queries, self.keys, self.values))
        if q.ndim != 3 or q.shape != k.shape or q.shape != v.shape:
            raise ValueError("queries/keys/values must share shape (heads, tokens, dim)")
        if q.shape[2] < 1:
            raise ValueError("head dim must be >= 1")
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "keys", k)
        object.__setattr__(self, "values", v)

    @property
    def num_heads(self) -> int:
        return self.queries.shape[0]

    @property
    def num_tokens(self) -> int:
        return self.queries.shape[1]

    @property
    def dim(self) -> int:
        return self.queries.shape[2]


def build_context_mask(layout: TokenLayout, spec: BandedMaskSpec):
    """Return allowed(q, k) for global token indices.

    Generation tokens live at [0, G), context at [G, G+C).  Generation
    queries read every key (full self-attention plus in-context conditioning);
    context queries read all generation keys and context keys within the band
    |q - k| <= K.
    """
    g = layout.num_generation
    k_band = spec.bandwidth

    # The whole attention pattern lives in this one rule; restricting
    # generation->context reads (the alternative interpretation) would be a
    # one-line change here plus the mirrored key window in the sparse path.
    def allowed(q: int, k: int) -> bool:
        if q < g or k < g:
            return True
        return abs(q - k) <= k_band

    return allowed


def mask_matrix(layout: TokenLayout, spec: BandedMaskSpec) -> np.ndarray:
    """Materialized boolean mask; reference/debug use only (O((G+C)^2))."""
    n, g = layout.total, layout.num_generation
    idx = np.arange(n)
    ctx_q = (idx >= g)[:, None]
    ctx_k = (idx >= g)[None, :]
    band = np.abs(idx[:, None] - idx[None, :]) <= spec.bandwidth
    return ~(ctx_q & ctx_k) | band


def _softmax_rows(scores: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with max-subtraction; invalid entries contribute exactly 0."""
    if valid is not None:
        scores = np.where(valid, scores, -np.inf)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    if valid is not None:
        e = np.where(valid, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def dense_masked_attention(inp: AttentionInputs, mask: np.ndarray,
                           return_weights: bool = False):
    """Reference path: full score matrix, masked softmax, value mixing.

    ``mask`` is a boolean (tokens, tokens) matrix; every query row must keep
    at least one allowed key.
    """
    n = inp.num_tokens
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n, n):
        raise ValueError(f"mask must be ({n}, {n}), got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("a query row has zero allowed keys")
    scale = 1.0 / np.sqrt(inp.dim)
    scores = np.einsum("hqd,hkd->hqk", inp.queries, inp.keys) * scale
    weights = _softmax_rows(scores, valid=mask[None, :, :])
    out = np.einsum("hqk,hkd->hqd", weights, inp.values)
    if return_weights:
        return out, weights
    return out


def sparse_context_attention(inp: AttentionInputs, layout: TokenLayout,
                             spec: BandedMaskSpec) -> np.ndarray:
    """Sliding-chunk path, numerically equal to the dense reference.

    Query rows are taken in blocks of ``BLOCK_ROWS``.  A generation block
    scores against all G+C keys; a context block scores against the G
    generation keys plus the contiguous context window [i0-K, i1+K), with
    pairs outside the band |q-k| <= K set to -inf.  Each block is one scores
    matmul, an in-place max-subtracted softmax and one values matmul, so no
    temporary exceeds (heads, BLOCK_ROWS, G+C) and nothing is quadratic in C.
    """
    g, n = layout.num_generation, layout.total
    if n != inp.num_tokens:
        raise ValueError(
            f"layout covers {n} tokens, inputs have {inp.num_tokens}")
    kb = spec.bandwidth
    scale = 1.0 / math.sqrt(inp.dim)
    idx = np.arange(n)
    out = np.empty_like(inp.values)
    for i0 in chain(range(0, g, BLOCK_ROWS), range(g, n, BLOCK_ROWS)):
        i1 = min(i0 + BLOCK_ROWS, g if i0 < g else n)
        if i0 < g:
            keys, banned = slice(None), False     # generation rows read every key
        else:
            keys = np.concatenate((idx[:g], idx[max(g, i0 - kb):min(n, i1 + kb)]))
            banned = (keys >= g) & (np.abs(idx[i0:i1, None] - keys) > kb)
        scores = (inp.queries[:, i0:i1] * scale) @ inp.keys[:, keys].swapaxes(1, 2)
        np.copyto(scores, -np.inf, where=banned)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        out[:, i0:i1] = ((scores @ inp.values[:, keys])
                         / scores.sum(axis=-1, keepdims=True))
        del scores  # never hold two blocks' scores at once
    return out


def attention_flops(layout: TokenLayout, spec: BandedMaskSpec, dim: int) -> int:
    """Multiply-accumulate model of the sparse path's score computation.

    Closed form: 2*dim * (G^2 + 2*G*C + C*min(2K+1, C)).  Every context row
    is charged a full band of min(2K+1, C) keys; rows near the context edges
    have slightly fewer allowed keys, so this is a tight upper bound on the
    exact allowed-pair count.  Value aggregation costs the same again.  The
    model counts allowed pairs only: the block path also computes, then
    masks out, the scores of a context block's window that fall outside each
    row's band (up to ``BLOCK_ROWS - 1`` extra keys per context row).
    """
    g, c = layout.num_generation, layout.num_context
    band = min(2 * spec.bandwidth + 1, c)
    return 2 * dim * (g * g + 2 * g * c + c * band)


def attention_peak_bytes(layout: TokenLayout, spec: BandedMaskSpec, dim: int,
                         itemsize: int) -> int:
    """Upper bound on the bytes one head of the sparse path allocates.

    Sum of: the (G+C, dim) output, the int64 token index, one block's scores
    (``BLOCK_ROWS`` rows by all G+C keys when G > 0, else by one context
    window), the boolean band mask of one context block with its three
    temporaries (two int64, one bool), that block's gathered keys and
    values, its three (BLOCK_ROWS, dim) query/output temporaries, and 8 KiB
    for the Python objects and array headers of one block.  This is
    O(BLOCK_ROWS * (G+C)); ``h`` heads allocate at most ``h`` times as much.
    """
    g, n = layout.num_generation, layout.total
    k_ctx = g + min(layout.num_context, BLOCK_ROWS + 2 * spec.bandwidth)
    k_max = n if g else k_ctx
    return (itemsize * dim * n + 8 * n + itemsize * BLOCK_ROWS * k_max
            + 18 * BLOCK_ROWS * k_ctx + 2 * itemsize * dim * k_ctx
            + 3 * itemsize * BLOCK_ROWS * dim + 8192)


def dense_attention_flops(layout: TokenLayout, dim: int) -> int:
    """Same accounting for full (G+C)^2 attention."""
    n = layout.total
    return 2 * dim * n * n


def tokens_per_frame(resolution: int, patch_size: int) -> int:
    """Spatial tokens of one face frame; the default band width K."""
    if resolution % patch_size:
        raise ValueError(
            f"patch size {patch_size} must divide face resolution {resolution}")
    return (resolution // patch_size) ** 2


def layout_from_bundle(bundle, generation_frames: int, resolution: int,
                       patch_size: int,
                       generation_resolution: int | None = None) -> TokenLayout:
    """Token layout for a context bundle: one segment per token source."""
    per_frame = tokens_per_frame(resolution, patch_size)
    gen_res = resolution if generation_resolution is None else generation_resolution
    g = generation_frames * tokens_per_frame(gen_res, patch_size)
    segments = []
    offset = 0
    for src in bundle.sources:
        length = (src.end - src.start) * per_frame
        segments.append((offset, length, f"{src.kind}:{src.face}"))
        offset += length
    return TokenLayout(num_generation=g, num_context=offset,
                       segments=tuple(segments))
