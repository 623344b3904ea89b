"""Generation/context token layout, banded context mask, and attention paths.

The G generation tokens attend everywhere.  The C context tokens attend to
all generation tokens but only to a diagonal band of half-width K among
themselves, which keeps context self-attention linear in C.  A dense masked
reference and a sliding-chunk sparse path are both provided; the sparse path
takes query rows in blocks of ``BLOCK_ROWS`` and never materializes a
(G+C)^2 score matrix.

Reduction order: a generation block's scores come from one BLAS matmul; a
context block's come from two, over the generation keys and the band window,
written side by side into one score buffer.  Each row is reduced with numpy
sums after max-subtraction, and a context block's values are the sum of two
matmuls, generation keys first.  Outputs are deterministic for a fixed BLAS,
and tests compare with tolerances rather than bit equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TokenLayout",
    "BandedMaskSpec",
    "AttentionInputs",
    "mask_matrix",
    "dense_masked_attention",
    "sparse_context_attention",
    "attention_flops",
    "attention_peak_bytes",
    "dense_attention_flops",
    "tokens_per_frame",
]

# Query rows per block of the sparse path.  64 rows keep each block's
# matmuls in BLAS's efficient range while its scores stay O(64 * (G+C)).
BLOCK_ROWS = 64


@dataclass(frozen=True)
class TokenLayout:
    """Token partition: G generation tokens then C context tokens."""

    num_generation: int
    num_context: int

    def __post_init__(self):
        if self.num_generation < 0 or self.num_context < 0:
            raise ValueError("token counts must be >= 0")

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


def mask_matrix(layout: TokenLayout, spec: BandedMaskSpec) -> np.ndarray:
    """The dense (G+C, G+C) boolean mask; reference use only (O((G+C)^2)).

    Generation tokens are [0, G), context tokens [G, G+C).  Generation
    queries read every key; context queries read every generation key and
    the context keys within the band |q - k| <= K.
    """
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
    scale = 1.0 / math.sqrt(inp.dim)  # a Python float keeps the inputs' dtype
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
    scores against all G+C keys.  A context block [i0, i1) scores against two
    contiguous key slices, the generation keys [0, G) and its band window
    [w0, w1) = [max(G, i0-K), min(G+C, i1+K)), written side by side into one
    score buffer allocated once per call.  Pairs outside the band |q-k| <= K
    are set to -inf from one (BLOCK_ROWS, BLOCK_ROWS+2K) band pattern, also
    built once: the block takes its columns from w0 - (i0-K), which covers
    windows clipped at either context end.  Each block is then softmaxed in
    place and finished with one values matmul per key slice, so no temporary
    exceeds (heads, BLOCK_ROWS, G+C) and nothing is quadratic in C.
    """
    g, n = layout.num_generation, layout.total
    if n != inp.num_tokens:
        raise ValueError(
            f"layout covers {n} tokens, inputs have {inp.num_tokens}")
    scale = 1.0 / math.sqrt(inp.dim)
    q, k, v = inp.queries, inp.keys, inp.values
    out = np.empty_like(v)
    for i0 in range(0, g, BLOCK_ROWS):  # generation rows read every key
        i1 = min(i0 + BLOCK_ROWS, g)
        scores = (q[:, i0:i1] * scale) @ k.swapaxes(1, 2)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        out[:, i0:i1] = (scores @ v) / scores.sum(axis=-1, keepdims=True)
        del scores  # never hold two blocks' scores at once
    if n == g:
        return out
    # A band wider than the context bans nothing more than one of width C.
    kb = min(spec.bandwidth, n - g)
    banned = _band_pattern(kb)
    buf = np.empty(inp.num_heads * BLOCK_ROWS * (g + min(n - g, BLOCK_ROWS + 2 * kb)),
                   dtype=np.result_type(q, k, scale))
    k_gen, v_gen = k[:, :g].swapaxes(1, 2), v[:, :g]
    for i0 in range(g, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        w0, w1 = max(g, i0 - kb), min(n, i1 + kb)
        off = w0 - (i0 - kb)
        shape = (inp.num_heads, i1 - i0, g + w1 - w0)
        # A contiguous view, so the in-place softmax below needs no copies.
        scores = buf[:math.prod(shape)].reshape(shape)
        rows = q[:, i0:i1] * scale
        np.matmul(rows, k_gen, out=scores[:, :, :g])
        np.matmul(rows, k[:, w0:w1].swapaxes(1, 2), out=scores[:, :, g:])
        np.copyto(scores[:, :, g:], -np.inf,
                  where=banned[:i1 - i0, off:off + w1 - w0])
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        mixed = scores[:, :, :g] @ v_gen
        mixed += scores[:, :, g:] @ v[:, w0:w1]
        mixed /= scores.sum(axis=-1, keepdims=True)
        out[:, i0:i1] = mixed
    return out


def _band_pattern(kb: int) -> np.ndarray:
    """banned[r, j]: context row i0+r may not read key i0-K+j, |r-j+K| > K.

    Built from two triangles of booleans, so no index arithmetic is
    allocated: row r reads exactly the columns r <= j <= r + 2K.
    """
    width = BLOCK_ROWS + 2 * kb
    banned = np.tri(BLOCK_ROWS, width, -1, dtype=bool)
    banned |= ~np.tri(BLOCK_ROWS, width, 2 * kb, dtype=bool)
    return banned


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

    Sum of: the (G+C, dim) output; one generation block's scores
    (``BLOCK_ROWS`` rows by all G+C keys, when G > 0); the context score
    buffer (``BLOCK_ROWS`` rows by G + min(C, BLOCK_ROWS+2K) keys) and the
    (BLOCK_ROWS, BLOCK_ROWS+2K) boolean band pattern, when C > 0, with K at
    most C; a block's three (BLOCK_ROWS, dim) query/output temporaries;
    numpy's ufunc buffer of ``np.getbufsize()`` items, which the broadcast
    max-subtraction fills; and 8 KiB for the Python objects and array headers
    of one block.  This is O(BLOCK_ROWS * (G+C)); ``h`` heads allocate at
    most ``h`` times as much.
    """
    g, c, n = layout.num_generation, layout.num_context, layout.total
    total = itemsize * (dim * n + 3 * BLOCK_ROWS * dim + np.getbufsize()) + 8192
    if g:
        total += itemsize * BLOCK_ROWS * n
    if c:
        width = BLOCK_ROWS + 2 * min(spec.bandwidth, c)
        total += itemsize * BLOCK_ROWS * (g + min(c, width)) + BLOCK_ROWS * width
    return total


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

