"""Generation/context token layout, banded context mask, and attention paths.

The G generation tokens attend everywhere.  The C context tokens attend to
all generation tokens but only to a diagonal band of half-width K among
themselves, which keeps context self-attention linear in C.  A dense masked
reference and a sliding-chunk sparse path are both provided.  Both take
query rows in blocks of ``BLOCK_ROWS`` (the sparse path's context rows in
chunks of ``CHUNK_ROWS``), and neither materializes a (G+C)^2 score
matrix; only the reference's boolean mask is (G+C)^2.

Reduction order: a block of the dense reference, like a generation block
of the sparse path, gets its scores against all keys from one BLAS matmul
and its values from one more.  A context chunk's scores against the
generation keys come from one matmul, and each of its ``BLOCK_ROWS``-row
blocks adds one over its band window, written beside them in one score
buffer.  Each row is reduced with numpy sums after max-subtraction over the
whole buffer width; masked pairs, and columns past a clipped window, are
-inf and so add exact zeros.  A context row's values are the sum of two
matmuls, generation keys first: one per chunk, then one per block.  Outputs
are deterministic for a fixed BLAS; the two paths round differently, so
tests compare them with tolerances rather than bit equality.
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

# Query rows per block of either path.  64 rows keep each block's
# matmuls in BLAS's efficient range while its scores stay O(64 * (G+C)).
BLOCK_ROWS = 64
# Context rows per chunk: one generation-key matmul and one softmax pass
# cover 16 blocks, whose band windows keep their own matmuls.
CHUNK_ROWS = 16 * BLOCK_ROWS


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
    """Per-head queries and keys of shape (heads, G+C, dim), and values of
    shape (heads, G+C, dim_v), all floating point."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q, k, v = (np.asarray(a) for a in (self.queries, self.keys, self.values))
        if q.ndim != 3 or q.shape != k.shape or v.ndim != 3 or v.shape[:2] != q.shape[:2]:
            raise ValueError("queries/keys must share shape (heads, tokens, dim) "
                             "and values shape (heads, tokens, dim_v)")
        if q.shape[2] < 1 or v.shape[2] < 1:
            raise ValueError("head dims must be >= 1")
        for a in (q, k, v):
            if not np.issubdtype(a.dtype, np.floating):
                raise ValueError(f"attention inputs must be floating point, got {a.dtype}")
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
    """The dense (G+C, G+C) boolean mask; reference use only.

    Generation tokens are [0, G), context tokens [G, G+C).  Generation
    queries read every key; context queries read every generation key and
    the context keys within the band |q - k| <= K.  Memory: the (G+C)^2
    bytes of the mask plus, while it is built, one (C, C) boolean
    triangle; no integer index matrix is made.
    """
    n, g, kb = layout.total, layout.num_generation, spec.bandwidth
    mask = np.ones((n, n), dtype=bool)
    ctx = mask[g:, g:]
    # k - q <= K minus its subset k - q < -K: XOR needs no third triangle.
    ctx[...] = np.tri(n - g, n - g, kb, dtype=bool)
    ctx ^= np.tri(n - g, n - g, -kb - 1, dtype=bool)
    return mask


def dense_masked_attention(inp: AttentionInputs, mask: np.ndarray,
                           return_weights: bool = False):
    """Reference path: masked softmax over every key, then value mixing.

    ``mask`` is a boolean (tokens, tokens) matrix; every query row must keep
    at least one allowed key.  Query rows are taken in blocks of
    ``BLOCK_ROWS``: one matmul scores a block against all keys, masked
    pairs are set to -inf and add exact zeros to the row's softmax.  Beyond
    the mask and the output this holds O(heads * BLOCK_ROWS * tokens);
    ``return_weights`` also allocates the (heads, tokens, tokens) weights.
    """
    n = inp.num_tokens
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n, n):
        raise ValueError(f"mask must be ({n}, {n}), got {mask.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("a query row has zero allowed keys")
    scale = 1.0 / math.sqrt(inp.dim)  # a Python float keeps the inputs' dtype
    q, k, v = inp.queries, inp.keys, inp.values
    out = np.empty(v.shape, dtype=np.result_type(q, k, v))
    weights = (np.empty((inp.num_heads, n, n), dtype=np.result_type(q, k))
               if return_weights else None)
    for i0 in range(0, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        scores = q[:, i0:i1] @ k.swapaxes(1, 2)
        scores *= scale
        np.copyto(scores, -np.inf, where=~mask[i0:i1])
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        sums = scores.sum(axis=-1, keepdims=True)
        np.matmul(scores, v, out=out[:, i0:i1])
        out[:, i0:i1] /= sums
        if return_weights:
            np.divide(scores, sums, out=weights[:, i0:i1])
        del scores  # never hold two blocks' scores at once
    return (out, weights) if return_weights else out


def sparse_context_attention(inp: AttentionInputs, layout: TokenLayout,
                             spec: BandedMaskSpec) -> np.ndarray:
    """Sliding-chunk path, numerically equal to the dense reference.

    Generation query rows are taken in blocks of ``BLOCK_ROWS``, each
    scored against all G+C keys.  Context rows are taken in chunks of
    ``CHUNK_ROWS``, scored in one score buffer allocated once per call: the
    chunk's scores against the generation keys [0, G) come from one matmul,
    and each ``BLOCK_ROWS``-row block [i0, i1) of the chunk writes its band
    window [w0, w1) = [max(G, i0-K), min(G+C, i1+K)) beside them.  Pairs
    outside the band |q-k| <= K are set to -inf from one (BLOCK_ROWS,
    BLOCK_ROWS+2K) band pattern, also built once: the block takes its
    columns from w0 - (i0-K), which covers windows clipped at either context
    end, and the buffer's columns past a clipped window are -inf too.  Each
    chunk is then softmaxed in place and finished with one generation-values
    matmul and one band-values matmul per block, so no temporary exceeds
    (heads, CHUNK_ROWS, G+C) and nothing is quadratic in C.
    The output has the values' dim and the dtype all three inputs promote to.
    """
    g, n = layout.num_generation, layout.total
    if n != inp.num_tokens:
        raise ValueError(
            f"layout covers {n} tokens, inputs have {inp.num_tokens}")
    scale = 1.0 / math.sqrt(inp.dim)
    q, k, v = inp.queries, inp.keys, inp.values
    out = np.empty(v.shape, dtype=np.result_type(q, k, v))
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
    width = min(n - g, BLOCK_ROWS + 2 * kb)
    buf = np.empty(inp.num_heads * min(n - g, CHUNK_ROWS) * (g + width),
                   dtype=np.result_type(q, k, scale))
    k_gen, v_gen = k[:, :g].swapaxes(1, 2), v[:, :g]
    for c0 in range(g, n, CHUNK_ROWS):
        c1 = min(c0 + CHUNK_ROWS, n)
        shape = (inp.num_heads, c1 - c0, g + width)
        # A contiguous view, so the in-place softmax below needs no copies.
        scores = buf[:math.prod(shape)].reshape(shape)
        rows = q[:, c0:c1] * scale
        np.matmul(rows, k_gen, out=scores[:, :, :g])
        windows = []
        for r0 in range(0, c1 - c0, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, c1 - c0)
            w0, w1 = max(g, c0 + r0 - kb), min(n, c0 + r1 + kb)
            off = w0 - (c0 + r0 - kb)
            band = scores[:, r0:r1, g:g + w1 - w0]
            np.matmul(rows[:, r0:r1], k[:, w0:w1].swapaxes(1, 2), out=band)
            np.copyto(band, -np.inf, where=banned[:r1 - r0, off:off + w1 - w0])
            scores[:, r0:r1, g + w1 - w0:] = -np.inf  # past a clipped window
            windows.append((r0, r1, w0, w1))
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        mixed = out[:, c0:c1]
        np.matmul(scores[:, :, :g], v_gen, out=mixed)
        for r0, r1, w0, w1 in windows:
            mixed[:, r0:r1] += scores[:, r0:r1, g:g + w1 - w0] @ v[:, w0:w1]
        mixed /= scores.sum(axis=-1, keepdims=True)
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
    Values are assumed to have the keys' dim.
    """
    g, c = layout.num_generation, layout.num_context
    band = min(2 * spec.bandwidth + 1, c)
    return 2 * dim * (g * g + 2 * g * c + c * band)


def attention_peak_bytes(layout: TokenLayout, spec: BandedMaskSpec, dim: int,
                         itemsize: int) -> int:
    """Upper bound on the bytes one head of the sparse path allocates.

    The (G+C, dim) output; numpy's ufunc buffer of ``np.getbufsize()``
    items, which the broadcast max-subtraction fills; 8 KiB for the Python
    objects and array headers of one block or chunk; and the larger of the
    two phases, which never coexist.  The generation phase, when G > 0,
    holds one block's scores (``BLOCK_ROWS`` rows by all G+C keys) and its
    three (BLOCK_ROWS, dim) query/output temporaries.  The context phase,
    when C > 0, holds the chunk score buffer (R = min(C, ``CHUNK_ROWS``)
    rows by G + min(C, BLOCK_ROWS+2K) keys), two chunks' (R, dim) scaled
    queries (the next chunk's are made before the last's are freed), the
    chunk's (R, 1) row maxima, and the (BLOCK_ROWS, BLOCK_ROWS+2K) boolean
    band pattern, with K at most C.  This is O(BLOCK_ROWS * (G+C)); ``h``
    heads allocate at most ``h`` times as much.  Values are assumed to
    have the keys' dim.
    """
    g, c, n = layout.num_generation, layout.num_context, layout.total
    phase = itemsize * BLOCK_ROWS * (n + 3 * dim) if g else 0
    if c:
        rows, width = min(c, CHUNK_ROWS), BLOCK_ROWS + 2 * min(spec.bandwidth, c)
        phase = max(phase, itemsize * rows * (g + min(c, width) + 2 * dim + 1)
                    + BLOCK_ROWS * width)
    return itemsize * (dim * n + np.getbufsize()) + 8192 + phase


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

