"""Selective state-space scan of the network path.

The discrete recurrence ``h_t = a_bar_t * h_{t-1} + b_bar_t * x_t``,
``y_t = c_t . h_t``, with zero-order-hold discretization of input-conditioned
(selective) parameters, runs as one tape op, ``ssm_scan``: its forward
discretizes, scans and contracts one row block at a time, and its backward
is hand-written; both carry the state across blocks. A block's scan is one
work-efficient prefix sweep (Brent-Kung, in place on strided views,
``associative_scan``, which cuts no blocks itself) over the associative lift
``(a, u) o (a', u') = (a*a', a'*u + u')``. ``ssm_scan`` takes and returns
sequences in scan order (``scan_order``, from the shapes alone): each row
block holds its rows grouped by time step mod 2^L, so the sweep's first and
last L Brent-Kung levels (``class_scan``) run on contiguous slices, with the
bytes of ``associative_scan`` on the time-ordered block. The float64
references it is verified against (ZOH, the sequential and convolution
forms) live with the tests, in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractViolation

Array = np.ndarray

# Elements of one row block of one (T, D, M) buffer in the scan's one pass over row blocks, so the row order
# depends on shapes alone: at float32 (512 KiB) the forward's three blocks (state, a_bar, spread scratch) stay in
# a 2 MiB L2. Median dense 128x128 `detect` on a 2-vCPU Xeon (2 MiB L2 per core), sizes interleaved over 20
# rounds of two scenes: 0.434 s at 512 KiB, 0.462 s at 256 KiB, 0.463 s at 1 MiB.
SCAN_BLOCK_ELEMENTS = 1 << 17
# L, the depth of a row block's class layout (``scan_order``): the sweep's first and last L levels run on
# contiguous slices. Median `detect` on a 2-vCPU Xeon, depths interleaved over 8 (dense 128x128) and 10 (desk
# 64x64) rounds of two scenes: dense 0.331 s at L = 0 (time order), 0.317 at 1, 0.304 at 2, 0.286 at 3, 0.291 at 4,
# 0.330 at 5; desk 0.088 s at 0, 0.076 at 3, 0.076 at 4.
SCAN_LEVELS = 3
INIT_DT_MIN, INIT_DT_MAX = 1e-3, 0.1  # range of the initial step sizes softplus(b_delta), drawn log-uniform


# ---------------------------------------------------------------------------
# work-efficient parallel scan (Brent-Kung, in place on strided views)
# ---------------------------------------------------------------------------


def _block_rows(row_elements: int) -> int:
    """R: the largest power of two whose rows of ``row_elements`` fit in SCAN_BLOCK_ELEMENTS (at least 1)."""
    return 1 << max((SCAN_BLOCK_ELEMENTS // max(row_elements, 1)).bit_length() - 1, 0)


def associative_scan(a: Array, u: Array) -> Array:
    """In place: overwrite u with h_t = a_t * h_{t-1} + u_t (h_{-1} = 0), return it, clobber a.

    a and u are buffers the caller owns, of one shape and dtype (strided
    views are fine). One Brent-Kung sweep over the associative composition
    (a, u) o (a', u') = (a*a', a'*u + u') finishes them through basic
    strided views, with no padding. The up-sweep leaves at each position
    2s*k - 1 the composition of the length-2s block ending there; the
    down-sweep completes positions (2k+1)*s - 1 from the finished prefixes s
    before them. A finished prefix is read only for its state, so the
    down-sweep never updates coefficients and the top up-sweep level skips
    them. The result is deterministic for a given length. The buffers are
    swept whole: ``ssm_scan``'s passes hand it at most one row block.
    """
    if a.shape != u.shape or a.dtype != u.dtype:
        raise ContractViolation(f"associative_scan buffers differ: a {a.shape} {a.dtype}, u {u.shape} {u.dtype}")
    n = u.shape[0]
    prod = np.empty((n // 2,) + u.shape[1:], dtype=u.dtype)  # a[hi] * u[lo] of one level
    s = 1
    while 2 * s <= n:  # up-sweep
        hi = slice(2 * s - 1, None, 2 * s)
        lo = slice(s - 1, n - s, 2 * s)
        u[hi] += np.multiply(a[hi], u[lo], out=prod[: n // (2 * s)])
        if 4 * s <= n:
            a[hi] *= a[lo]
        s *= 2
    while s > 1:  # down-sweep
        s //= 2
        hi = slice(3 * s - 1, None, 2 * s)
        u[hi] += np.multiply(a[hi], u[2 * s - 1 : n - s : 2 * s], out=prod[: (n - s) // (2 * s)])
    return u


# ---------------------------------------------------------------------------
# scan order: row blocks in bit-reversed residue classes
# ---------------------------------------------------------------------------


def _block_levels(n: int, levels: int) -> int:
    """The class layout depth of an n-row block: ``levels``, capped by the largest power of two dividing n."""
    return min(levels, (n & -n).bit_length() - 1)


def _bit_reversal(levels: int) -> list[int]:
    """Slot -> residue class mod 2^levels, the classes in bit-reversed order (0, 4, 2, 6, 1, 5, 3, 7 at 3 levels):
    the even classes, then the odd ones, each half in this order one level down. The map is its own inverse."""
    rev = [0]
    for _ in range(levels):
        rev = [2 * r for r in rev] + [2 * r + 1 for r in rev]
    return rev


def scan_order(t_len: int, d: int, m: int) -> Array:
    """Read-only (T,) map from scan position to time step: the row order ``ssm_scan`` takes its sequences in.

    The positions are cut into the forward's row blocks of R rows
    (``_block_rows`` of a (D, M) state row, in any dtype). A block of n
    rows, at depth L = ``_block_levels(n, SCAN_LEVELS)``, holds its steps
    grouped by residue class t mod 2^L (t counted from the block's first
    step), the classes in bit-reversed order and each class in time order.
    2^L divides n, so every class holds n / 2^L rows, the block's first and
    last step stay its first and last row, and the reversed block is the
    class layout of the reversed steps. Not cached: its callers cache what they build from it, and holding
    the orders too read the dense 128x128 peak RSS 1.5 MB higher.
    """
    return _class_order(t_len, _block_rows(d * m), SCAN_LEVELS)


def _class_order(t_len: int, r: int, levels: int) -> Array:
    order = np.arange(t_len, dtype=np.intp)
    for k0 in range(0, t_len, r):
        block = order[k0 : k0 + r]
        depth = _block_levels(block.shape[0], levels)
        block[:] = block.reshape(-1, 1 << depth).T[_bit_reversal(depth)].reshape(-1)
    order.flags.writeable = False
    return order


@lru_cache(maxsize=64)
def _step_neighbors(t_len: int, r: int, levels: int) -> tuple[Array, Array]:
    """Read-only (T,) scan positions of each position's previous and next time step in ``_class_order(t_len, r,
    levels)``; the first step's previous and the last step's next are itself."""
    order = _class_order(t_len, r, levels)
    position = np.empty_like(order)
    position[order] = np.arange(t_len)
    prev, nxt = position[np.maximum(order - 1, 0)], position[np.minimum(order + 1, t_len - 1)]
    prev.flags.writeable = nxt.flags.writeable = False
    return prev, nxt


def class_scan(a: Array, u: Array) -> Array:
    """In place on one row block in its ``scan_order`` class layout: overwrite u with the state, return it, clobber a.

    The bytes equal ``associative_scan`` on the time-ordered block, as the
    same products at the same Brent-Kung levels. The even steps fill the
    first half of the block and the odd ones the second, each half in the
    class layout one level down, so the up-sweep's level s = 1 adds the first
    half into the second as aligned slices and the odd half recurses; the
    last class (the steps 2^L - 1 mod 2^L, in time order) takes
    ``associative_scan``, which runs the levels s >= 2^L. The down-sweep's
    level s = 1 adds, class by class, odd step 2i - 1 into even step 2i: an
    aligned slice, or for class 0 the last class one row back. Strided and
    reversed views are fine; a reversed block is the class layout of the
    reversed steps.
    """
    prod = np.empty((u.shape[0] // 2,) + u.shape[1:], dtype=u.dtype)  # a[hi] * u[lo] of one level
    return _class_sweep(a, u, _block_levels(u.shape[0], SCAN_LEVELS), prod)


def _class_sweep(a: Array, u: Array, levels: int, prod: Array) -> Array:
    if not levels:
        return associative_scan(a, u)
    n = u.shape[0]
    half, q = n // 2, n >> levels  # q rows per class
    even, odd = slice(0, half), slice(half, n)
    u[odd] += np.multiply(a[odd], u[even], out=prod[:half])
    if 4 <= n:
        a[odd] *= a[even]
    _class_sweep(a[odd], u[odd], levels - 1, prod)
    slots = _bit_reversal(levels - 1)  # class -> slot in each half
    for c in range(1, len(slots)):
        e, o = slots[c] * q, half + slots[c - 1] * q
        u[e : e + q] += np.multiply(a[e : e + q], u[o : o + q], out=prod[:q])
    u[1:q] += np.multiply(a[1:q], u[n - q : n - 1], out=prod[: q - 1])
    return u


# ---------------------------------------------------------------------------
# differentiable selective scan (network path)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _spreads(d: int, m: int, dtype) -> tuple[Array, Array]:
    """Read-only 0/1 selectors: (T, D) @ spread_d copies each entry over its M columns of a (T, D*M) row;
    (T, M) @ spread_m over its D columns. Built once per (D, M, dtype)."""
    spread_d, spread_m = np.repeat(np.eye(d, dtype=dtype), m, axis=1), np.tile(np.eye(m, dtype=dtype), d)
    spread_d.flags.writeable = spread_m.flags.writeable = False
    return spread_d, spread_m


def _a_terms(a: Array, dtype) -> tuple[Array, Array]:
    """The terms of a (D, M) in ``dtype``, built once per sequence: the a-weighted selector spread_z (D, D*M), with
    delta @ spread_z = delta * a rounded as one product, and 1/a as a (D*M,) row rounded in a's dtype."""
    d, m = a.shape
    return _spreads(d, m, dtype)[0] * a.reshape(d * m).astype(dtype), (1.0 / a).reshape(d * m).astype(dtype)


def selective_discretize(
    delta: Array, spread_z: Array, recip_a: Array, b_seq: Array, x: Array, a_bar: Array, u: Array, work: Array
):
    """Per-step ZOH into caller-owned buffers: (n,D) delta, (n,M) b, (n,D) x -> (n,D,M) a_bar and u.

    a enters as ``_a_terms(a, dtype)``: the selector spread_z and the row
    recip_a = 1/a. Writes a_bar = exp(z) and the scan input u = b_bar * x,
    where b_bar = expm1(z) * (1/a) * b and z = delta*a, in place in that op
    order, in the buffers' dtype; ``work`` is scratch of their shape, and all
    three are C-contiguous. ``ssm_scan`` calls it once per row block. The
    per-step rows are spread over (n, D*M) rows by BLAS matmuls against 0/1
    selectors (the one for delta weighted by a). Every output entry sums one
    product and zeros, so for finite inputs the buffers equal the broadcast
    build bit for bit, up to the sign of a zero. A selector spreads a NaN
    along its row (0 * NaN is NaN, and an inf makes the rest of its row NaN),
    so a NaN in x[t, d] makes step t non-finite in every channel, not only in
    d. The exact input scale is well-conditioned here because a is strictly
    negative on the selective path. The selectors are there for speed: the
    broadcast build (delta[:, :, None] * a, b[:, None, :], x[:, :, None])
    gives the same bytes, but its numpy loops run M entries at a time, where
    one matmul writes whole D*M rows. Float32 on a 2-vCPU Xeon, best of 200
    calls: 0.34-0.38 against 0.48-0.69 ms at (n, D, M) = (1024, 16, 8), and
    0.047-0.050 against 0.092-0.100 ms at (256, 8, 8).
    """
    n, d = delta.shape
    dm = recip_a.size
    shape = (n, d, dm // d)
    if not all(buf.shape == shape and buf.flags.c_contiguous for buf in (a_bar, u, work)):
        raise ContractViolation(f"selective_discretize needs C-contiguous {shape} buffers")
    spread_d, spread_m = _spreads(d, dm // d, u.dtype)
    rows, spread = u.reshape(n, dm), work.reshape(n, dm)
    np.matmul(delta, spread_z, out=rows)
    np.exp(rows, out=a_bar.reshape(n, dm))
    np.expm1(rows, out=rows)
    rows *= recip_a
    rows *= np.matmul(b_seq, spread_m, out=spread)
    rows *= np.matmul(x, spread_d, out=spread)
    return a_bar, u


def _scan_backward(gy: Array, x: Array, delta: Array, a: Array, b_seq: Array, c_seq: Array, h: Array) -> tuple:
    """Gradients of ``ssm_scan`` w.r.t. (x, delta, a, b_seq, c_seq) from the output cotangent gy (T, D).

    Through y_t = c_t . h_t, h_t = a_bar_t * h_{t-1} + b_bar_t * x_t, a_bar = exp(z),
    b_bar = expm1(z) / a * b, z = delta * a, with the adjoint
    lambda_t = c_t * gy_t + a_bar_{t+1} * lambda_{t+1}:
    g_z = lambda * a_bar * (x * b / a + h_{t-1}), g_a = sum_t g_z * delta - sum_t lambda * x * b * expm1(z) / a^2.

    Every (T, ·) array, inputs and gradients alike, is in ``scan_order``.
    Works on (T, D*M) rows in row blocks of a quarter of the forward's R:
    a block's four scratch buffers take one forward block's bytes and stay
    in L2 with the blocks of lambda and h (float32 (4096, 8, 8) on a 2-vCPU
    Xeon: 5.3 ms at a quarter or a half of R, 6.7 ms at R). Phase 1 fills,
    block by block, the adjoint's coefficient a_bar_{t+1}, from delta rows
    gathered by the cached position of each step's successor, and its input
    c_t * gy_t (g_c comes from the same spread of gy); phase 2 runs the
    adjoint's ``class_scan`` on each forward block's reversed views, from the
    last block, folding in the state of the block after; phase 3 builds z
    once per block and every other term from it, h_{t-1} gathered by the
    cached position of each step's predecessor. Per-step rows (T, D) and
    (T, M) are spread over (T, D*M) rows, and summed back over M and D, by
    BLAS matmuls against 0/1 selectors, some weighted by a or 1/a; a sum over
    T weighted by delta or b is one matmul (D or M rows by D*M columns) of
    which g_a keeps the diagonal.

    The spreads are exact for finite inputs, so the adjoint's coefficients
    equal those of the whole-buffer composition of the tape's
    mul/exp/reciprocal rules (the tests keep it as the oracle) bit for bit,
    and so does lambda whenever the oracle sweeps its adjoint in the same
    R-row blocks, counted from the last step: when R divides T or T <= R. The sums round in another order, so float64
    gradients agree with it within 1e-12 of each gradient's largest
    magnitude, not bit for bit. A
    selector matmul spreads a NaN along its row (0 * NaN is NaN; an inf
    turns the rest of its row NaN), so a non-finite input gives non-finite
    gradients on at least the entries the composition makes non-finite, and
    maybe on more. All five come back in the widest dtype of h and gy.
    """
    t_len, d, m = h.shape
    dm = d * m
    dtype = np.result_type(h, gy)
    spread_d, spread_m = _spreads(d, m, dtype)
    a_row = a.reshape(dm).astype(dtype)
    spread_z, recip = _a_terms(a, dtype)  # as in the forward
    h_rows = h.reshape(t_len, dm)
    r_f = _block_rows(dm)  # the forward's row blocks, which hold the class layout
    r = max(r_f // 4, 1)
    prev, nxt_step = _step_neighbors(t_len, r_f, SCAN_LEVELS)
    q, xe, be, p = np.empty((4, min(r, t_len), dm), dtype=dtype)

    lam = np.empty((t_len, dm), dtype=dtype)
    coef = np.empty_like(lam)  # coef[t] = a_bar[t + 1]; the last row only multiplies the zero state
    g_c = np.empty((t_len, m), dtype=dtype)
    for k0 in range(0, t_len, r):
        rows = slice(k0, k0 + r)
        lam_b = lam[rows]
        e = q[: lam_b.shape[0]]
        np.matmul(gy[rows], spread_d, out=lam_b)
        np.multiply(lam_b, h_rows[rows], out=e)
        np.matmul(e, spread_m.T, out=g_c[rows])
        np.matmul(c_seq[rows], spread_m, out=e)
        lam_b *= e
        nxt = coef[k0 : min(k0 + r, t_len - 1)]
        np.matmul(delta[nxt_step[k0 : k0 + nxt.shape[0]]], spread_z, out=nxt)
        np.exp(nxt, out=nxt)
    coef[t_len - 1 :] = 0.0
    for k0 in reversed(range(0, t_len, r_f)):  # the adjoint, block by block from the last, each block reversed
        k1 = min(k0 + r_f, t_len)
        lam_b, coef_b = lam[k0:k1][::-1], coef[k0:k1][::-1]
        if k1 < t_len:
            lam_b[0] += coef_b[0] * lam[k1]
        class_scan(coef_b, lam_b)
    del coef

    g_x = np.empty((t_len, d), dtype=dtype)
    g_delta = np.empty_like(g_x)
    g_b = np.empty((t_len, m), dtype=dtype)
    # sum_t b[t, m'] * (lambda x expm1(z))[t, (d, m)] and sum_t delta[t, d'] * g_z[t, (d, m)]; g_a reads m' = m, d' = d
    g_recip = np.zeros((m, dm), dtype=dtype)
    g_az = np.zeros((d, dm), dtype=dtype)
    spread_b = spread_m * recip  # b @ spread_b = b / a
    sum_d_recip = spread_m.T * recip[:, None]
    sum_m_a = spread_d.T * a_row[:, None]
    for k0 in range(0, t_len, r):
        rows = slice(k0, k0 + r)
        lam_b = lam[rows]
        n = lam_b.shape[0]
        q_b, xe_b, be_b, p_b = q[:n], xe[:n], be[:n], p[:n]
        np.matmul(delta[rows], spread_z, out=q_b)
        np.expm1(q_b, out=q_b)
        q_b *= lam_b  # lambda * expm1(z)
        np.matmul(x[rows], spread_d, out=xe_b)
        np.matmul(b_seq[rows], spread_b, out=be_b)
        np.multiply(q_b, xe_b, out=p_b)
        np.matmul(p_b, sum_d_recip, out=g_b[rows])
        g_recip += b_seq[rows].T @ p_b
        np.multiply(q_b, be_b, out=p_b)
        np.matmul(p_b, spread_d.T, out=g_x[rows])
        q_b += lam_b  # lambda * a_bar
        xe_b *= be_b
        np.take(h_rows, prev[rows], axis=0, out=p_b, mode="clip")  # h_{t-1}; "clip" writes out unbuffered
        if k0:
            xe_b += p_b
        else:
            xe_b[1:] += p_b[1:]  # h_{-1} = 0
        xe_b *= q_b  # g_z
        np.matmul(xe_b, sum_m_a, out=g_delta[rows])
        g_az += delta[rows].T @ xe_b
    a2 = a_row.reshape(d, m) ** 2
    g_a = np.einsum("ddm->dm", g_az.reshape(d, d, m)) - np.einsum("mdm->dm", g_recip.reshape(m, d, m)) / a2
    return g_x, g_delta, g_a, g_b, g_c


def _scan_forward(x: Array, delta: Array, a: Array, b_seq: Array, c_seq: Array, y: Array, keep_h: bool) -> Array | None:
    """Fill y (T,D) with the output of ``ssm_scan``, in one pass over row blocks of R rows; return the state
    h (T,D,M) if keep_h, else None.

    The sequences are in ``scan_order``, whose blocks are these R-row ones
    (``_block_rows`` of a state row). Per block, in time order:
    ``selective_discretize`` writes a_bar into one reused block of scratch
    and b_bar * x into the block of h; the previous block's final state,
    carried as one row, is folded into the block's first row (its first
    step); ``class_scan`` sweeps the block; and y is one batched mat-vec of
    the block's state with c. The
    expanded terms never leave the block. h takes the widest dtype of x,
    delta, a and b_seq; the whole (T,D,M) h is kept only if asked (the tape's backward
    reads it), else one block of it is reused, with the same bits. The
    a-weighted selector and 1/a are built once (``_a_terms``). h rounds as
    the same fold and one ``associative_scan`` sweep per time-ordered block do, and the mat-vec sums over
    M in another order than an elementwise product and sum: float64 outputs
    agree with the ZOH and recurrent references within 1e-12 relative.
    """
    t_len, d = x.shape
    m = a.shape[-1]
    dtype = np.result_type(x, delta, a, b_seq)  # c_seq only reads h out, so it widens y but not h
    carry = np.empty((1, d, m), dtype=dtype)  # the final state of the block before
    r = _block_rows(d * m)
    h = np.empty((t_len if keep_h else min(r, t_len), d, m), dtype=dtype)
    a_bar, work = np.empty((2, min(r, t_len), d, m), dtype=dtype)
    a_terms = _a_terms(a, dtype)
    y = y[:, :, None]
    for k0 in range(0, t_len, r):
        rows = slice(k0, k0 + r)
        n = min(r, t_len - k0)
        h_b = h[rows] if keep_h else h[:n]
        selective_discretize(delta[rows], *a_terms, b_seq[rows], x[rows], a_bar[:n], h_b, work[:n])
        if k0:
            h_b[0] += a_bar[0] * carry[0]
        class_scan(a_bar[:n], h_b)
        np.matmul(h_b, c_seq[rows, :, None], out=y[rows])
        carry[0] = h_b[n - 1]
    return h if keep_h else None


def ssm_scan(x, delta, a, b_seq, c_seq) -> T.Tensor:
    """Differentiable selective scan of a stack of K sequences, ZOH inside, as one tape record.

    x, delta (K,T,D); a (K,D,M); b_seq, c_seq (K,T,M) -> y (K,T,D), with
    h_t = a_bar_t * h_{t-1} + b_bar_t * x_t and y_t = c_t . h_t per sequence.
    The T axis of every sequence, in and out, is in ``scan_order(T, D, M)``,
    which depends on the shapes alone: the caller gathers its sequences in that order, as the cross scan does
    by composing it into its direction permutations, and reads y back
    through its inverse. ``_scan_forward`` runs each sequence in turn, discretizing, scanning and
    contracting one row block at a time, and writes its y into the one
    (K,T,D) output. The record keeps the inputs and every sequence's h;
    untaped, no whole h is built, only one row block of it at a time.
    The backward, ``_scan_backward``, runs per sequence: the adjoint (itself a
    first-order recurrence) takes the same class sweep, and the
    discretization is recomputed a row block at a time (Gu & Dao, arXiv
    2312.00752, sec. 3.3). Besides four blocks of a quarter of a forward
    block's rows, it holds two (T,D,M) buffers up to the adjoint scan and one
    after. Its float64 gradients agree with the whole-buffer composition
    within 1e-12 relative, and its outputs agree with the ZOH and recurrent references.
    """
    tx, td, ta, tb, tc = (T.as_tensor(v) for v in (x, delta, a, b_seq, c_seq))
    arrays = xd, dd, ad, bd, c = tx.data, td.data, ta.data, tb.data, tc.data
    k, t_len, d = xd.shape if xd.ndim == 3 else (-1, -1, -1)  # x must be a (K, T, D) stack
    m = ad.shape[-1]
    if xd.ndim != 3 or dd.shape != xd.shape or ad.shape != (k, d, m) or bd.shape != (k, t_len, m) or c.shape != bd.shape:
        raise ContractViolation(
            f"ssm_scan shape mismatch: x {xd.shape}, delta {dd.shape}, a {ad.shape}, b {bd.shape}, c {c.shape}"
        )
    y = np.empty(xd.shape, dtype=np.result_type(*arrays))
    taped = T._active_tape() is not None
    hs = [_scan_forward(*seq, y_k, taped) for *seq, y_k in zip(*arrays, y)]
    out = T.Tensor(y)
    if taped:
        T._record(out, (tx, td, ta, tb, tc), lambda gy: tuple(map(np.stack, zip(*map(_scan_backward, gy, *arrays, hs)))))
    return out


# ---------------------------------------------------------------------------
# selective (input-conditioned) parameterization
# ---------------------------------------------------------------------------


@dataclass
class SelectiveProjections:
    """Projections mapping tokens to scan parameters, one set per scanned sequence, stacked on a leading axis K.

    b/c projections: (K, D, M) + (K, 1, M) bias; delta projection:
    (K, D, D) + (K, 1, D) bias (one positive step size per channel via
    softplus); a_log: (K, D, M) with a = -exp(a_log) strictly negative.
    """

    w_b: T.Param
    b_b: T.Param
    w_c: T.Param
    b_c: T.Param
    w_delta: T.Param
    b_delta: T.Param
    a_log: T.Param


def selective_params(tokens, proj: SelectiveProjections):
    """Compute per-step (b_seq, c_seq, delta) and static a from tokens (K, T, D)."""
    b_seq = T.add(T.matmul(tokens, proj.w_b), proj.b_b)  # (K, T, M)
    c_seq = T.add(T.matmul(tokens, proj.w_c), proj.b_c)  # (K, T, M)
    delta = T.softplus(T.add(T.matmul(tokens, proj.w_delta), proj.b_delta))  # (K, T, D)
    a = T.neg(T.texp(proj.a_log))  # (K, D, M), strictly negative
    return b_seq, c_seq, delta, a


def selective_scan_tokens(tokens, proj: SelectiveProjections) -> T.Tensor:
    """Full selective scan over a stack of token sequences (K, T, D) -> (K, T, D), in ``ssm_scan``'s scan order."""
    b_seq, c_seq, delta, a = selective_params(tokens, proj)
    return ssm_scan(tokens, delta, a, b_seq, c_seq)


def init_selective_projections(rng: np.random.Generator, channels: int, state_dim: int, sequences: int) -> SelectiveProjections:
    """Initialization, in float64: small projections, log-spaced state decay, softplus-inverse step bias."""
    d, m = channels, state_dim
    scale = 1.0 / np.sqrt(d)
    draws = []
    for _ in range(sequences):  # one set after another: step sizes, then w_b, w_c and w_delta
        dt = np.exp(rng.uniform(np.log(INIT_DT_MIN), np.log(INIT_DT_MAX), size=(1, d)))
        w_b = rng.normal(0.0, scale, size=(d, m))
        w_c = rng.normal(0.0, scale, size=(d, m))
        draws.append((np.log(np.expm1(dt)), w_b, w_c, rng.normal(0.0, scale * 0.1, size=(d, d))))  # softplus(dt_bias) == dt
    dt_bias, w_b, w_c, w_delta = (np.stack(arrays) for arrays in zip(*draws))
    a_log = np.log(np.tile(np.arange(1, m + 1, dtype=np.float64), (sequences, d, 1)))
    return SelectiveProjections(
        w_b=T.Param(w_b),
        b_b=T.Param(np.zeros((sequences, 1, m))),
        w_c=T.Param(w_c),
        b_c=T.Param(np.zeros((sequences, 1, m))),
        w_delta=T.Param(w_delta),
        b_delta=T.Param(dt_bias),
        a_log=T.Param(a_log),
    )
