"""State-space scan engine.

Three mutually verified execution forms of the discrete recurrence
``h_t = a_bar * h_{t-1} + b_bar * x_t``, ``y_t = c_bar . h_t``:

* ``scan_recurrent_arrays`` — exact sequential evaluation (the oracle),
* ``scan_kernel`` / ``apply_conv_form`` — causal global convolution,
  valid for time-invariant parameters only,
* ``scan_parallel_arrays`` — work-efficient prefix scan (Brent-Kung, in
  place on strided views, within row blocks taken in time order) over the
  associative lift ``(a, u) o (a', u') = (a*a', a'*u + u')``.

Plus zero-order-hold discretization and the input-conditioned (selective)
parameterization of the network path, whose scan ``ssm_scan`` is one tape
op: its forward discretizes, scans and contracts one row block at a time,
and its backward is hand-written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractViolation

Array = np.ndarray

ZOH_SERIES_SWITCH = 1e-6  # |delta * a| below this uses the series branch
# Bytes of one row block of one (T, D, M) buffer in the scan's one pass over row blocks: the
# forward's three blocks (state, a_bar, spread scratch) stay in a 2 MiB L2. Median dense 128x128
# `detect` on a 2-vCPU Xeon (2 MiB L2 per core), sizes interleaved over 20 rounds of two scenes:
# 0.434 s at 512 KiB, 0.462 s at 256 KiB, 0.463 s at 1 MiB.
SCAN_BLOCK_BYTES = 1 << 19


# ---------------------------------------------------------------------------
# zero-order hold
# ---------------------------------------------------------------------------


def zoh_factors(a: Array, delta: Array) -> tuple[Array, Array]:
    """Return (a_bar, input_scale) with b_bar = input_scale * b.

    a_bar = exp(delta*a); input_scale = expm1(delta*a)/a, evaluated by a
    second-order series delta*(1 + delta*a/2) when |delta*a| < 1e-6 so the
    a -> 0 limit is exact and the branch seam agrees to ~1e-13 relative.
    """
    a = np.asarray(a, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    z = delta * a
    a_bar = np.exp(z)
    series = delta * (1.0 + 0.5 * z)
    small = np.abs(z) < ZOH_SERIES_SWITCH
    safe_a = np.where(a == 0.0, 1.0, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.expm1(z) / safe_a
    scale = np.where(small, series, exact)
    return a_bar, scale


# ---------------------------------------------------------------------------
# reference scans (numpy, double precision)
# ---------------------------------------------------------------------------


def _canon_scan_args(a_bar: Array, b_bar: Array, c_bar: Array, x: Array) -> tuple[Array, Array, Array, Array]:
    """x as float64 (T, D); parameters (M,), (D, M) or (T, D, M) as read-only float64 (T, D, M) views."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, d = x.shape
    m = np.asarray(a_bar).shape[-1]
    params = [np.asarray(p, dtype=np.float64) for p in (a_bar, b_bar, c_bar)]
    for p in params:
        if not 1 <= p.ndim <= 3:
            raise ContractViolation(f"parameter rank must be 1..3, got shape {p.shape}")
    return x, *(np.broadcast_to(p, (t_len, d, m)) for p in params)


def scan_recurrent_arrays(a_bar: Array, b_bar: Array, c_bar: Array, x: Array) -> Array:
    """Sequential oracle from a zero state. x: (T, D); params broadcastable to (T, D, M). Returns y (T, D)."""
    x, ab, bb, cb = _canon_scan_args(a_bar, b_bar, c_bar, x)
    h = np.zeros(ab.shape[1:], dtype=np.float64)
    y = np.zeros(x.shape, dtype=np.float64)
    for t in range(x.shape[0]):
        h = ab[t] * h + bb[t] * x[t][:, None]
        y[t] = (cb[t] * h).sum(axis=-1)
    return y


def scan_kernel(a_bar: Array, b_bar: Array, c_bar: Array, t_len: int) -> Array:
    """Causal convolution kernel K[k] = sum_i c_i * a_i^k * b_i, length T, from (M,) parameters.

    Time-invariant parameters only: per-step parameter arrays are rejected.
    """
    a_bar, b_bar, c_bar = (np.asarray(p, dtype=np.float64) for p in (a_bar, b_bar, c_bar))
    if a_bar.ndim != 1 or b_bar.ndim != 1 or c_bar.ndim != 1:
        raise ContractViolation(
            f"scan_kernel requires time-invariant (M,) parameters; got shapes {a_bar.shape}/{b_bar.shape}/{c_bar.shape}"
        )
    powers = np.ones((t_len, a_bar.shape[0]), dtype=np.float64)
    if t_len > 1:
        powers[1:] = np.cumprod(np.broadcast_to(a_bar, (t_len - 1, a_bar.shape[0])), axis=0)
    return powers @ (c_bar * b_bar)


def apply_conv_form(x: Array, kernel: Array) -> Array:
    """y[t] = sum_{k<=t} K[k] x[t-k] (causal convolution), per channel."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    t_len = x.shape[0]
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim == 1:
        kernel = np.broadcast_to(kernel[:, None], (kernel.shape[0], x.shape[1]))
    y = np.empty_like(x)
    for d in range(x.shape[1]):
        y[:, d] = np.convolve(x[:, d], kernel[:, d])[:t_len]
    return y[:, 0] if squeeze else y


# ---------------------------------------------------------------------------
# work-efficient parallel scan (Brent-Kung, in place on strided views)
# ---------------------------------------------------------------------------


def _block_rows(buf: Array) -> int:
    """R: the largest power of two whose rows of ``buf`` fit in SCAN_BLOCK_BYTES (at least 1)."""
    row_bytes = max(buf.itemsize * math.prod(buf.shape[1:]), 1)
    return 1 << max((SCAN_BLOCK_BYTES // row_bytes).bit_length() - 1, 0)


def associative_scan(a: Array, u: Array) -> Array:
    """In place: overwrite u with h_t = a_t * h_{t-1} + u_t (h_{-1} = 0), return it, clobber a.

    a and u are buffers the caller owns, of one shape and dtype (strided
    views are fine). The buffers are cut into row blocks of R rows
    (``_block_rows``, R a power of two), taken in time order while each is
    in cache: the previous block's final state is folded into the block's
    first row, u[k0] += a[k0] * u[k0-1], and a Brent-Kung sweep over the
    associative composition (a, u) o (a', u') = (a*a', a'*u + u') then
    finishes the block through basic strided views, with no padding. The
    up-sweep leaves at each position 2s*k - 1 the composition of the
    length-2s block ending there; the down-sweep completes positions
    (2k+1)*s - 1 from the finished prefixes s before them. A finished prefix
    is read only for its state, so the down-sweep never updates coefficients
    and the top up-sweep level skips them. A buffer of at most R rows is one
    sweep; the result is deterministic for a given length and R.
    """
    if a.shape != u.shape or a.dtype != u.dtype:
        raise ContractViolation(f"associative_scan buffers differ: a {a.shape} {a.dtype}, u {u.shape} {u.dtype}")
    r = _block_rows(u)
    prod = np.empty((min(r, a.shape[0]) // 2,) + u.shape[1:], dtype=u.dtype)  # a[hi] * u[lo] of one level
    for k0 in range(0, a.shape[0], r):
        ab, ub = a[k0 : k0 + r], u[k0 : k0 + r]
        if k0:
            ub[0] += ab[0] * u[k0 - 1]
        n = ub.shape[0]
        s = 1
        while 2 * s <= n:  # up-sweep
            hi = slice(2 * s - 1, None, 2 * s)
            lo = slice(s - 1, n - s, 2 * s)
            ub[hi] += np.multiply(ab[hi], ub[lo], out=prod[: n // (2 * s)])
            if 4 * s <= n:
                ab[hi] *= ab[lo]
            s *= 2
        while s > 1:  # down-sweep
            s //= 2
            hi = slice(3 * s - 1, None, 2 * s)
            ub[hi] += np.multiply(ab[hi], ub[2 * s - 1 : n - s : 2 * s], out=prod[: (n - s) // (2 * s)])
    return u


def scan_parallel_arrays(a_bar: Array, b_bar: Array, c_bar: Array, x: Array) -> Array:
    """Parallel-scan evaluation; same contract as scan_recurrent_arrays."""
    x, ab, bb, cb = _canon_scan_args(a_bar, b_bar, c_bar, x)
    h = associative_scan(ab.copy(), bb * x[:, :, None])
    return (cb * h).sum(axis=-1)


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


def selective_discretize(delta: Array, a: Array, b_seq: Array, x: Array, a_bar: Array, u: Array, work: Array):
    """Per-step ZOH into caller-owned buffers: (n,D) delta, (D,M) a, (n,M) b, (n,D) x -> (n,D,M) a_bar and u.

    Writes a_bar = exp(z) and the scan input u = b_bar * x, where
    b_bar = expm1(z) * (1/a) * b and z = delta*a, in place in that op order,
    in the buffers' dtype; ``work`` is scratch of their shape, and all three
    are C-contiguous. ``ssm_scan`` calls it once per row block. The per-step
    rows are spread over (n, D*M) rows by BLAS matmuls against 0/1
    selectors (the one for delta weighted by a). Every output entry sums one
    product and zeros, so for finite inputs the buffers equal the broadcast
    build bit for bit, up to the sign of a zero. A selector spreads a NaN
    along its row (0 * NaN is NaN, and an inf makes the rest of its row NaN),
    so a NaN in x[t, d] makes step t non-finite in every channel, not only in
    d. The exact input scale is well-conditioned here because a is strictly
    negative on the selective path; ``zoh_factors`` is its float64 reference.
    """
    n, d = delta.shape
    dm = a.size
    if not all(buf.shape == (n,) + a.shape and buf.flags.c_contiguous for buf in (a_bar, u, work)):
        raise ContractViolation(f"selective_discretize needs C-contiguous {(n,) + a.shape} buffers")
    spread_d, spread_m = _spreads(d, a.shape[-1], u.dtype)
    rows, spread = u.reshape(n, dm), work.reshape(n, dm)
    np.matmul(delta, spread_d * a.reshape(dm), out=rows)
    np.exp(rows, out=a_bar.reshape(n, dm))
    np.expm1(rows, out=rows)
    rows *= (1.0 / a).reshape(dm)
    rows *= np.matmul(b_seq, spread_m, out=spread)
    rows *= np.matmul(x, spread_d, out=spread)
    return a_bar, u


def _scan_backward(gy: Array, x: Array, delta: Array, a: Array, b_seq: Array, c_seq: Array, h: Array) -> tuple:
    """Gradients of ``ssm_scan`` w.r.t. (x, delta, a, b_seq, c_seq) from the output cotangent gy (T, D).

    Through y_t = c_t . h_t, h_t = a_bar_t * h_{t-1} + b_bar_t * x_t, a_bar = exp(z),
    b_bar = expm1(z) / a * b, z = delta * a, with the adjoint
    lambda_t = c_t * gy_t + a_bar_{t+1} * lambda_{t+1}:
    g_z = lambda * a_bar * (x * b / a + h_{t-1}), g_a = sum_t g_z * delta - sum_t lambda * x * b * expm1(z) / a^2.

    Works on (T, D*M) rows in row blocks of a quarter of ``_block_rows(h)``:
    a block's four scratch buffers take one forward block's bytes and stay
    in L2 with the blocks of lambda and h (float32 (4096, 8, 8) on a 2-vCPU
    Xeon: 5.3 ms at a quarter or a half of R, 6.7 ms at R). Phase 1 fills,
    block by block in time order, the adjoint's coefficient a_bar_{t+1} and
    its input c_t * gy_t (g_c comes from the same spread of gy); phase 2
    runs the one adjoint scan on their reversed views; phase 3 builds z once
    per block and every other term from it, a block's first row reading
    h[k0 - 1]. Per-step rows (T, D) and (T, M) are spread over (T, D*M)
    rows, and summed back over M and D, by BLAS matmuls against 0/1
    selectors, some weighted by a or 1/a; a sum over T weighted by delta or
    b is one matmul (D or M rows by D*M columns) of which g_a keeps the
    diagonal.

    The spreads are exact for finite inputs, so the adjoint's coefficients
    and lambda equal those of the whole-buffer composition of the tape's
    mul/exp/reciprocal rules (the tests keep it as the oracle) bit for bit;
    the sums round in another order, so float64 gradients agree with it
    within 1e-12 of each gradient's largest magnitude, not bit for bit. A
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
    recip = (1.0 / a).reshape(dm).astype(dtype)  # rounded in a's dtype, as in the forward
    spread_z = spread_d * a_row  # delta @ spread_z = delta * a, rounded as one product
    h_rows = h.reshape(t_len, dm)
    r = max(_block_rows(h) // 4, 1)
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
        np.matmul(delta[k0 + 1 : k0 + 1 + nxt.shape[0]], spread_z, out=nxt)
        np.exp(nxt, out=nxt)
    coef[t_len - 1 :] = 0.0
    associative_scan(coef.reshape(h.shape)[::-1], lam.reshape(h.shape)[::-1])
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
        if k0:
            xe_b += h_rows[k0 - 1 : k0 - 1 + n]
        else:
            xe_b[1:] += h_rows[: n - 1]  # h_{-1} = 0
        xe_b *= q_b  # g_z
        np.matmul(xe_b, sum_m_a, out=g_delta[rows])
        g_az += delta[rows].T @ xe_b
    a2 = a_row.reshape(d, m) ** 2
    g_a = np.einsum("ddm->dm", g_az.reshape(d, d, m)) - np.einsum("mdm->dm", g_recip.reshape(m, d, m)) / a2
    return g_x, g_delta, g_a, g_b, g_c


def _scan_forward(x: Array, delta: Array, a: Array, b_seq: Array, c_seq: Array) -> tuple[Array, Array]:
    """The output y (T,D) and the state h (T,D,M) of ``ssm_scan``, in one pass over row blocks of R rows.

    R is ``_block_rows(h)``. Per block, in time order: ``selective_discretize``
    writes a_bar into one reused block of scratch and b_bar * x into the
    block of h; the previous block's final state is folded into the block's
    first row; ``associative_scan`` sweeps the block; and y is one batched
    mat-vec of the block's state with c. The expanded terms never leave the
    block, so h is the only (T,D,M) buffer, computed in the widest input
    dtype. h rounds as ``associative_scan`` on the whole buffers does, and
    the mat-vec sums over M in another order than an elementwise product and
    sum: float64 outputs agree with ``zoh_factors`` and the recurrent form
    within 1e-12 relative.
    """
    t_len, d = x.shape
    m = a.shape[-1]
    dtype = np.result_type(delta, a, b_seq, x)
    h = np.empty((t_len, d, m), dtype=dtype)
    r = _block_rows(h)
    a_bar, work = np.empty((2, min(r, t_len), d, m), dtype=dtype)
    y = np.empty((t_len, d, 1), dtype=np.result_type(h, c_seq))
    for k0 in range(0, t_len, r):
        rows = slice(k0, k0 + r)
        h_b = h[rows]
        n = h_b.shape[0]
        selective_discretize(delta[rows], a, b_seq[rows], x[rows], a_bar[:n], h_b, work[:n])
        if k0:
            h_b[0] += a_bar[0] * h[k0 - 1]
        associative_scan(a_bar[:n], h_b)
        np.matmul(h_b, c_seq[rows, :, None], out=y[rows])
    return y.reshape(t_len, d), h


def ssm_scan(x, delta, a, b_seq, c_seq) -> T.Tensor:
    """Differentiable selective scan of a stack of K sequences, ZOH inside, as one tape record.

    x, delta (K,T,D); a (K,D,M); b_seq, c_seq (K,T,M) -> y (K,T,D), with
    h_t = a_bar_t * h_{t-1} + b_bar_t * x_t and y_t = c_t . h_t per sequence.
    ``_scan_forward`` runs each sequence in turn, discretizing, scanning and
    contracting one row block at a time. The record keeps the inputs and
    every sequence's h; untaped, each h goes before the next sequence runs.
    The backward, ``_scan_backward``, runs per sequence: the adjoint (itself a
    first-order recurrence) takes the same parallel scan, and the
    discretization is recomputed a row block at a time (Gu & Dao, arXiv
    2312.00752, sec. 3.3). Besides four blocks of a quarter of a forward
    block's rows, it holds two (T,D,M) buffers up to the adjoint scan and one
    after. Its float64 gradients agree with the whole-buffer composition
    within 1e-12 relative; ``zoh_factors`` with the recurrent form is the reference.
    """
    tx, td, ta, tb, tc = (T.as_tensor(v) for v in (x, delta, a, b_seq, c_seq))
    arrays = xd, dd, ad, bd, c = tx.data, td.data, ta.data, tb.data, tc.data
    k, t_len, d = xd.shape if xd.ndim == 3 else (-1, -1, -1)  # x must be a (K, T, D) stack
    m = ad.shape[-1]
    if xd.ndim != 3 or dd.shape != xd.shape or ad.shape != (k, d, m) or bd.shape != (k, t_len, m) or c.shape != bd.shape:
        raise ContractViolation(
            f"ssm_scan shape mismatch: x {xd.shape}, delta {dd.shape}, a {ad.shape}, b {bd.shape}, c {c.shape}"
        )
    if T._active_tape() is None:
        return T.Tensor(np.stack([_scan_forward(*seq)[0] for seq in zip(*arrays)]))
    ys, hs = zip(*(_scan_forward(*seq) for seq in zip(*arrays)))
    out = T.Tensor(np.stack(ys))
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
    """Full selective scan over a stack of token sequences (K, T, D) -> (K, T, D)."""
    b_seq, c_seq, delta, a = selective_params(tokens, proj)
    return ssm_scan(tokens, delta, a, b_seq, c_seq)


def init_selective_projections(
    rng: np.random.Generator,
    channels: int,
    state_dim: int,
    sequences: int,
    dtype=np.float32,
    name: str = "",
    dt_min: float = 1e-3,
    dt_max: float = 0.1,
) -> SelectiveProjections:
    """Initialization: small projections, log-spaced state decay, softplus-inverse step bias."""
    d, m = channels, state_dim
    scale = 1.0 / np.sqrt(d)
    draws = []
    for _ in range(sequences):  # one set after another: step sizes, then w_b, w_c and w_delta
        dt = np.exp(rng.uniform(np.log(dt_min), np.log(dt_max), size=(1, d)))
        w_b = rng.normal(0.0, scale, size=(d, m))
        w_c = rng.normal(0.0, scale, size=(d, m))
        draws.append((np.log(np.expm1(dt)), w_b, w_c, rng.normal(0.0, scale * 0.1, size=(d, d))))  # softplus(dt_bias) == dt
    dt_bias, w_b, w_c, w_delta = (np.stack(arrays) for arrays in zip(*draws))
    a_log = np.log(np.tile(np.arange(1, m + 1, dtype=np.float64), (sequences, d, 1)))
    mk = lambda arr, suffix: T.Param(np.asarray(arr, dtype=dtype), name=f"{name}.{suffix}" if name else suffix)
    return SelectiveProjections(
        w_b=mk(w_b, "w_b"),
        b_b=mk(np.zeros((sequences, 1, m)), "b_b"),
        w_c=mk(w_c, "w_c"),
        b_c=mk(np.zeros((sequences, 1, m)), "b_c"),
        w_delta=mk(w_delta, "w_delta"),
        b_delta=mk(dt_bias, "b_delta"),
        a_log=mk(a_log, "a_log"),
    )
