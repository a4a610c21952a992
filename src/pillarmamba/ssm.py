"""State-space scan engine.

Three mutually verified execution forms of the discrete recurrence
``h_t = a_bar * h_{t-1} + b_bar * x_t``, ``y_t = c_bar . h_t``:

* ``scan_recurrent`` — exact sequential evaluation (the oracle),
* ``scan_kernel`` / ``apply_conv_form`` — causal global convolution,
  valid for time-invariant parameters only,
* ``scan_parallel`` — work-efficient prefix scan (Brent-Kung, in place on
  strided views) over the associative lift
  ``(a, u) o (a', u') = (a*a', a'*u + u')``.

Plus zero-order-hold discretization and the input-conditioned (selective)
parameterization used by the network path, differentiable on the tape; the
network's scan runs the parallel form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractViolation

Array = np.ndarray

ZOH_SERIES_SWITCH = 1e-6  # |delta * a| below this uses the series branch


# ---------------------------------------------------------------------------
# parameter containers (single-channel, time-invariant contract types)
# ---------------------------------------------------------------------------


@dataclass
class SsmParamsContinuous:
    """Diagonal continuous parameters: a (M,), b (M,), c (M,), delta scalar or (T,)."""

    a: Array
    b: Array
    c: Array
    delta: Array

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if np.any(self.a > 0):
            raise ConfigurationError("continuous state matrix entries must be nonpositive")
        if np.any(self.delta <= 0):
            raise ConfigurationError(f"delta must be positive, got min {self.delta.min()}")


@dataclass
class SsmParamsDiscrete:
    """Diagonal discrete parameters; time-invariant shapes (M,)."""

    a_bar: Array
    b_bar: Array
    c_bar: Array

    def __post_init__(self):
        self.a_bar = np.asarray(self.a_bar, dtype=np.float64)
        self.b_bar = np.asarray(self.b_bar, dtype=np.float64)
        self.c_bar = np.asarray(self.c_bar, dtype=np.float64)


@dataclass
class ScanSequence:
    """Input sequence x (T,) or (T, D) with optional output and initial state."""

    x: Array
    y: Array | None = None
    h0: Array | None = None


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


def discretize_zoh(cont: SsmParamsContinuous) -> SsmParamsDiscrete:
    """Zero-order-hold discretization of diagonal continuous parameters.

    Per-step delta (T,) broadcasts against a (M,) to per-step (T, M) discrete
    parameters; scalar delta keeps the time-invariant (M,) shapes.
    """
    if np.any(cont.delta <= 0):
        raise ConfigurationError("delta must be positive")
    delta = cont.delta if cont.delta.ndim == 0 else cont.delta[:, None]
    a_bar, scale = zoh_factors(cont.a, delta)
    return SsmParamsDiscrete(a_bar=a_bar, b_bar=scale * cont.b, c_bar=np.broadcast_to(cont.c, a_bar.shape).copy())


# ---------------------------------------------------------------------------
# reference scans (numpy, double precision)
# ---------------------------------------------------------------------------


def _canon_tdm(p: Array, t: int, d: int, m: int) -> Array:
    """Broadcast (M,), (D,M), (T,M) is ambiguous -> disallowed, (T,D,M) to (T,D,M)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, None, :]
    elif p.ndim == 2:
        p = p[None, :, :]
    elif p.ndim != 3:
        raise ContractViolation(f"parameter rank must be 1..3, got shape {p.shape}")
    return np.broadcast_to(p, (t, d, m))


def scan_recurrent_arrays(a_bar: Array, b_bar: Array, c_bar: Array, x: Array, h0: Array | None = None) -> Array:
    """Sequential oracle. x: (T, D); params broadcastable to (T, D, M). Returns y (T, D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, d = x.shape
    m = np.asarray(a_bar).shape[-1]
    ab = _canon_tdm(a_bar, t_len, d, m)
    bb = _canon_tdm(b_bar, t_len, d, m)
    cb = _canon_tdm(c_bar, t_len, d, m)
    h = np.zeros((d, m), dtype=np.float64) if h0 is None else np.array(h0, dtype=np.float64)
    y = np.zeros((t_len, d), dtype=np.float64)
    for t in range(t_len):
        h = ab[t] * h + bb[t] * x[t][:, None]
        y[t] = (cb[t] * h).sum(axis=-1)
    return y


def scan_recurrent(disc: SsmParamsDiscrete, seq: ScanSequence) -> ScanSequence:
    """Fill seq.y by exact sequential evaluation of the discrete recurrence."""
    squeeze = np.asarray(seq.x).ndim == 1
    y = scan_recurrent_arrays(disc.a_bar, disc.b_bar, disc.c_bar, seq.x, seq.h0)
    seq.y = y[:, 0] if squeeze else y
    return seq


def scan_kernel(disc: SsmParamsDiscrete, t_len: int) -> Array:
    """Causal convolution kernel K[k] = sum_i c_i * a_i^k * b_i, length T.

    Time-invariant parameters only: per-step parameter arrays are rejected.
    """
    if disc.a_bar.ndim != 1 or disc.b_bar.ndim != 1 or disc.c_bar.ndim != 1:
        raise ContractViolation(
            "scan_kernel requires time-invariant (M,) parameters; "
            f"got shapes {disc.a_bar.shape}/{disc.b_bar.shape}/{disc.c_bar.shape}"
        )
    powers = np.ones((t_len, disc.a_bar.shape[0]), dtype=np.float64)
    if t_len > 1:
        powers[1:] = np.cumprod(np.broadcast_to(disc.a_bar, (t_len - 1, disc.a_bar.shape[0])), axis=0)
    return powers @ (disc.c_bar * disc.b_bar)


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


def associative_scan(coeff: Array, update: Array, h0: Array | None = None) -> Array:
    """Inclusive prefix evaluation of h_t = coeff_t * h_{t-1} + update_t.

    Brent-Kung sweep over the associative composition
    (a, u) o (a', u') = (a*a', a'*u + u'), in place on one copy of each
    input through basic strided views, with no padding. The up-sweep leaves
    at each position 2s*k - 1 the composition of the length-2s block ending
    there; the down-sweep completes positions (2k+1)*s - 1 from the finished
    prefixes s before them. A finished prefix is read only for its state, so
    the down-sweep never updates coefficients and the top up-sweep level
    skips them. h0 enters as u_0 += a_0 * h0. The combine order is fixed,
    so results are deterministic for a given length; the inputs are not
    modified.
    """
    dtype = np.result_type(coeff, update) if h0 is None else np.result_type(coeff, update, h0)
    a = np.array(coeff, dtype=dtype)
    u = np.array(np.broadcast_to(update, a.shape), dtype=dtype)
    t_len = a.shape[0]
    if t_len == 0:
        return u
    if h0 is not None:
        u[0] += a[0] * h0

    s = 1
    while 2 * s <= t_len:
        hi = slice(2 * s - 1, None, 2 * s)
        lo = slice(s - 1, t_len - s, 2 * s)
        u[hi] += a[hi] * u[lo]
        if 4 * s <= t_len:
            a[hi] *= a[lo]
        s *= 2
    while s > 1:
        s //= 2
        u[3 * s - 1 :: 2 * s] += a[3 * s - 1 :: 2 * s] * u[2 * s - 1 : t_len - s : 2 * s]
    return u


def scan_parallel_arrays(a_bar: Array, b_bar: Array, c_bar: Array, x: Array, h0: Array | None = None) -> Array:
    """Parallel-scan evaluation; same contract as scan_recurrent_arrays."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t_len, d = x.shape
    m = np.asarray(a_bar).shape[-1]
    ab = _canon_tdm(a_bar, t_len, d, m)
    bb = _canon_tdm(b_bar, t_len, d, m)
    cb = _canon_tdm(c_bar, t_len, d, m)
    h = associative_scan(ab, bb * x[:, :, None], h0=h0)
    return (cb * h).sum(axis=-1)


def scan_parallel(disc: SsmParamsDiscrete, seq: ScanSequence) -> ScanSequence:
    squeeze = np.asarray(seq.x).ndim == 1
    y = scan_parallel_arrays(disc.a_bar, disc.b_bar, disc.c_bar, seq.x, seq.h0)
    seq.y = y[:, 0] if squeeze else y
    return seq


# ---------------------------------------------------------------------------
# differentiable fused scan (network path)
# ---------------------------------------------------------------------------


def ssm_scan(x, a_bar, b_bar, c_seq) -> T.Tensor:
    """Differentiable selective scan: x (T,D), a_bar/b_bar (T,D,M), c (T,M) -> y (T,D).

    The forward state and the backward adjoint (itself a first-order
    recurrence) are both evaluated by the parallel scan; the recurrent and
    convolution forms are the verified references.
    """
    tx, ta, tb, tc = (T.as_tensor(v) for v in (x, a_bar, b_bar, c_seq))
    xd, ab, bb, c = tx.data, ta.data, tb.data, tc.data
    t_len, d = xd.shape
    m = ab.shape[-1]
    if ab.shape != (t_len, d, m) or bb.shape != (t_len, d, m) or c.shape != (t_len, m):
        raise ContractViolation(
            f"ssm_scan shape mismatch: x {xd.shape}, a_bar {ab.shape}, b_bar {bb.shape}, c {c.shape}"
        )
    h = associative_scan(ab, bb * xd[:, :, None])
    y = np.einsum("tm,tdm->td", c, h)
    out = T.Tensor(y)

    def bwd(gy):
        # adjoint lambda_t = c_t*gy_t + a_{t+1}*lambda_{t+1}: reversed first-order recurrence
        gh = c[:, None, :] * gy[:, :, None]
        # reversed position k needs a_{T-k}; position 0 only multiplies the zero initial state
        coeff_rev = np.roll(ab[::-1], 1, axis=0)
        lam = associative_scan(coeff_rev, gh[::-1])[::-1]
        g_ab = np.empty_like(lam)
        g_ab[:1] = 0.0
        np.multiply(lam[1:], h[:-1], out=g_ab[1:])
        g_bb = lam * xd[:, :, None]
        g_x = np.einsum("tdm,tdm->td", lam, bb)
        g_c = np.einsum("td,tdm->tm", gy, h)
        return g_x, g_ab, g_bb, g_c

    T._record(out, (tx, ta, tb, tc), bwd)
    return out


# ---------------------------------------------------------------------------
# selective (input-conditioned) parameterization
# ---------------------------------------------------------------------------


@dataclass
class SelectiveProjections:
    """Per-direction projections mapping tokens to scan parameters.

    b/c projections: (D, M) + (M,) bias; delta projection: (D, D) + (D,) bias
    (one positive step size per channel via softplus); a_log: (D, M) with
    a = -exp(a_log) strictly negative.
    """

    w_b: T.Param
    b_b: T.Param
    w_c: T.Param
    b_c: T.Param
    w_delta: T.Param
    b_delta: T.Param
    a_log: T.Param


def selective_params(tokens, proj: SelectiveProjections):
    """Compute per-step (b_seq, c_seq, delta) and static a from tokens (T, D)."""
    b_seq = T.add(T.matmul(tokens, proj.w_b), proj.b_b)  # (T, M)
    c_seq = T.add(T.matmul(tokens, proj.w_c), proj.b_c)  # (T, M)
    delta = T.softplus(T.add(T.matmul(tokens, proj.w_delta), proj.b_delta))  # (T, D)
    a = T.neg(T.texp(proj.a_log))  # (D, M), strictly negative
    return b_seq, c_seq, delta, a


def selective_discretize(delta, a, b_seq):
    """Per-step ZOH on the tape: (T,D) delta, (D,M) a, (T,M) b -> (T,D,M) a_bar, b_bar.

    The exact input scale expm1(z)/a is well-conditioned here because a is
    strictly negative on the selective path.
    """
    t_len, d = T.value(delta).shape
    m = T.value(a).shape[-1]
    delta3 = T.reshape(delta, (t_len, d, 1))
    a3 = T.reshape(a, (1, d, m))
    z = T.mul(delta3, a3)
    a_bar = T.texp(z)
    b3 = T.reshape(b_seq, (t_len, 1, m))
    scale = T.mul(T.texpm1(z), T.reciprocal(a3))
    b_bar = T.mul(scale, b3)
    return a_bar, b_bar


def selective_scan_tokens(tokens, proj: SelectiveProjections) -> T.Tensor:
    """Full selective scan over a token sequence (T, D) -> (T, D)."""
    b_seq, c_seq, delta, a = selective_params(tokens, proj)
    a_bar, b_bar = selective_discretize(delta, a, b_seq)
    return ssm_scan(tokens, a_bar, b_bar, c_seq)


def init_selective_projections(
    rng: np.random.Generator,
    channels: int,
    state_dim: int,
    dtype=np.float32,
    name: str = "",
    dt_min: float = 1e-3,
    dt_max: float = 0.1,
) -> SelectiveProjections:
    """Initialization: small projections, log-spaced state decay, softplus-inverse step bias."""
    d, m = channels, state_dim
    scale = 1.0 / np.sqrt(d)
    dt = np.exp(rng.uniform(np.log(dt_min), np.log(dt_max), size=d))
    dt_bias = np.log(np.expm1(dt))  # softplus(dt_bias) == dt
    a_log = np.log(np.tile(np.arange(1, m + 1, dtype=np.float64), (d, 1)))
    mk = lambda arr, suffix: T.Param(np.asarray(arr, dtype=dtype), name=f"{name}.{suffix}" if name else suffix)
    return SelectiveProjections(
        w_b=mk(rng.normal(0.0, scale, size=(d, m)), "w_b"),
        b_b=mk(np.zeros(m), "b_b"),
        w_c=mk(rng.normal(0.0, scale, size=(d, m)), "w_c"),
        b_c=mk(np.zeros(m), "b_c"),
        w_delta=mk(rng.normal(0.0, scale * 0.1, size=(d, d)), "w_delta"),
        b_delta=mk(dt_bias, "b_delta"),
        a_log=mk(a_log, "a_log"),
    )
