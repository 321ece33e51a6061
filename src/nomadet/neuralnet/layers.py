"""Neural network layers with exact analytic backprop, numpy only.

Tensors are C-contiguous numpy arrays in NCHW layout: every forward and
backward result is one, in its input's dtype. Every layer keeps what its
backward pass needs only from a ``training=True`` forward; an eval forward
drops it, so an inference model holds no activations, and backward needs a
training forward. Layers are single-writer: one forward/backward pair at a
time per instance.

Conv2D lowers convolution to GEMMs over im2col patch rows (Chellapilla et
al. 2006), gathered channels-last so that each kernel row of a patch is one
contiguous run (a one-channel stem gathers tap-major), one cache-sized chunk
of samples at a time in forward, weight gradient and stride-1 input gradient
alike, so only the padded input is kept (Cho & Brand, "MEC", 2017). The
kernel is the GEMM's (k*k*C, O) matrix, so no product copies it. At stride 1
the input gradient is the transposed convolution of the output gradient
(Dumoulin & Visin 2016), and a first layer can skip it altogether.

Buffers are freed at their last use (Chen et al., "Training Deep Nets with
Sublinear Memory Cost", 2016). Every backward consumes its layer's cache:
it drops what the training forward kept, so a second backward raises until
the next training forward, and no activation outlives its step.
BatchNorm2D and ReLU own the activation they are handed: they overwrite it
and return it, in training and in eval. BatchNorm2D caches its centred
input in a buffer of its own and builds its input gradient there. Conv2D,
MaxPool2, GlobalAvgPool and Dense never write their input, and no backward
writes its ``grad_out``, which a residual block hands to both its branches.
So a caller hands each activation to exactly one layer and keeps no other
reference to it; a network's input that reaches only a Conv2D stays as the
caller passed it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Conv2D", "BatchNorm2D", "ReLU", "MaxPool2", "GlobalAvgPool", "Dense",
    "softmax", "softmax_cross_entropy", "he_uniform",
]


def he_uniform(shape, fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Common bookkeeping: ordered params/grads plus optional buffers."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._cache = None

    def _take_cache(self):
        """What the last training forward kept, handed over to its one backward."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called before forward(training=True)")
        return cache

    def state_tensors(self):
        yield from self.params.items()
        yield from self.buffers.items()


# Conv2D's forward, weight gradient and stride-1 input gradient lower about
# this many bytes of patch rows at a time, so each chunk is multiplied from cache
_CHUNK_BYTES = 1 << 20


def _windows(x: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    """One read-only (B, OH, OW, k, k, C) strided view of the k*k windows, at
    stride ``s``, of the channels-last (B, H, W, C) ``x`` zero-padded by ``p``
    into a new buffer, which no caller's array aliases; each kernel row of a
    window is k*C contiguous values."""
    B, H, W, C = x.shape
    if H + 2 * p < k or W + 2 * p < k:
        raise ValueError(f"spatial size {H + 2 * p}x{W + 2 * p} smaller than kernel {k}")
    if k == 1 and p == 0:  # unpadded 1x1 windows read only every s-th pixel: copy just those
        x, H, W, s = x[:, ::s, ::s], (H - 1) // s + 1, (W - 1) // s + 1, 1
    padded = np.zeros((B, H + 2 * p, W + 2 * p, C), dtype=x.dtype)
    padded[:, p:p + H, p:p + W] = x
    sb, sh, sw, sc = padded.strides
    shape = (B, (H + 2 * p - k) // s + 1, (W + 2 * p - k) // s + 1, k, k, C)
    return np.lib.stride_tricks.as_strided(
        padded, shape, (sb, s * sh, s * sw, sh, sw, sc), writeable=False)


def _chunks(win: np.ndarray) -> list[slice]:
    """Runs of at least one sample of ``win``, each about ``_CHUNK_BYTES`` of patch rows."""
    step = max(1, _CHUNK_BYTES // (win[0].size * win.itemsize))
    return [slice(b, b + step) for b in range(0, len(win), step)]


class Conv2D(Layer):
    """Cross-correlation with stride, zero-padded by (k-1)//2 (im2col).

    A training forward caches only the (B, OH, OW, k, k, C) window view of
    its input, padded once channels-last, never a patch matrix. Forward and
    weight gradient copy (rows, k*k*C) patch rows from it about
    ``_CHUNK_BYTES`` of samples at a time and multiply each chunk from
    cache, by the (k*k*C, O) kernel and as ``chunk.T @ grad_rows``. At stride
    1 the input gradient is the transposed convolution of ``grad_out``: the
    same chunked lowering of the channels-last ``grad_out``, padded by
    ``k-1-p``, times the kernel flipped in both spatial axes with its in/out
    channels swapped. Strided convs turn ``grad_rows`` into patch gradients
    with one GEMM and add them back with k*k strided adds into a
    channels-last buffer. Results become contiguous NCHW only at the end.

    A one-channel stride-1 conv (the stem) would gather runs of only k values
    that way, so it copies its windows tap-major, one sample's (k*k, OH*OW)
    rows at a time in runs of OW values, for forward and weight gradient.
    ``backward(..., input_grad=False)`` skips the input gradient for a
    first layer, whose input needs none.

    The kernel is a C-contiguous (k, k, C, O) buffer, the (k*k*C, O) matrix,
    and ``params["w"]`` is its (O, C, k, k) view: every product reads it, or
    its transpose, without a copy, and ``grads["w"]`` is laid out the same.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride = kernel, stride
        self.pad = (kernel - 1) // 2
        self.tap_major = in_ch == 1 and stride == 1
        w = he_uniform((out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel, rng, dtype)
        self.params["w"] = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1)
        self.params["b"] = np.zeros(out_ch, dtype=dtype)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.pad
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ValueError(
                f"expected NCHW input with {self.in_ch} channels, got {x.shape}"
            )
        k, O, w = self.kernel, self.out_ch, self.params["w"]
        win = _windows(x.transpose(0, 2, 3, 1), k, self.stride, self.pad)
        B, OH, OW = win.shape[:3]
        if self.tap_major:
            taps = win.transpose(0, 3, 4, 5, 1, 2)
            out = np.empty((B, O, OH, OW), dtype=x.dtype)
            for b in range(B):
                np.matmul(w.reshape(O, -1), taps[b].reshape(k * k, -1), out=out[b].reshape(O, -1))
            out += self.params["b"][:, None, None]
        else:
            kernel = w.transpose(2, 3, 1, 0).reshape(-1, O)
            out = np.empty((B, OH, OW, O), dtype=x.dtype)
            for c in _chunks(win):
                np.matmul(win[c].reshape(-1, len(kernel)), kernel, out=out[c].reshape(-1, O))
            out += self.params["b"]
            out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
        self._cache = (win, x.shape) if training else None
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        xwin, (B, C, H, W) = self._take_cache()
        k, s, p = self.kernel, self.stride, self.pad
        O, OH, OW = grad_out.shape[1:]
        w = self.params["w"]
        g_cl = grad_out.transpose(0, 2, 3, 1)
        if self.tap_major:
            g3 = grad_out.reshape(B, O, -1)
            parts = (xwin[b].transpose(2, 3, 4, 0, 1).reshape(k * k, -1) @ g3[b].T
                     for b in range(B))
        else:
            g_cl = np.ascontiguousarray(g_cl)
            parts = (xwin[c].reshape(-1, k * k * C).T @ g_cl[c].reshape(-1, O)
                     for c in _chunks(xwin))
        # gw is (k*k*C, O) in patch-row order, the layout of the kernel buffer
        gw = next(parts)
        for part in parts:
            gw += part
        del xwin, parts  # the padded input's last use: free it before the input gradient
        self.grads["w"] = gw.reshape(k, k, C, O).transpose(3, 2, 0, 1)
        self.grads["b"] = grad_out.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        if s == 1:
            flipped = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, C)
            win = _windows(g_cl, k, 1, k - 1 - p)
            del g_cl  # the windows read their own padded copy
            gx = np.empty((B, H, W, C), dtype=grad_out.dtype)
            for c in _chunks(win):
                np.matmul(win[c].reshape(-1, k * k * O), flipped, out=gx[c].reshape(-1, C))
            del win  # free the padded copy before the NCHW copy
            return np.ascontiguousarray(gx.transpose(0, 3, 1, 2))
        # (B, OH, OW, k, k, C): patch gradients, added back tap by tap
        gpatch = (g_cl.reshape(-1, O) @ w.transpose(0, 2, 3, 1).reshape(O, -1)
                  ).reshape(B, OH, OW, k, k, C)
        del g_cl
        gx = np.zeros((B, H + 2 * p, W + 2 * p, C), dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                gx[:, i:i + s * OH:s, j:j + s * OW:s] += gpatch[:, :, :, i, j]
        del gpatch  # free it before the NCHW copy
        return np.ascontiguousarray(gx[:, p:p + H, p:p + W].transpose(0, 3, 1, 2))


def _channel_sums(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sums over (N, H, W) of the NCHW ``x``, or of ``x * y``, in
    float64: one BLAS dot per (sample, channel) row, the rows added in float64."""
    B, C = x.shape[:2]
    rows = x.reshape(B * C, 1, -1)
    other = np.ones((1, rows.shape[2], 1), x.dtype) if y is None else y.reshape(B * C, -1, 1)
    return (rows @ other).reshape(B, C).sum(axis=0, dtype=np.float64)


class BatchNorm2D(Layer):
    """Per-channel batch normalisation over (N, H, W).

    A training forward takes the mean, centres the input once into a new
    buffer ``xc``, takes the variance from ``xc`` (two passes, so a mean far
    larger than the spread does not cancel) and writes ``xc * scale + beta``
    over its input. It caches ``xc``, which backward then turns in place into
    the input gradient: one training forward serves one backward. An eval
    forward scales and shifts its input in place. Batch statistics are
    summed in float64 and applied in the input's dtype.
    """

    eps, momentum = 1e-5, 0.9

    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.params["gamma"] = np.ones(channels, dtype=dtype)
        self.params["beta"] = np.zeros(channels, dtype=dtype)
        self.buffers["running_mean"] = np.zeros(channels, dtype=dtype)
        self.buffers["running_var"] = np.ones(channels, dtype=dtype)
        # the EMA warm-starts at the first observed batch so inference-mode
        # statistics are usable from the first epoch
        self._stats_seen = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(f"expected NCHW with {self.channels} channels, got {x.shape}")
        gamma = self.params["gamma"].reshape(1, -1, 1, 1)
        beta = self.params["beta"].reshape(1, -1, 1, 1)
        if training:
            if x.shape[0] < 2:
                raise ValueError("batch normalisation needs batch size >= 2 in training mode")
            n = x.size // self.channels
            mu = _channel_sums(x) / n
            xc = x - mu.astype(x.dtype).reshape(1, -1, 1, 1)
            var = _channel_sums(xc, xc) / n
            invstd = 1.0 / np.sqrt(var + self.eps)
            m = self.momentum if self._stats_seen else 0.0
            self._stats_seen = True
            self.buffers["running_mean"][...] = m * self.buffers["running_mean"] + (1.0 - m) * mu
            self.buffers["running_var"][...] = m * self.buffers["running_var"] + (1.0 - m) * var
            self._cache = (xc, invstd)
            np.multiply(xc, (gamma * invstd.reshape(1, -1, 1, 1)).astype(x.dtype), out=x)
            shift = beta
        else:
            # one pass: gamma * (x - mean) / std + beta as x * scale + shift
            self._cache = None
            scale = gamma / np.sqrt(self.buffers["running_var"].reshape(1, -1, 1, 1) + self.eps)
            shift = beta - self.buffers["running_mean"].reshape(1, -1, 1, 1) * scale
            x *= scale
        x += shift
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xc, invstd = self._take_cache()
        n = grad_out.size // self.channels
        dtype = grad_out.dtype
        sum_g = _channel_sums(grad_out)
        sum_gxc = _channel_sums(grad_out, xc)
        self.grads["gamma"] = (sum_gxc * invstd).astype(dtype)
        self.grads["beta"] = sum_g.astype(dtype)
        # gamma*invstd * (g - mean(g) - xc * invstd^2 * mean(g*xc)), built in
        # xc's buffer as a * (xc * k1 + g + k0)
        k1, k0, a = (v.astype(dtype).reshape(1, -1, 1, 1) for v in (
            -invstd ** 2 * sum_gxc / n, -sum_g / n, self.params["gamma"] * invstd))
        xc *= k1
        xc += grad_out
        xc += k0
        xc *= a
        return xc


class ReLU(Layer):
    """max(x, 0), written over its input."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0 if training else None
        return np.maximum(x, 0, out=x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._take_cache()


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; ties route the gradient to the first max.

    Window positions are taken in row-major order: top-left, top-right,
    bottom-left, bottom-right. An odd trailing row or column is cropped and
    gets zero gradient.
    """

    @staticmethod
    def _taps(x: np.ndarray):
        """The four window positions of ``x`` as strided views, in tie order."""
        h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
        return [x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, C, H, W = x.shape
        if H < 2 or W < 2:
            raise ValueError(f"input {H}x{W} too small for 2x2 pooling")
        taps = self._taps(x)
        out = np.maximum(np.maximum(taps[0], taps[1]), np.maximum(taps[2], taps[3]))
        self._cache = None
        if not training:
            return out
        # route each window to its first maximum: a tap wins where it equals
        # the max and no earlier tap has won
        free = np.ones(out.shape, dtype=bool)
        masks = []
        for tap in taps:
            won = tap == out
            won &= free
            free ^= won
            masks.append(won)
        self._cache = (masks, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        masks, (B, C, H, W) = self._take_cache()
        # the windows cover every element once, except an odd trailing row or column
        gx = np.empty((B, C, H, W), dtype=grad_out.dtype)
        gx[:, :, H // 2 * 2:] = 0
        gx[:, :, :, W // 2 * 2:] = 0
        for view, won in zip(self._taps(gx), masks):
            np.multiply(grad_out, won, out=view)
        return gx


class GlobalAvgPool(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape if training else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        B, C, H, W = self._take_cache()
        return np.broadcast_to(
            grad_out[:, :, None, None] / (H * W), (B, C, H, W)).astype(grad_out.dtype)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.params["w"] = he_uniform((in_features, out_features), in_features, rng, dtype)
        self.params["b"] = np.zeros(out_features, dtype=dtype)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.params["w"].shape[0]:
            raise ValueError(
                f"expected (B, {self.params['w'].shape[0]}) input, got {x.shape}")
        self._cache = x if training else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        self.grads["w"] = x.T @ grad_out
        self.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ self.params["w"].T


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy over the batch plus the gradient wrt logits.

    ``targets`` must be one-hot rows; the computation is log-sum-exp
    stabilised. Returns (loss, grad_logits) with grad = (softmax - y)/B.
    """
    if logits.shape != targets.shape:
        raise ValueError(f"logits {logits.shape} and targets {targets.shape} differ")
    onehot_ok = np.all((targets == 0) | (targets == 1)) and np.all(targets.sum(axis=1) == 1)
    if not onehot_ok:
        raise ValueError("targets must be one-hot rows")
    B = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = float(-(targets * logp).sum() / B)
    grad = (np.exp(logp) - targets) / B
    return loss, grad.astype(logits.dtype)
