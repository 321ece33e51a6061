"""Neural network layers with exact analytic backprop, numpy only.

Tensors have NCHW shapes, and every 4-D result is contiguous, in its
input's dtype, in one of two layouts that its strides record: NCHW, or
channels-last, whose (N, H, W, C) transpose is C-contiguous. Conv2D and
Stem return their GEMMs' channels-last rows through ``transpose(0, 3, 1,
2)``, Conv2D's input gradient included. BatchNorm2D, ReLU and MaxPool2 keep
their input's layout, and ReLU's gradient takes that of its forward input.
So in a network every activation and gradient, from the stem's result on,
is channels-last, and a step converts no layout. MaxPool2's gradient is
NCHW; GlobalAvgPool and Dense return C-contiguous (B, C) rows. Batch
statistics are summed channels-last: in place in a network, and through
one copy of an operand in any other layout.

Every layer keeps what its backward pass needs only from a
``training=True`` forward; an eval forward drops it, so an inference model
holds no activations, and backward needs a training forward. Layers are
single-writer: one forward/backward pair at a time per instance.

Conv2D lowers convolution to GEMMs over im2col patch rows (Chellapilla et
al. 2006), gathered channels-last so that each kernel row of a patch is one
contiguous run, one cache-sized chunk of samples at a time in forward,
weight gradient and stride-1 input gradient alike, so only the padded input
is kept (Cho & Brand, "MEC", 2017). The kernel is the GEMM's (k*k*C, O)
matrix, so no product copies it. At stride 1 the input gradient is the
transposed convolution of the output gradient (Dumoulin & Visin 2016); at
stride 2 it splits into the four sub-pixel convolutions that fill the
input's four parity planes (Shi et al., CVPR 2016). Stem runs the first
conv, batch norm (Ioffe & Szegedy, ICML 2015), 2x2 max pool and ReLU on the
pooling phase planes of the conv output, keeping no full-size buffer.

Buffers are freed at their last use (Chen et al., "Training Deep Nets with
Sublinear Memory Cost", 2016). Every backward consumes its layer's cache:
it drops what the training forward kept, so a second backward raises until
the next training forward, and no activation outlives its step.
BatchNorm2D and ReLU own the activation they are handed: they overwrite it
and return it, in training and in eval. BatchNorm2D caches its centred
input in a buffer of its own and builds its input gradient there. Conv2D,
MaxPool2, Stem, GlobalAvgPool and Dense never write their input, and no
backward writes its ``grad_out``, which a residual block hands to both its
branches. So a caller hands each activation to exactly one layer and keeps
no other reference to it; a network's input, which reaches only the Stem,
stays as the caller passed it.

A layer's ``params``, ``buffers`` and ``grads`` entries are views of two flat
buffers that a ``FlatState`` lays out: a network declares every layer's
tensors in one of them, and a layer built without one gets its own. The
gradients start at zero, and no flag tracks whether a backward has filled
them: every backward overwrites its part in place, allocating no gradient.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FlatState", "Conv2D", "BatchNorm2D", "ReLU", "MaxPool2", "Stem", "GlobalAvgPool", "Dense",
    "softmax", "softmax_cross_entropy", "he_uniform",
]


def he_uniform(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He et al.'s uniform draw, in float64; assigning it to a view casts it."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class FlatState:
    """Lays out the tensors of a set of layers in two flat buffers.

    Layers declare their tensors while they are built, as ``(key, shape,
    fill)`` or ``(key, shape, fill, view)`` entries. ``allocate`` then
    places every parameter, then every running statistic, in declaration
    order in one ``state`` buffer, and the gradients in a ``grads`` buffer
    with the layout of the parameter part, zero until a backward overwrites
    it, so a step before any backward moves nothing. Each entry of a layer's
    ``params``, ``buffers`` and ``grads`` becomes a view of its C-contiguous
    ``shape`` slot, through ``view`` if given, and each value is set to its
    fill: a number, or a callable called at allocation, in declaration order.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self._params, self._buffers = [], []

    def declare(self, layer, dtype, params=(), buffers=()) -> None:
        if np.dtype(dtype) != self.dtype:
            raise ValueError(f"layer dtype {np.dtype(dtype)} differs from its store's {self.dtype}")
        self._params += [(layer, *entry) for entry in params]
        self._buffers += [(layer, *entry) for entry in buffers]

    def allocate(self) -> tuple[np.ndarray, np.ndarray]:
        """The (state, grads) buffers, with every declared entry bound to them."""
        entries = self._params + self._buffers
        sizes = [math.prod(shape) for _, _, shape, *_ in entries]
        state = np.empty(sum(sizes), self.dtype)
        grads = np.zeros(sum(sizes[:len(self._params)]), self.dtype)
        offset = 0
        for i, (layer, key, shape, fill, *view) in enumerate(entries):
            slot = slice(offset, offset + sizes[i])
            offset = slot.stop
            shaped = view[0] if view else (lambda a: a)
            value = shaped(state[slot].reshape(shape))
            value[...] = fill() if callable(fill) else fill
            if i < len(self._params):
                layer.params[key] = value
                layer.grads[key] = shaped(grads[slot].reshape(shape))
            else:
                layer.buffers[key] = value
        return state, grads


class Layer:
    """Common bookkeeping: ordered params/grads plus optional buffers."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._cache = None

    def _declare(self, store: FlatState | None, dtype, params=(), buffers=()) -> None:
        """Declare this layer's ``FlatState`` entries in ``store``, or, when it
        is None, in a store of the layer's own that is allocated at once."""
        own = FlatState(dtype) if store is None else store
        own.declare(self, dtype, params, buffers)
        if store is None:
            own.allocate()

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


# Conv2D's forward, weight gradient and stride-1 input gradient, and Stem's
# passes, lower about this many bytes of patch rows at a time, so each chunk
# is multiplied from cache
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
    # the ndarray constructor builds the view in a fraction of as_strided's time
    win = np.ndarray(shape, x.dtype, padded, 0, (sb, s * sh, s * sw, sh, sw, sc))
    win.flags.writeable = False
    return win


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
    channels swapped. At stride s > 1 the input gradient is built in the s*s
    phase planes of the padded input, the pixels whose row and column are
    each fixed modulo s: the four parity planes at stride 2. Tap (i, j)
    reaches only the plane (i % s, j % s), in a contiguous block of it, so
    each tap is one (rows, O) @ (O, C) GEMM added into that block, taps in
    row-major order, and s*s strided copies then move the planes into the
    result. An unpadded 1x1 conv writes its one tap straight onto the pixels
    its stride reaches.

    Every GEMM writes channels-last rows: forward and input gradient return
    that buffer as its NCHW-shaped ``transpose(0, 3, 1, 2)`` view, and a
    channels-last ``grad_out`` is read in place, its bias gradient the column
    sum of its (rows, O) matrix.

    The kernel is a C-contiguous (k, k, C, O) buffer, the (k*k*C, O) matrix,
    and ``params["w"]`` is its (O, C, k, k) view: every product reads it, or
    its transpose, without a copy, and ``grads["w"]`` is laid out the same.
    The weight gradient's first chunk is multiplied straight into it.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32, store: FlatState | None = None):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride = kernel, stride
        self.pad = (kernel - 1) // 2
        shape, fan_in = (out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel
        self._declare(store, dtype, params=[
            ("w", (kernel, kernel, in_ch, out_ch), lambda: he_uniform(shape, fan_in, rng),
             lambda base: base.transpose(3, 2, 0, 1)),
            ("b", (out_ch,), 0),
        ])

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.pad
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ValueError(
                f"expected NCHW input with {self.in_ch} channels, got {x.shape}"
            )
        O = self.out_ch
        win = _windows(x.transpose(0, 2, 3, 1), self.kernel, self.stride, self.pad)
        B, OH, OW = win.shape[:3]
        kernel = self.params["w"].transpose(2, 3, 1, 0).reshape(-1, O)
        out = np.empty((B, OH, OW, O), dtype=x.dtype)
        for c in _chunks(win):
            np.matmul(win[c].reshape(-1, len(kernel)), kernel, out=out[c].reshape(-1, O))
        out += self.params["b"]
        self._cache = (win, x.shape) if training else None
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xwin, (B, C, H, W) = self._take_cache()
        k, s, p = self.kernel, self.stride, self.pad
        O, OH, OW = grad_out.shape[1:]
        w = self.params["w"]
        g_cl = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))  # a no-op if channels-last
        pairs = ((xwin[c].reshape(-1, k * k * C).T, g_cl[c].reshape(-1, O))
                 for c in _chunks(xwin))
        # the column sum as one BLAS product: a few times faster than np.sum(axis=0)
        np.matmul(np.ones(B * OH * OW, g_cl.dtype), g_cl.reshape(-1, O), out=self.grads["b"])
        # the (k*k*C, O) kernel gradient in patch-row order, the layout of the kernel buffer
        gw = self.grads["w"].transpose(2, 3, 1, 0).reshape(-1, O)
        np.matmul(*next(pairs), out=gw)
        for rows, g in pairs:
            gw += rows @ g
            del rows, g  # free this chunk's patch rows before the next is copied
        del xwin, pairs  # the padded input's last use: free it before the input gradient
        dtype = grad_out.dtype
        if s == 1:
            flipped = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, C)
            win = _windows(g_cl, k, 1, k - 1 - p)
            del g_cl  # the windows read their own padded copy
            gx = np.empty((B, H, W, C), dtype=dtype)
            for c in _chunks(win):
                np.matmul(win[c].reshape(-1, k * k * O), flipped, out=gx[c].reshape(-1, C))
            return gx.transpose(0, 3, 1, 2)
        # strided: the phase planes of the padded input gradient (class docstring)
        kernel, g_rows = w.transpose(2, 3, 1, 0), g_cl.reshape(-1, O)
        tap = np.empty((B, OH, OW, C), dtype=dtype)
        if k == 1:  # the one tap, unpadded, goes straight to its pixels
            np.matmul(g_rows, kernel[0, 0].T, out=tap.reshape(-1, C))
            gx = np.zeros((B, H, W, C), dtype=dtype)
            gx[:, ::s, ::s] = tap
            return gx.transpose(0, 3, 1, 2)
        planes = np.zeros((s, s, B, -(-(H + 2 * p) // s), -(-(W + 2 * p) // s), C), dtype=dtype)
        for i in range(k):
            for j in range(k):
                np.matmul(g_rows, kernel[i, j].T, out=tap.reshape(-1, C))
                planes[i % s, j % s, :, i // s:i // s + OH, j // s:j // s + OW] += tap
        del g_cl, g_rows, tap
        gx = np.empty((B, H, W, C), dtype=dtype)
        for a in range(s):
            for b in range(s):
                phase = gx[:, a::s, b::s]
                (y0, pa), (x0, pb) = divmod(a + p, s), divmod(b + p, s)
                phase[...] = planes[pa, pb, :, y0:y0 + phase.shape[1], x0:x0 + phase.shape[2]]
        return gx.transpose(0, 3, 1, 2)


def _channel_sums(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sums over (N, H, W) of ``x``, or of ``x * y``, in float64.

    Each operand is read channels-last: in place if it is, as in a network,
    else through one copy. A sample's sums, one (1, HW) @ (HW, C) product or
    one ``einsum``, are taken in ``x``'s dtype and added in float64."""
    B, C = x.shape[:2]
    rows = [np.ascontiguousarray(a.transpose(0, 2, 3, 1)).reshape(B, -1, C)
            for a in (x, y) if a is not None]
    per_sample = (np.ones((1, rows[0].shape[1]), x.dtype) @ rows[0] if y is None else
                  np.einsum("bnc,bnc->bc", *rows))
    return per_sample.reshape(B, C).sum(axis=0, dtype=np.float64)


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

    def __init__(self, channels: int, dtype=np.float32, *, store: FlatState | None = None):
        super().__init__()
        self.channels = channels
        self._declare(store, dtype,
                      params=[("gamma", (channels,), 1), ("beta", (channels,), 0)],
                      buffers=[("running_mean", (channels,), 0), ("running_var", (channels,), 1)])
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
            self._update_running(mu, var)
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

    def _update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Moves the running statistics toward a batch's mean and variance."""
        m = self.momentum if self._stats_seen else 0.0
        self._stats_seen = True
        self.buffers["running_mean"][...] = m * self.buffers["running_mean"] + (1.0 - m) * mean
        self.buffers["running_var"][...] = m * self.buffers["running_var"] + (1.0 - m) * var

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xc, invstd = self._take_cache()
        n = grad_out.size // self.channels
        dtype = grad_out.dtype
        sum_g = _channel_sums(grad_out)
        sum_gxc = _channel_sums(grad_out, xc)
        np.copyto(self.grads["gamma"], sum_gxc * invstd)
        np.copyto(self.grads["beta"], sum_g)
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
        mask = self._take_cache()  # the gradient takes the layout of the forward's input
        return np.multiply(grad_out, mask, out=np.empty_like(mask, dtype=grad_out.dtype))


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


def _tap_rows(views):
    """For each (k, k, ...) window view, its (k*k + 1, rows) tap-major patch
    rows, closed by a row of ones for a kernel's constant row. The results
    share one buffer, each dead once the next is made, so it stays cached."""
    buffer = np.empty(0)
    for view in views:
        shape = (view.shape[0] * view.shape[1] + 1, math.prod(view.shape[2:]))
        if buffer.size < math.prod(shape):
            buffer = np.empty(math.prod(shape), view.dtype)
        rows = buffer[:math.prod(shape)].reshape(shape)
        rows[-1] = 1
        np.copyto(rows[:-1].reshape(view.shape), view)
        yield rows


def _max_pool(z: np.ndarray, out: np.ndarray, first: np.ndarray | None = None) -> None:
    """Writes into ``out`` the max of the four phase planes that make up the
    rows of ``z``, and into ``first``, if given, the number of planes ahead
    of the first that reaches it, in tie order."""
    planes = z.reshape(4, -1, z.shape[-1])
    pooled = out.reshape(planes.shape[1:])
    np.maximum(np.maximum(planes[0], planes[1], out=pooled),
               np.maximum(planes[2], planes[3]), out=pooled)
    if first is not None:
        ahead = first.reshape(pooled.shape)
        later = planes[0] != pooled
        np.copyto(ahead, later)
        for plane in planes[1:3]:
            later &= plane != pooled
            ahead += later


class Stem(Layer):
    """Conv2D -> BatchNorm2D -> MaxPool2 -> ReLU as one layer that holds no
    full-resolution activation or gradient.

    ``conv`` (one input channel, stride 1) and ``bn`` own the tensors and
    gradients; ``conv.forward`` still runs the conv alone. The conv output is
    computed only in the four pooling phase planes, the pixels (2i + di,
    2j + dj), a cache-sized chunk of samples at a time: tap-major patch rows,
    closed by a row of ones, times a (k*k + 1, O) kernel give one GEMM's
    channels-last rows, pooled element by element across the planes with
    ties to the first maximum in MaxPool2's order (TL, TR, BL, BR). The
    result is channels-last; its gradient may come in either layout.

    Batch norm is a per-channel affine map. In eval it is folded into the
    kernel. In training the stem pools ``sign(gamma) * z``, z the conv output
    less its bias, since a window of a negative-gamma channel pools -z.
    gamma = 0 counts as positive and routes to the first maximum of z, where
    the layers would see a constant map and route to the top-left pixel. The
    constant row subtracts the batch mean of z, which the patch sums give,
    so the one-pass moments do not cancel. The moments and ``sum(z * patch)``
    run over every conv output pixel, an odd trailing row and column
    included; batch norm and the ReLU touch the pooled quarter only.

    Backward sums batch norm's input gradient ``a * (g + k0 + k1 * (z -
    mean))`` against each pixel's patch: the routed gradient times the
    regathered patch rows, plus k0 times the patch sums and k1 times the
    forward's centred product sums. The bias gradient is its analytic value
    ``a * (sum(g) + k0 * n)``, about zero. The network's input needs no
    gradient, so backward returns None.
    """

    def __init__(self, channels: int, kernel: int, *, rng: np.random.Generator,
                 dtype=np.float32, store: FlatState | None = None):
        super().__init__()
        self.conv = Conv2D(1, channels, kernel, rng=rng, dtype=dtype, store=store)
        self.bn = BatchNorm2D(channels, dtype, store=store)

    @staticmethod
    def _phases(win: np.ndarray, chunks: list[slice]) -> list[np.ndarray]:
        """Per chunk, the (k, k, 2, 2, samples, OH // 2, OW // 2) view of the
        (B, OH, OW, k, k) windows whose [u, v, di, dj, b, i, j] is tap (u, v)
        of output pixel (2i + di, 2j + dj)."""
        B, OH, OW, k = win.shape[:4]
        planes = win[:, :OH // 2 * 2, :OW // 2 * 2].reshape(B, OH // 2, 2, OW // 2, 2, k, k)
        return [planes[c].transpose(5, 6, 2, 4, 0, 1, 3) for c in chunks]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        conv, bn = self.conv, self.bn
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(f"expected NCHW input with 1 channel, got {x.shape}")
        if training and len(x) < 2:
            raise ValueError("batch normalisation needs batch size >= 2 in training mode")
        k, O, dtype = conv.kernel, conv.out_ch, x.dtype
        win = _windows(x.transpose(0, 2, 3, 1), k, 1, conv.pad)[..., 0]
        B, OH, OW = win.shape[:3]
        if OH < 2 or OW < 2:
            raise ValueError(f"conv output {OH}x{OW} too small for 2x2 pooling")
        w = conv.params["w"].reshape(O, k * k).T
        b, gamma, beta, running_mean, running_var = (v.astype(np.float64) for v in (
            conv.params["b"], bn.params["gamma"], bn.params["beta"],
            bn.buffers["running_mean"], bn.buffers["running_var"]))
        chunks = _chunks(win)
        out = np.empty((B, OH // 2, OW // 2, O), dtype)
        self._cache = None
        if not training:
            scale = gamma / np.sqrt(running_var + bn.eps)
            kernel = np.vstack([w * scale, (b - running_mean) * scale + beta]).astype(dtype)
            for c, rows in zip(chunks, _tap_rows(self._phases(win, chunks))):
                _max_pool(rows.T @ kernel, out[c])
            return np.maximum(out, 0, out=out).transpose(0, 3, 1, 2)
        n = B * OH * OW
        # each tap's input summed over every output pixel, and so the batch mean of z
        padded = np.pad(x[:, 0].sum(axis=0, dtype=np.float64), conv.pad)
        patch_sums = np.lib.stride_tricks.sliding_window_view(padded, (OH, OW)).sum(axis=(2, 3))
        patch_sums = patch_sums.reshape(-1, 1)
        sign = np.where(gamma < 0, -1.0, 1.0)
        shift = sign * (patch_sums[:, 0] @ w) / n
        kernel = np.vstack([w * sign, -shift]).astype(dtype)
        first = np.empty(out.shape, np.uint8)
        sum_sq, sum_zp = np.zeros(O), np.zeros((k * k + 1, O))
        rims = [win[:, -1]] if OH % 2 else []  # the odd trailing row and column
        rims += [win[:, :OH // 2 * 2, -1]] if OW % 2 else []
        views = self._phases(win, chunks) + [rim.transpose(2, 3, 0, 1) for rim in rims]
        for i, rows in enumerate(_tap_rows(views)):
            z = rows.T @ kernel
            sum_sq += np.einsum("ro,ro->o", z, z)
            sum_zp += rows @ z  # its last row sums z
            if i < len(chunks):
                _max_pool(z, out[chunks[i]], first[chunks[i]])
        mean = sum_zp[-1] / n  # of sign * z - shift
        var = np.maximum(sum_sq / n - mean ** 2, 0.0)
        invstd = 1.0 / np.sqrt(var + bn.eps)
        bn._update_running(sign * (shift + mean) + b, var)
        centred = sign * (sum_zp[:-1] - patch_sums * mean)  # sum((z - mean(z)) * patch)
        self._cache = (win, first, out, sign, mean, invstd, patch_sums, centred)
        scale = np.abs(gamma) * invstd
        y = out * scale.astype(dtype)
        y += (beta - scale * mean).astype(dtype)
        first |= (y <= 0).view(np.uint8) << 2
        return np.maximum(y, 0, out=y).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> None:
        win, first, pooled, sign, mean, invstd, patch_sums, centred = self._take_cache()
        conv, bn = self.conv, self.bn
        B, OH, OW = win.shape[:3]
        O, n = conv.out_ch, B * OH * OW
        g = np.multiply(grad_out.transpose(0, 2, 3, 1), first < 4, out=np.empty_like(pooled))
        sum_g = _channel_sums(g.transpose(0, 3, 1, 2))
        sum_gm = _channel_sums(g.transpose(0, 3, 1, 2), pooled.transpose(0, 3, 1, 2))
        grad_gamma = sign * invstd * (sum_gm - mean * sum_g)
        np.copyto(bn.grads["gamma"], grad_gamma)
        np.copyto(bn.grads["beta"], sum_g)
        a = bn.params["gamma"] * invstd
        k0, k1 = -sum_g / n, -invstd * grad_gamma / n
        chunks, planes = _chunks(win), np.arange(4, dtype=np.uint8).reshape(4, 1, 1, 1, 1)
        grad_rows = np.zeros((len(patch_sums), O))
        for c, rows in zip(chunks, _tap_rows(self._phases(win, chunks))):
            routed = g[c] * (first[c] == planes)  # each window's gradient on its first max
            grad_rows += rows[:-1] @ routed.reshape(-1, O)
        # the (k*k, O) kernel gradient in patch-row order, the layout of the kernel buffer
        gw = conv.grads["w"].transpose(2, 3, 1, 0).reshape(-1, O)
        np.copyto(gw, a * (grad_rows + k0 * patch_sums + k1 * centred))
        np.copyto(conv.grads["b"], a * (sum_g + k0 * n))


class GlobalAvgPool(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape if training else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        B, C, H, W = self._take_cache()
        return np.broadcast_to((grad_out / (H * W))[:, None, None, :],
                               (B, H, W, C)).copy().transpose(0, 3, 1, 2)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype=np.float32, store: FlatState | None = None):
        super().__init__()
        shape = (in_features, out_features)
        self._declare(store, dtype, params=[
            ("w", shape, lambda: he_uniform(shape, in_features, rng)),
            ("b", (out_features,), 0),
        ])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.params["w"].shape[0]:
            raise ValueError(
                f"expected (B, {self.params['w'].shape[0]}) input, got {x.shape}")
        self._cache = x if training else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        np.matmul(x.T, grad_out, out=self.grads["w"])
        np.sum(grad_out, axis=0, out=self.grads["b"])
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
