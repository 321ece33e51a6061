"""Layer semantics, gradients, and model contracts."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nomadet.neuralnet import (Adam, ArchConfig, BatchNorm2D, Conv2D, Dense,
                               GlobalAvgPool, MaxPool2, ModulationNet, ReLU, Stem,
                               load_model, save_model, softmax, softmax_cross_entropy)
from nomadet.neuralnet import layers
from nomadet.neuralnet.layers import FlatState, Layer
from nomadet.datapipe import CLASS_ORDER
from nomadet.neuralnet.model import NUM_CLASSES, ResidualBlock
from conftest import DEFAULT_ARCH, TINY_ARCH, flat_entry, max_rel_error, numeric_gradient

RNG = np.random.default_rng


def conv_loop_reference(x, w, b, stride, pad):
    """Direct six-nested-loop cross-correlation."""
    B, C, H, W = x.shape
    O, _, K, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    OH = (H + 2 * pad - K) // stride + 1
    OW = (W + 2 * pad - K) // stride + 1
    out = np.zeros((B, O, OH, OW))
    for n in range(B):
        for o in range(O):
            for i in range(OH):
                for j in range(OW):
                    acc = 0.0
                    for c in range(C):
                        for u in range(K):
                            for v in range(K):
                                acc += w[o, c, u, v] * xp[n, c, i * stride + u,
                                                          j * stride + v]
                    out[n, o, i, j] = acc + b[o]
    return out


class TestConv2D:
    def test_scaling_kernel(self):
        conv = Conv2D(1, 1, 1, rng=RNG(0), dtype=np.float64)
        conv.params["w"][...] = 2.0
        conv.params["b"][...] = 0.0
        out = conv.forward(np.ones((1, 1, 3, 3)))
        np.testing.assert_allclose(out, 2.0 * np.ones((1, 1, 3, 3)), atol=1e-15)

    def test_delta_kernel_identity(self):
        conv = Conv2D(1, 1, 3, rng=RNG(0), dtype=np.float64)
        conv.params["w"][...] = 0.0
        conv.params["w"][0, 0, 1, 1] = 1.0
        conv.params["b"][...] = 0.0
        x = RNG(0).standard_normal((2, 1, 5, 5))
        np.testing.assert_allclose(conv.forward(x), x, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = RNG(1)
        conv = Conv2D(2, 3, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 5, 5))
        ref = conv_loop_reference(x, conv.params["w"], conv.params["b"], 1, 1)
        np.testing.assert_allclose(conv.forward(x), ref, atol=1e-12)

    def test_strided_matches_loop_oracle(self):
        rng = RNG(2)
        conv = Conv2D(3, 4, 3, stride=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 9, 9))
        ref = conv_loop_reference(x, conv.params["w"], conv.params["b"], 2, 1)
        out = conv.forward(x)
        assert out.shape == (2, 4, 5, 5)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_grad_out_gives_zero_grads(self):
        rng = RNG(3)
        conv = Conv2D(2, 2, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 6, 6))
        out = conv.forward(x, training=True)
        gx = conv.backward(np.zeros_like(out))
        assert not np.any(gx)
        assert not np.any(conv.grads["w"])
        assert not np.any(conv.grads["b"])

    def test_single_pixel_grad_w_is_input_patch(self):
        rng = RNG(4)
        conv = Conv2D(1, 1, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 1, 5, 5))
        out = conv.forward(x, training=True)
        grad_out = np.zeros_like(out)
        grad_out[0, 0, 1, 2] = 2.5
        conv.backward(grad_out)
        # output (1, 2) reads the window of the input padded by 1 at rows 1..3
        # and columns 2..4, which is x[0:3, 1:4]
        np.testing.assert_allclose(conv.grads["w"][0, 0], 2.5 * x[0, 0, 0:3, 1:4],
                                   atol=1e-12)

    def test_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, 3, rng=RNG(0))
        with pytest.raises(RuntimeError, match="before forward"):
            conv.backward(np.zeros((1, 1, 3, 3)))

    def test_channel_mismatch_raises(self):
        conv = Conv2D(2, 1, 3, rng=RNG(0))
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((1, 3, 5, 5)))

    def test_gradients_match_finite_differences(self):
        rng = RNG(5)
        conv = Conv2D(2, 3, 3, stride=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 7, 7))
        probe = rng.standard_normal((2, 3, 4, 4))

        def loss():
            return float((conv.forward(x, training=True) * probe).sum())

        loss()
        gx = conv.backward(probe)
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-6
        for key in ("w", "b"):
            num = numeric_gradient(loss, conv.params[key])
            assert max_rel_error(conv.grads[key], num) <= 1e-6

    # padding names the output size each case must show: "same" is
    # ceil(size / stride), "valid" (size - kernel) // stride + 1
    @pytest.mark.parametrize("in_ch, out_ch, kernel, stride, padding, size", [
        (3, 2, 3, 1, "same", 6),    # transposed-convolution input gradient
        (3, 3, 5, 1, "same", 7),
        (2, 3, 3, 1, "same", 6),    # more output than input channels
        (2, 3, 1, 2, "valid", 7),   # a widening block's strided 1x1 shortcut
        (1, 4, 5, 1, "same", 8),    # one input channel, as the stem's conv
        (4, 3, 3, 2, "same", 7),    # strided 3x3 on an odd size
    ])
    def test_gradient_paths_match_finite_differences(self, in_ch, out_ch, kernel,
                                                      stride, padding, size):
        rng = RNG(kernel + 10 * stride + size + in_ch)
        conv = Conv2D(in_ch, out_ch, kernel, stride=stride, rng=rng, dtype=np.float64)
        out_size = -(-size // stride) if padding == "same" else (size - kernel) // stride + 1
        assert conv.out_hw(size, size) == (out_size, out_size)
        conv.params["b"][...] = rng.standard_normal(out_ch)
        x = rng.standard_normal((2, in_ch, size, size))
        probe = rng.standard_normal((2, out_ch, *conv.out_hw(size, size)))

        def loss():
            return float((conv.forward(x, training=True) * probe).sum())

        loss()
        gx = conv.backward(probe)
        assert gx.shape == x.shape
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-6
        for key in ("w", "b"):
            num = numeric_gradient(loss, conv.params[key])
            assert max_rel_error(conv.grads[key], num) <= 1e-6

    def test_default_arch_convs_in_float32_match_float64(self):
        """Every conv shape of DEFAULT_ARCH past the stem (``TestStem`` covers
        its conv) at batch 2: the float32 layer's output and gradients agree
        with the float64 layer's to 1e-5 of the largest float64 value, and its
        weight gradient is laid out as its kernel."""
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        shapes = {}

        def recording(fn, name):
            def call(x, training=False):
                shapes[name] = x.shape[1:]
                return fn(x, training)
            return call

        convs = {name: layer for name, layer in model.leaf_layers() if isinstance(layer, Conv2D)}
        for name, conv in convs.items():
            conv.forward = recording(conv.forward, name)
        n = DEFAULT_ARCH.input_size
        model.forward(np.zeros((1, 1, n, n), dtype=np.float32))
        assert len(shapes) == len(convs) == 15

        def close(got, want):
            return np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

        rng = RNG(27)
        for name, conv in convs.items():
            c32 = Conv2D(conv.in_ch, conv.out_ch, conv.kernel, conv.stride, rng=rng,
                         dtype=np.float32)
            c32.params["b"][...] = rng.standard_normal(conv.out_ch)
            c64 = Conv2D(conv.in_ch, conv.out_ch, conv.kernel, conv.stride, rng=RNG(0),
                         dtype=np.float64)
            for key, value in c32.params.items():
                c64.params[key][...] = value
            x = rng.standard_normal((2, *shapes[name])).astype(np.float32)
            out = c32.forward(x, training=True)
            ref = c64.forward(x.astype(np.float64), training=True)
            assert out.dtype == np.float32 and close(out, ref), name
            probe = rng.standard_normal(out.shape).astype(np.float32)
            gx = c32.backward(probe)
            gx_ref = c64.backward(probe.astype(np.float64))
            assert gx.dtype == np.float32 and close(gx, gx_ref), name
            for key in ("w", "b"):
                assert c32.grads[key].dtype == np.float32, (name, key)
                assert close(c32.grads[key], c64.grads[key]), (name, key)
            assert c32.grads["w"].strides == c32.params["w"].strides, name


def einsum_correlation(x, w, b, stride, pad):
    """Cross-correlation as one einsum over strided windows, no im2col."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return (np.einsum("bchwij,ocij->bohw", win[:, :, ::stride, ::stride], w)
            + b[None, :, None, None])


def einsum_input_gradient(probe, w, stride, pad, shape):
    """Gradient of sum(correlation * probe) wrt its input, tap by tap."""
    B, C, H, W = shape
    k, (OH, OW) = w.shape[-1], probe.shape[2:]
    gx = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * OH:stride, j:j + stride * OW:stride] += np.einsum(
                "boyx,oc->bcyx", probe, w[:, :, i, j])
    return gx[:, :, pad:pad + H, pad:pad + W]


def einsum_weight_gradient(x, probe, k, stride, pad):
    """Gradient of sum(correlation * probe) wrt the (O, C, k, k) kernel."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,bohw->ocij", win[:, :, ::stride, ::stride], probe)


CONV_PATHS = [
    (1, 4, 5, 1),      # one input channel, as the stem's conv
    (3, 4, 3, 1),
    (3, 4, 3, 2),
    (3, 4, 1, 2),      # strided 1x1 shortcut
]


class TestChunkedLowering:
    """Forward, weight gradient and stride-1 input gradient lower a chunk of
    samples at a time; a training forward keeps no patch matrix."""

    @pytest.mark.parametrize("samples_per_chunk", [1, 3])
    @pytest.mark.parametrize("in_ch, out_ch, kernel, stride", CONV_PATHS)
    def test_batch_over_several_chunks_matches_einsum(
            self, monkeypatch, in_ch, out_ch, kernel, stride, samples_per_chunk):
        rng = RNG(40 + kernel + stride)
        conv = Conv2D(in_ch, out_ch, kernel, stride, rng=rng, dtype=np.float64)
        conv.params["b"][...] = rng.standard_normal(out_ch)
        x = rng.standard_normal((7, in_ch, 9, 9))
        # one sample's patch rows, so the batch of 7 splits 1+...+1 or 3+3+1
        oh, ow = conv.out_hw(9, 9)
        sample_bytes = oh * ow * kernel * kernel * in_ch * x.itemsize
        monkeypatch.setattr(layers, "_CHUNK_BYTES", samples_per_chunk * sample_bytes)
        w, b = conv.params["w"], conv.params["b"]
        out = conv.forward(x, training=True)
        assert len(layers._chunks(conv._cache[0])) == -(-7 // samples_per_chunk)
        np.testing.assert_allclose(out, einsum_correlation(x, w, b, stride, conv.pad), atol=1e-12)
        probe = rng.standard_normal(out.shape)
        np.testing.assert_allclose(
            conv.backward(probe), einsum_input_gradient(probe, w, stride, conv.pad, x.shape),
            atol=1e-12)
        np.testing.assert_allclose(
            conv.grads["w"], einsum_weight_gradient(x, probe, kernel, stride, conv.pad),
            atol=1e-12)
        np.testing.assert_allclose(conv.grads["b"], probe.sum(axis=(0, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize("in_ch, out_ch, kernel, stride", [(3, 4, 1, 2), (3, 4, 3, 1)])
    def test_backward_ignores_an_input_overwritten_after_forward(
            self, in_ch, out_ch, kernel, stride):
        """An unpadded 1x1 conv could view its input in place; a later layer
        that writes into its input (an in-place ReLU) would then change the
        windows the weight gradient reads."""
        rng = RNG(50 + kernel)
        conv = Conv2D(in_ch, out_ch, kernel, stride, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, in_ch, 7, 7))
        seen = x.copy()
        out = conv.forward(x, training=True)
        x[...] = rng.standard_normal(x.shape)
        probe = rng.standard_normal(out.shape)
        w = conv.params["w"]
        np.testing.assert_allclose(
            conv.backward(probe), einsum_input_gradient(probe, w, stride, conv.pad, x.shape),
            atol=1e-12)
        np.testing.assert_allclose(
            conv.grads["w"], einsum_weight_gradient(seen, probe, kernel, stride, conv.pad),
            atol=1e-12)

    def test_training_forward_keeps_about_the_padded_input(self):
        rng = RNG(60)
        conv = Conv2D(32, 32, 3, rng=rng)
        x = rng.standard_normal((16, 32, 25, 25)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv.forward(x, training=True)
            kept = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        # a cached (16*25*25, 3*3*32) patch matrix would be 9 times this
        padded = 16 * 27 * 27 * 32 * x.itemsize
        assert kept <= 1.5 * padded

    @staticmethod
    def backward_peak(stride):
        """Peak traced bytes of a 3x3 backward above its start, in inputs."""
        rng = RNG(61)
        conv = Conv2D(32, 32, 3, stride, rng=rng)
        x = rng.standard_normal((16, 32, 25, 25)).astype(np.float32)
        tracemalloc.start()
        try:
            out = conv.forward(x, training=True)
            probe = rng.standard_normal(out.shape).astype(np.float32)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            conv.backward(probe)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / x.nbytes

    def test_backward_frees_the_padded_input_before_the_input_gradient(self):
        """Past the weight gradient the input's windows are dead, and so is
        each input-gradient buffer once the next is built from it: grad_out
        channels-last, its padded windows and the channels-last result.
        Freeing each at its last use leaves a peak of about 1.6 inputs above
        the start of backward; holding them, with an NCHW copy of the
        result, read 3.09."""
        assert self.backward_peak(1) <= 2.0

    def test_strided_backward_keeps_no_patch_gradients(self):
        """At stride 2 the input gradient is built in the padded input's
        phase planes from one tap's gradient at a time, and they are dead
        once copied out: a peak of about 1.06 inputs. A (B, OH, OW, k, k, C)
        patch-gradient buffer, freed at its last use, read 2.49."""
        assert self.backward_peak(2) <= 1.4


def scatter_input_gradient(conv, grad_out, shape):
    """The strided input gradient as Conv2D built it before its phase
    planes: one GEMM for every tap's patch gradients, added back with k*k
    strided adds into the padded channels-last gradient, in tap order."""
    B, C, H, W = shape
    k, s, p = conv.kernel, conv.stride, conv.pad
    O, OH, OW = grad_out.shape[1:]
    w = conv.params["w"]
    g_cl = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
    gpatch = (g_cl.reshape(-1, O) @ w.transpose(0, 2, 3, 1).reshape(O, -1)
              ).reshape(B, OH, OW, k, k, C)
    gx = np.zeros((B, H + 2 * p, W + 2 * p, C), dtype=grad_out.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, i:i + s * OH:s, j:j + s * OW:s] += gpatch[:, :, :, i, j]
    return np.ascontiguousarray(gx[:, p:p + H, p:p + W].transpose(0, 3, 1, 2))


def channels_last(x):
    """The values of the NCHW ``x`` stored channels-last behind the same shape."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestStridedInputGradient:
    """At stride 2 each tap's gradient is added into one parity plane of the
    padded input gradient, in the tap order of the strided scatter it
    replaced, so every pixel sums the same products in the same order."""

    @staticmethod
    def assert_matches_scatter(in_ch, out_ch, kernel, side, batch, dtype):
        rng = RNG(side + batch + kernel)
        conv = Conv2D(in_ch, out_ch, kernel, 2, rng=rng, dtype=dtype)
        x = rng.standard_normal((batch, in_ch, side, side)).astype(dtype)
        out = conv.forward(x, training=True)
        probe = channels_last(rng.standard_normal(out.shape).astype(dtype))
        want = scatter_input_gradient(conv, probe, x.shape)
        got = conv.backward(probe)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("side", [50, 25, 13, 7])  # odd sides leave a cropped row
    @pytest.mark.parametrize("kernel", [3, 1])
    def test_bit_identical_to_the_strided_scatter(self, kernel, side, batch, dtype):
        """Few channels keep both GEMM shapes on one BLAS code path: at 16 to
        32 channels and one 13x13 sample, OpenBLAS's small-matrix kernels
        round a tap's product in the last bit differently when it is
        computed alone than within the product of all nine taps."""
        self.assert_matches_scatter(4, 8, kernel, side, batch, dtype)

    @pytest.mark.parametrize("kernel", [3, 1])
    @pytest.mark.parametrize("in_ch, out_ch, side", [(16, 32, 50), (32, 64, 25), (64, 128, 13)])
    def test_bit_identical_on_the_default_training_shapes(self, in_ch, out_ch, side, kernel):
        """The default network's strided convs and shortcuts at batch 32 of
        100x100 diagrams, in float32."""
        self.assert_matches_scatter(in_ch, out_ch, kernel, side, 32, np.float32)


class TestLayouts:
    """Layers read NCHW and channels-last arrays alike."""

    @pytest.mark.parametrize("in_ch, out_ch, kernel, stride", CONV_PATHS)
    def test_conv_results_do_not_depend_on_the_layouts_it_reads(
            self, in_ch, out_ch, kernel, stride):
        rng = RNG(70 + kernel + stride)
        conv = Conv2D(in_ch, out_ch, kernel, stride, rng=rng, dtype=np.float32)
        x = rng.standard_normal((3, in_ch, 9, 9)).astype(np.float32)
        probe = rng.standard_normal((3, out_ch, *conv.out_hw(9, 9))).astype(np.float32)
        results = []
        for store in (np.copy, channels_last):
            out = conv.forward(store(x), training=True)
            grad = conv.backward(store(probe))
            results.append([out, grad, conv.grads["w"].copy(), conv.grads["b"].copy()])
        for nchw, cl in zip(*results):
            assert np.array_equal(nchw, cl)

    def test_batchnorm_results_do_not_depend_on_the_layout(self):
        rng = RNG(71)
        x = 3.0 + rng.standard_normal((4, 8, 6, 5)).astype(np.float32)
        probe = rng.standard_normal(x.shape).astype(np.float32)
        results = []
        for store in (np.copy, channels_last):  # each forward writes over its input
            bn = BatchNorm2D(8, np.float32)
            bn.params["gamma"][...] = 1.5
            out = bn.forward(store(x), training=True).copy()
            grad = bn.backward(store(probe))
            results.append([out, grad, bn.grads["gamma"].copy(), bn.grads["beta"].copy()])
        for nchw, cl in zip(*results):
            np.testing.assert_allclose(nchw, cl, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("product", [False, True], ids=["sums", "products"])
    @pytest.mark.parametrize("layout", ["NCHW", "channels-last"])
    @pytest.mark.parametrize("shape", [(4, 16, 12, 10), (1, 16, 24, 20), (5, 16, 1, 1),
                                       (1, 16, 1, 1)])
    def test_channel_sums_read_either_layout_in_place(self, shape, layout, product):
        """float32 values, as the network sums them, against a float64 einsum.
        The values are positive, as in the variance's sum of squares: where
        terms cancel, no float32 sum has a relative error bound. A
        channels-last operand, as every one a network sums, is read in place;
        NCHW is read through one copy, so only channels-last is held to the
        in-place bound. A 1x1 map's per-sample sums are as large as the map
        itself, so the copy check needs a map of several pixels."""
        rng = RNG(72)
        x64, y64 = 1.0 + rng.random(shape), 0.5 + rng.random(shape)
        store = np.copy if layout == "NCHW" else channels_last
        x = store(x64.astype(np.float32))
        y = store(y64.astype(np.float32)) if product else None
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = layers._channel_sums(x, y)
            allocated = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        exact = [v.astype(np.float32).astype(np.float64) for v in (x64, y64)]
        want = (np.einsum("bchw,bchw->c", *exact) if product
                else np.einsum("bchw->c", exact[0]))
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-6)
        if layout == "channels-last" and shape[2] * shape[3] > 1:
            assert allocated < x.nbytes / 4


def model_convs(model: ModulationNet) -> list:
    """(name, conv) of every Conv2D that owns a kernel of ``model``, the stem's included."""
    return [(name[:-2], layer) for name, layer, key, _ in model.state_tensors()
            if isinstance(layer, Conv2D) and key == "w"]


class TestKernelLayout:
    """``params["w"]`` is an (O, C, k, k) view of the kernel buffer that the
    GEMMs read; everything that reads or writes it sees one array."""

    def test_every_conv_kernel_is_out_in_k_k(self):
        convs = dict(model_convs(ModulationNet(DEFAULT_ARCH, seed=0))).values()
        assert len(convs) == 16
        for conv in convs:
            assert conv.params["w"].shape == (conv.out_ch, conv.in_ch, conv.kernel, conv.kernel)

    def test_weight_gradient_and_adam_moments_share_the_kernel_layout(self):
        """Each kernel's gradient has its strides and sits at its offset in the
        flat gradient buffer; one step from zero moments leaves m = (1-b1)*g
        and v = (1-b2)*g*g there, so the moments share that layout too."""
        model = ModulationNet(replace(DEFAULT_ARCH, input_size=24), seed=1)
        logits = model.forward(RNG(28).random((2, 1, 24, 24)), training=True)
        model.backward(np.ones_like(logits))
        optimiser = Adam(model)
        grads = model.grads.copy()
        optimiser.step()
        convs = model_convs(model)
        assert len(convs) == 16
        for name, conv in convs:
            w, gw = conv.params["w"], conv.grads["w"]
            assert gw.strides == w.strides, name
            assert (w.ctypes.data - model.state.ctypes.data
                    == gw.ctypes.data - model.grads.ctypes.data), name
            g = flat_entry(grads, model.grads, gw)
            m, v = (flat_entry(moment, model.grads, gw) for moment in (optimiser.m, optimiser.v))
            np.testing.assert_array_equal(m, (1.0 - Adam.beta1) * g, err_msg=name)
            np.testing.assert_array_equal(v, (1.0 - Adam.beta2) * g * g, err_msg=name)

    @pytest.mark.parametrize("in_ch, out_ch, kernel, stride", CONV_PATHS)
    def test_in_place_kernel_write_reaches_forward_and_backward(
            self, in_ch, out_ch, kernel, stride):
        """Adam, ``train``'s best-state copy and ``load_model`` all write
        ``params["w"]`` in place."""
        rng = RNG(29 + kernel + stride)
        conv = Conv2D(in_ch, out_ch, kernel, stride, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, in_ch, 7, 7))
        conv.forward(x, training=True)
        new = rng.standard_normal(conv.params["w"].shape)
        conv.params["w"][...] = new
        out = conv.forward(x, training=True)
        np.testing.assert_allclose(
            out, einsum_correlation(x, new, conv.params["b"], stride, conv.pad), atol=1e-12)
        probe = rng.standard_normal(out.shape)
        np.testing.assert_allclose(
            conv.backward(probe), einsum_input_gradient(probe, new, stride, conv.pad, x.shape),
            atol=1e-12)

    def test_checkpoint_holds_each_kernel_in_out_in_k_k_order(self, tmp_path):
        model = ModulationNet(TINY_ARCH, seed=3)
        path = tmp_path / "m.nmdl"
        save_model(model, path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 6)
        offset = 10 + config_len + 4
        for name, layer, key, value in model.state_tensors():
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1 + 4 * rank
            data = blob[offset:offset + 4 * value.size]
            offset += len(data)
            if isinstance(layer, Conv2D) and key == "w":
                assert data == np.ascontiguousarray(value, "<f4").tobytes(), name
        assert offset == len(blob)


class TestFlatState:
    """A model's parameters, running statistics and gradients are views of
    its two flat buffers; a layer built alone owns two of its own."""

    @pytest.mark.parametrize("arch", [TINY_ARCH, replace(DEFAULT_ARCH, input_size=24)],
                             ids=["tiny", "default"])
    def test_state_holds_every_parameter_then_every_running_statistic(self, arch):
        model = ModulationNet(arch, seed=0)
        tensors = list(model.state_tensors())
        params = [entry for entry in tensors if entry[2] in entry[1].params]
        offset = 0
        for name, layer, key, value in params + [e for e in tensors if e not in params]:
            assert np.shares_memory(value, model.state), name
            assert value.ctypes.data == model.state.ctypes.data + offset * value.itemsize, name
            offset += value.size
            if key in layer.params:
                grad = layer.grads[key]
                assert np.shares_memory(grad, model.grads), name
                assert (grad.shape, grad.strides) == (value.shape, value.strides), name
                assert (grad.ctypes.data - model.grads.ctypes.data
                        == value.ctypes.data - model.state.ctypes.data), name
        assert offset == model.state.size
        assert model.grads.size == sum(value.size for *_, value in params)
        assert model.state.dtype == model.grads.dtype == arch.np_dtype

    def test_a_layer_built_alone_owns_its_flat_buffers(self):
        conv = Conv2D(2, 3, 3, rng=RNG(40), dtype=np.float64)
        bn = BatchNorm2D(3, dtype=np.float64)
        for layer, state_size in ((conv, 3 * 3 * 2 * 3 + 3), (bn, 4 * 3)):
            state = next(iter(layer.params.values())).base
            grads = next(iter(layer.grads.values())).base
            assert state.shape == (state_size,)
            assert grads.shape == (sum(value.size for value in layer.params.values()),)
            assert all(value.base is state
                       for value in [*layer.params.values(), *layer.buffers.values()])
            assert all(grad.base is grads for grad in layer.grads.values())
        assert not np.shares_memory(conv.params["b"], bn.params["gamma"])

    def test_a_store_of_another_dtype_is_refused(self):
        with pytest.raises(ValueError, match="float32.*float64"):
            Conv2D(1, 2, 3, rng=RNG(0), store=FlatState(np.float64))

    def test_restore_writes_through_to_forward(self):
        source, target = ModulationNet(TINY_ARCH, seed=1), ModulationNet(TINY_ARCH, seed=2)
        x = RNG(41).random((3, 1, 12, 12))
        source.forward(x.copy(), training=True)  # moves the running statistics too
        want = source.forward(x.copy())
        assert not np.array_equal(target.forward(x.copy()), want)
        np.copyto(target.state, source.state.copy())
        assert target.forward(x.copy()).tobytes() == want.tobytes()

    def test_load_model_writes_through_to_forward(self, tmp_path):
        model = ModulationNet(replace(TINY_ARCH, dtype="float32"), seed=4)
        x = RNG(42).random((3, 1, 12, 12)).astype(np.float32)
        model.forward(x.copy(), training=True)
        save_model(model, tmp_path / "m.nmdl")
        loaded = load_model(tmp_path / "m.nmdl")
        assert loaded.state.tobytes() == model.state.tobytes()
        assert loaded.forward(x.copy()).tobytes() == model.forward(x.copy()).tobytes()

    def test_training_backward_fills_the_flat_gradient_in_place(self):
        """Each backward overwrites the flat gradient, each kernel in its
        memory order, and writes no parameter or running statistic."""
        model = ModulationNet(TINY_ARCH, seed=5)
        rng = RNG(43)
        for _ in range(2):
            logits = model.forward(rng.random((2, 1, 12, 12)), training=True)
            state = model.state.copy()
            model.backward(rng.standard_normal(logits.shape))
            assert model.state.tobytes() == state.tobytes()
            flat = np.concatenate([np.ravel(layer.grads[key], order="K")
                                   for _, layer, key, _ in model.state_tensors()
                                   if key in layer.params])
            assert flat.tobytes() == model.grads.tobytes()
            assert np.count_nonzero(model.grads) > model.grads.size // 2


class TestBatchNorm:
    def test_training_mode_normalises(self):
        rng = RNG(6)
        bn = BatchNorm2D(3, dtype=np.float64)
        x = 5.0 + 2.0 * rng.standard_normal((8, 3, 4, 4))
        out = bn.forward(x, training=True)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_inference_identity_at_default_stats(self):
        bn = BatchNorm2D(2, dtype=np.float64)
        x = RNG(7).standard_normal((4, 2, 3, 3))
        out = bn.forward(x, training=False)
        np.testing.assert_allclose(out, x, atol=1e-4)

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_inference_matches_the_formula_and_keeps_running_stats(self, dtype, rtol):
        rng = RNG(11)
        bn = BatchNorm2D(3, dtype=dtype)
        bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        bn.params["beta"][...] = rng.standard_normal(3)
        bn.buffers["running_mean"][...] = rng.standard_normal(3)
        bn.buffers["running_var"][...] = rng.uniform(0.2, 3.0, 3)
        stats = {key: value.copy() for key, value in bn.buffers.items()}
        x = rng.standard_normal((4, 3, 5, 5)).astype(dtype)
        out = bn.forward(x.copy(), training=False)

        def channels(a):
            return a.astype(np.float64).reshape(1, -1, 1, 1)

        expected = (channels(bn.params["gamma"]) * (x.astype(np.float64)
                    - channels(stats["running_mean"]))
                    / np.sqrt(channels(stats["running_var"]) + bn.eps)
                    + channels(bn.params["beta"]))
        assert out.dtype == dtype
        np.testing.assert_allclose(out, expected, rtol=rtol)
        for key, value in bn.buffers.items():
            assert value.tobytes() == stats[key].tobytes(), key

    def test_batch_of_one_rejected_in_training(self):
        bn = BatchNorm2D(2)
        with pytest.raises(ValueError, match="batch size"):
            bn.forward(np.zeros((1, 2, 4, 4)), training=True)

    def test_running_stats_warm_start_then_ema(self):
        bn = BatchNorm2D(1, dtype=np.float64)
        x1 = np.full((4, 1, 2, 2), 3.0) + RNG(8).standard_normal((4, 1, 2, 2)) * 0.1
        bn.forward(x1.copy(), training=True)
        first_mean = bn.buffers["running_mean"].copy()
        np.testing.assert_allclose(first_mean, x1.mean(), atol=1e-12)
        x2 = np.zeros((4, 1, 2, 2)) + RNG(9).standard_normal((4, 1, 2, 2)) * 0.1
        bn.forward(x2.copy(), training=True)
        expected = 0.9 * first_mean + 0.1 * x2.mean()
        np.testing.assert_allclose(bn.buffers["running_mean"], expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = RNG(10)
        bn = BatchNorm2D(3, dtype=np.float64)
        bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        bn.params["beta"][...] = rng.uniform(-0.5, 0.5, 3)
        x = rng.standard_normal((4, 3, 3, 3))
        probe = rng.standard_normal((4, 3, 3, 3))

        def loss():
            return float((bn.forward(x.copy(), training=True) * probe).sum())

        loss()
        gx = bn.backward(probe)
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-5
        for key in ("gamma", "beta"):
            num = numeric_gradient(loss, bn.params[key])
            assert max_rel_error(bn.grads[key], num) <= 1e-6

    def test_second_backward_after_one_training_forward_raises(self):
        """Backward builds the input gradient in the buffer the forward cached."""
        bn = BatchNorm2D(2, dtype=np.float64)
        x = RNG(30).standard_normal((2, 2, 3, 3))
        bn.forward(x, training=True)
        bn.backward(np.ones_like(x))
        with pytest.raises(RuntimeError, match=r"forward\(training=True\)"):
            bn.backward(np.ones_like(x))

    def test_variance_does_not_cancel_when_the_mean_dwarfs_the_spread(self):
        rng = RNG(31)
        x = (1000.0 + rng.standard_normal((8, 4, 50, 50))).astype(np.float32)
        bn = BatchNorm2D(4)
        bn.forward(x.copy(), training=True)
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=(0, 2, 3), keepdims=True)
        var = np.square(x64 - mean).mean(axis=(0, 2, 3))
        np.testing.assert_allclose(bn.buffers["running_var"], var, rtol=1e-5)

    def test_default_arch_bns_in_float32_match_float64(self):
        """Every BN shape of DEFAULT_ARCH past the stem at the training batch
        of 32: the float32 layer's training output, gradients and running
        statistics agree with the float64 layer's, every result stays
        float32, and the batch statistics are within 1e-6 of a float64
        two-pass reference."""
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        shapes = {}

        def recording(fn, name):
            def call(x, training=False):
                shapes[name] = x.shape[1:]
                return fn(x, training)
            return call

        bns = {name: layer for name, layer in model.leaf_layers()
               if isinstance(layer, BatchNorm2D)}
        for name, bn in bns.items():
            bn.forward = recording(bn.forward, name)
        n = DEFAULT_ARCH.input_size
        model.forward(np.zeros((1, 1, n, n), dtype=np.float32))
        assert len(shapes) == len(bns) == 15

        def close(got, want):
            return np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

        rng = RNG(32)
        for name, (C, H, W) in shapes.items():
            b32, b64 = BatchNorm2D(C), BatchNorm2D(C, dtype=np.float64)
            for key in ("gamma", "beta"):
                b32.params[key][...] = rng.uniform(0.5, 1.5, C)
                b64.params[key][...] = b32.params[key]
            offset = rng.uniform(-3.0, 3.0, (1, C, 1, 1))
            x = (offset + rng.uniform(0.5, 2.0) * rng.standard_normal((32, C, H, W))
                 ).astype(np.float32)
            out = b32.forward(x.copy(), training=True)
            ref = b64.forward(x.astype(np.float64), training=True)
            assert out.dtype == np.float32 and close(out, ref), name
            x64 = x.astype(np.float64)
            mean = x64.mean(axis=(0, 2, 3))
            var = np.square(x64 - mean.reshape(1, -1, 1, 1)).mean(axis=(0, 2, 3))
            for key, want in (("running_mean", mean), ("running_var", var)):
                got = b32.buffers[key]
                assert got.dtype == np.float32, (name, key)
                np.testing.assert_allclose(got, want, rtol=1e-6, err_msg=f"{name} {key}")
                assert close(got, b64.buffers[key]), (name, key)
            probe = rng.standard_normal(out.shape).astype(np.float32)
            gx = b32.backward(probe)
            gx_ref = b64.backward(probe.astype(np.float64))
            assert gx.dtype == np.float32 and close(gx, gx_ref), name
            for key in ("gamma", "beta"):
                assert b32.grads[key].dtype == np.float32, (name, key)
                assert close(b32.grads[key], b64.grads[key]), (name, key)


class TestSimpleLayers:
    def test_relu_example(self):
        relu = ReLU()
        np.testing.assert_array_equal(
            relu.forward(np.array([[-1.0, 2.0]])), np.array([[0.0, 2.0]]))

    def test_maxpool_example_and_routing(self):
        pool = MaxPool2()
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = pool.forward(x, training=True)
        np.testing.assert_array_equal(out, np.array([[[[4.0]]]]))
        gx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(gx, np.array([[[[0.0, 0.0], [0.0, 1.0]]]]))

    def test_maxpool_tie_routes_once(self):
        pool = MaxPool2()
        pool.forward(np.ones((1, 1, 2, 2)), training=True)
        gx = pool.backward(np.array([[[[1.0]]]]))
        # the first window position in row-major order takes the whole gradient
        np.testing.assert_array_equal(gx, np.array([[[[1.0, 0.0], [0.0, 0.0]]]]))
        pool.forward(np.array([[[[0.0, 2.0], [1.0, 2.0]]]]), training=True)
        gx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(gx, np.array([[[[0.0, 1.0], [0.0, 0.0]]]]))

    def test_maxpool_odd_input_gradients(self):
        rng = RNG(25)
        pool = MaxPool2()
        # distinct values, so no finite-difference step crosses a tie
        x = rng.permutation(2 * 3 * 5 * 5).reshape(2, 3, 5, 5).astype(np.float64)
        probe = rng.standard_normal((2, 3, 2, 2))

        def loss():
            return float((pool.forward(x, training=True) * probe).sum())

        loss()
        gx = pool.backward(probe)
        assert gx.shape == x.shape
        assert not np.any(gx[:, :, 4, :]) and not np.any(gx[:, :, :, 4])
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-7

    @pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 3, 7, 9)], ids=["even", "odd"])
    def test_relu_then_pool_equals_pool_then_relu(self, shape):
        """The stem pools before its ReLU: both orders give bitwise-equal
        outputs and input gradients, ties and zeros included."""
        rng = RNG(33)
        x = rng.integers(-2, 3, shape).astype(np.float64)
        x[0, 0, :2, :2] = -1.0  # an all-negative tie
        x[0, 1, :2, :2] = [[-1.0, 0.0], [0.0, -2.0]]  # a tie at zero
        x[1, 2, :2, :2] = 2.0  # a positive tie
        probe = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        results = []
        for order in ((ReLU(), MaxPool2()), (MaxPool2(), ReLU())):
            out = x.copy()
            for layer in order:
                out = layer.forward(out, training=True)
            g = probe
            for layer in reversed(order):
                g = layer.backward(g)
            results.append((out.tobytes(), g.tobytes()))
        assert results[0] == results[1]

    def test_global_avg_pool(self):
        gap = GlobalAvgPool()
        x = RNG(11).standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(gap.forward(x, training=True), x.mean(axis=(2, 3)), atol=1e-12)
        gx = gap.backward(np.ones((2, 3)))
        np.testing.assert_allclose(gx, np.full_like(x, 1 / 16), atol=1e-15)

    def test_dense_gradients(self):
        rng = RNG(12)
        dense = Dense(5, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((4, 5))
        probe = rng.standard_normal((4, 3))

        def loss():
            return float((dense.forward(x, training=True) * probe).sum())

        loss()
        gx = dense.backward(probe)
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-7
        for key in ("w", "b"):
            num = numeric_gradient(loss, dense.params[key])
            assert max_rel_error(dense.grads[key], num) <= 1e-7


def stem_pair(kernel: int, channels: int, rng, dtype=np.float64):
    """A Stem and the Conv2D -> BatchNorm2D -> MaxPool2 -> ReLU layers it
    replaces, with the same random parameters, half the gammas negative."""
    stem = Stem(channels, kernel, rng=RNG(0), dtype=dtype)
    layers_ = [Conv2D(1, channels, kernel, rng=RNG(0), dtype=dtype),
               BatchNorm2D(channels, dtype), MaxPool2(), ReLU()]
    values = {"w": rng.standard_normal((channels, 1, kernel, kernel)),
              "b": rng.standard_normal(channels),
              "gamma": rng.uniform(0.5, 1.5, channels) * np.resize([1.0, -1.0], channels),
              "beta": rng.standard_normal(channels)}
    for layer in (stem.conv, stem.bn, *layers_[:2]):
        for key, value in layer.params.items():
            value[...] = values[key]
    return stem, layers_


class TestStem:
    """The fused stem against the four layers it replaces, in float64."""

    @staticmethod
    def compare(stem, layers_, x, rng, tol=1e-12):
        """One training step of each: output, gradients and running statistics."""
        out = stem.forward(x.copy(), training=True)
        want = x.copy()
        for layer in layers_:
            want = layer.forward(want, training=True)
        np.testing.assert_allclose(out, want, rtol=0, atol=tol * np.abs(want).max())
        probe = rng.standard_normal(out.shape)
        assert stem.backward(channels_last(probe)) is None
        g = probe
        for layer in reversed(layers_):
            g = layer.backward(g)
        conv, bn = layers_[:2]
        for got, ref in ((stem.conv.grads["w"], conv.grads["w"]),
                         (stem.bn.grads["gamma"], bn.grads["gamma"]),
                         (stem.bn.grads["beta"], bn.grads["beta"]),
                         (stem.bn.buffers["running_mean"], bn.buffers["running_mean"]),
                         (stem.bn.buffers["running_var"], bn.buffers["running_var"])):
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.abs(ref).max())
        # batch norm cancels the bias: both gradients are rounding noise
        scale = np.abs(conv.grads["w"]).max()
        assert np.abs(stem.conv.grads["b"]).max() <= tol * scale
        assert np.abs(conv.grads["b"]).max() <= 1e-9 * scale

    # kernel, input side, batch, samples per chunk (None: the default chunks);
    # odd kernels keep the input's side, the even one loses a row and column
    @pytest.mark.parametrize("kernel, side, batch, per_chunk", [
        (3, 10, 2, None),   # even conv output
        (3, 11, 2, None),   # odd: a trailing row and column that only the statistics see
        (5, 12, 7, None),
        (5, 9, 7, 3),       # odd, in chunks of 3 + 3 + 1 samples
        (4, 12, 7, 1),      # even kernel, odd conv output
        (4, 11, 3, 2),      # even kernel, even conv output
    ])
    def test_matches_the_layers_over_two_steps_and_in_eval(
            self, monkeypatch, kernel, side, batch, per_chunk):
        """Each first sample has an all-zero top half, where every window of
        conv outputs is an exact tie."""
        rng = RNG(kernel + side + batch)
        stem, layers_ = stem_pair(kernel, 6, rng)
        if per_chunk:
            out_side = side + 2 * stem.conv.pad - kernel + 1
            sample_bytes = out_side ** 2 * kernel ** 2 * 8  # one sample's float64 windows
            monkeypatch.setattr(layers, "_CHUNK_BYTES", per_chunk * sample_bytes)
        for _ in range(2):
            x = rng.random((batch, 1, side, side))
            x[0, 0, :side // 2] = 0.0
            self.compare(stem, layers_, x, rng)
        x = rng.random((batch, 1, side, side))
        want = x.copy()
        for layer in layers_:
            want = layer.forward(want)
        np.testing.assert_allclose(stem.forward(x), want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_variance_does_not_cancel_when_the_mean_dwarfs_the_spread(self):
        """The moments are summed about the batch mean, which the patch sums
        give before any GEMM: about zero, float32 squares of z would cancel.
        A 1x1 kernel pads nothing, so no zero border widens the spread."""
        rng = RNG(48)
        stem = Stem(4, 1, rng=rng)
        x = (1000.0 + rng.random((4, 1, 20, 20))).astype(np.float32)
        stem.forward(x, training=True)
        w = stem.conv.params["w"].astype(np.float64)
        z = einsum_correlation(x.astype(np.float64), w, np.zeros(4), 1, stem.conv.pad)
        np.testing.assert_allclose(stem.bn.buffers["running_var"], z.var(axis=(0, 2, 3)),
                                   rtol=1e-4)

    @pytest.mark.parametrize("shape, training, error", [
        ((1, 1, 8, 8), True, "batch size >= 2"),
        ((2, 1, 1, 1), False, "1x1 too small for 2x2 pooling"),
        ((2, 3, 8, 8), False, "1 channel"),
    ])
    def test_rejects_what_its_layers_reject(self, shape, training, error):
        with pytest.raises(ValueError, match=error):
            Stem(2, 3, rng=RNG(0)).forward(np.zeros(shape, np.float32), training)

    def test_default_stem_in_float32_matches_float64(self):
        """DEFAULT_ARCH's stem at the training batch of 32: float32 results
        agree with float64 ones to 1e-5 of the largest float64 value."""
        rng = RNG(47)
        s32, _ = stem_pair(5, 16, rng, np.float32)
        s64 = Stem(16, 5, rng=RNG(0), dtype=np.float64)
        for part in ("conv", "bn"):
            for key, value in getattr(s64, part).params.items():
                value[...] = getattr(s32, part).params[key]
        x = rng.random((32, 1, 100, 100)).astype(np.float32)
        probe = rng.standard_normal((32, 16, 50, 50)).astype(np.float32)
        outs = [stem.forward(x.astype(stem.conv.params["w"].dtype), training=True)
                for stem in (s32, s64)]
        for stem in (s32, s64):
            stem.backward(probe.astype(stem.conv.params["w"].dtype))
        pairs = [(outs[0], outs[1]), (s32.forward(x), s64.forward(x.astype(np.float64)))]
        pairs += [(getattr(s32, part).grads[key], getattr(s64, part).grads[key])
                  for part, key in (("conv", "w"), ("bn", "gamma"), ("bn", "beta"))]
        pairs += [(s32.bn.buffers[key], s64.bn.buffers[key])
                  for key in ("running_mean", "running_var")]
        for got, want in pairs:
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log4(self):
        logits = np.zeros((3, 4))
        targets = np.eye(4)[[0, 1, 3]]
        loss, grad = softmax_cross_entropy(logits, targets)
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_loss_vanishes_as_true_logit_grows(self):
        targets = np.eye(4)[[2]]
        last = None
        for scale in (1.0, 5.0, 20.0, 80.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = scale
            loss, _ = softmax_cross_entropy(logits, targets)
            if last is not None:
                assert loss < last
            last = loss
        assert last < 1e-9

    def test_matches_high_precision_reference(self):
        rng = RNG(13)
        logits = rng.standard_normal((6, 4)) * 7.0
        labels = rng.integers(0, 4, 6)
        targets = np.eye(4)[labels]
        loss, grad = softmax_cross_entropy(logits, targets)
        # direct formula in extended precision
        hi = np.array(logits, dtype=np.longdouble)
        num = np.exp(hi)
        p = num / num.sum(axis=1, keepdims=True)
        ref = float(-np.log(p[np.arange(6), labels]).mean())
        assert loss == pytest.approx(ref, abs=1e-10)
        np.testing.assert_allclose(
            grad, (np.asarray(p, dtype=np.float64) - targets) / 6.0, atol=1e-12)

    def test_nonnegative_and_exact_at_uniform(self):
        rng = RNG(14)
        for _ in range(20):
            logits = rng.standard_normal((5, 4)) * rng.uniform(0.1, 10)
            targets = np.eye(4)[rng.integers(0, 4, 5)]
            loss, _ = softmax_cross_entropy(logits, targets)
            assert loss >= 0.0

    def test_rejects_non_one_hot(self):
        logits = np.zeros((2, 4))
        bad = np.zeros((2, 4))
        bad[0, 0] = bad[0, 1] = 1
        bad[1, 2] = 1
        with pytest.raises(ValueError, match="one-hot"):
            softmax_cross_entropy(logits, bad)
        with pytest.raises(ValueError, match="one-hot"):
            softmax_cross_entropy(logits, np.full((2, 4), 0.25))

    def test_gradient_check(self):
        rng = RNG(15)
        logits = rng.standard_normal((4, 4))
        targets = np.eye(4)[rng.integers(0, 4, 4)]

        def loss():
            return softmax_cross_entropy(logits, targets)[0]

        _, grad = softmax_cross_entropy(logits, targets)
        assert max_rel_error(grad, numeric_gradient(loss, logits)) <= 1e-6


class TestArchConfig:
    @pytest.mark.parametrize("field, value", [
        ("input_size", 0), ("base_kernel", 0), ("base_channels", 0), ("blocks", (32, 0)),
        ("blocks", (-1,)),
    ])
    def test_size_or_width_below_one_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            ArchConfig(**{field: value})

    @pytest.mark.parametrize("field, value, shown", [
        ("input_size", 16.0, "16.0"), ("base_kernel", 3.5, "3.5"), ("base_channels", 8.0, "8.0"),
        ("blocks", (32, 32.7), "32.7"),
    ])
    def test_size_or_width_that_is_no_integer_is_named(self, field, value, shown):
        # a width of 32.7 was once truncated to 32
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {shown}"):
            ArchConfig(**{field: value})

    def test_numpy_integer_sizes_are_read_as_ints(self):
        arch = ArchConfig(input_size=np.int64(16), blocks=[np.int32(8), 8])
        assert arch.blocks == (8, 8) and type(arch.input_size) is int

    def test_a_block_changes_shape_exactly_when_it_changes_width(self):
        # 8 -> 8 keeps, 8 -> 4 halves although it narrows, 4 -> 4 keeps
        model = ModulationNet(ArchConfig(input_size=16, base_kernel=3, base_channels=8,
                                         blocks=(8, 4, 4)), seed=0)
        assert [len(block.shortcut) for block in model.blocks] == [0, 2, 0]
        shapes = dict(stage_shapes(model))
        assert [shapes[f"block{i}"] for i in range(3)] == [(8, 8, 8), (4, 4, 4), (4, 4, 4)]

    @pytest.mark.parametrize("dtype", ["float16", "bogus"])
    def test_dtype_other_than_float32_or_float64_is_rejected(self, dtype):
        with pytest.raises(ValueError, match=repr(dtype)):
            ArchConfig(dtype=dtype)


class TestResidualBlock:
    def test_identity_block_with_zero_branch(self):
        rng = RNG(16)
        block = ResidualBlock(3, 3, rng, np.float64)
        main = dict(block.main)
        for layer in (main["conv1"], main["conv2"]):
            layer.params["w"][...] = 0.0
            layer.params["b"][...] = 0.0
        for bn in (main["bn1"], main["bn2"]):
            bn.params["beta"][...] = 0.0
        x = np.abs(rng.standard_normal((2, 3, 6, 6)))
        out = block.forward(x, training=False)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_conv_block_halves_spatial_size(self):
        rng = RNG(17)
        block = ResidualBlock(4, 8, rng, np.float64)
        out = block.forward(rng.standard_normal((2, 4, 8, 8)), training=True)
        assert out.shape == (2, 8, 4, 4)

    def test_conv_block_ceil_halving_on_odd(self):
        rng = RNG(18)
        block = ResidualBlock(2, 4, rng, np.float64)
        out = block.forward(rng.standard_normal((2, 2, 13, 13)), training=True)
        assert out.shape == (2, 4, 7, 7)

    def test_block_gradient_check(self):
        rng = RNG(19)
        block = ResidualBlock(2, 3, rng, np.float64)
        x = rng.standard_normal((3, 2, 6, 6))
        probe = rng.standard_normal((3, 3, 3, 3))

        def loss():
            return float((block.forward(x, training=True) * probe).sum())

        loss()
        gx = block.backward(probe)
        assert max_rel_error(gx, numeric_gradient(loss, x)) <= 1e-4


def stage_shapes(model: ModulationNet) -> list:
    """(stage name, per-sample shape) after every stage, on a zero batch."""
    n = model.arch.input_size
    out = np.zeros((1, 1, n, n), dtype=model.arch.np_dtype)
    shapes = [("input", out.shape[1:])]
    for name, stage in model.layers:
        out = stage.forward(out, training=False)
        shapes.append((name, out.shape[1:]))
    return shapes


EVERY_LAYER_TYPE = [
    (Conv2D(2, 2, 3, rng=RNG(0), dtype=np.float64), (2, 2, 5, 5)),
    (BatchNorm2D(2, dtype=np.float64), (2, 2, 5, 5)),
    (ReLU(), (2, 2, 4, 4)),
    (MaxPool2(), (2, 2, 4, 4)),
    (GlobalAvgPool(), (2, 2, 4, 4)),
    (Dense(5, 3, rng=RNG(0), dtype=np.float64), (2, 5)),
]
EVERY_LAYER_TYPE_IDS = [type(layer).__name__ for layer, _ in EVERY_LAYER_TYPE]


class TestModel:
    def test_default_shape_contract(self):
        shapes = dict(stage_shapes(ModulationNet(DEFAULT_ARCH, seed=0)))
        assert shapes["input"] == (1, 100, 100)
        assert shapes["stem"] == (16, 50, 50)
        assert shapes["block5"] == (128, 7, 7)
        assert shapes["dense"] == (4,)
        assert len(DEFAULT_ARCH.blocks) == 6

    def test_one_logit_per_dataset_class(self):
        assert NUM_CLASSES == len(CLASS_ORDER)

    def test_conv_blocks_halve_with_ceil(self):
        sizes = [shape[-1] for name, shape in stage_shapes(ModulationNet(DEFAULT_ARCH, seed=0))
                 if name.startswith("block")]
        assert sizes == [25, 25, 13, 13, 7, 7]

    @pytest.mark.parametrize("arch, count",
                             [(TINY_ARCH, 9), (replace(DEFAULT_ARCH, input_size=24), 45)],
                             ids=["tiny", "default_blocks"])
    def test_every_layer_result_has_its_named_layout(self, arch, count):
        """The module's layout contract, for every forward (train and eval)
        and backward result, each in the model's dtype and contiguous in
        exactly the layout named here: the global pool's and dense layer's
        (B, C) results are C-contiguous rows, and every other result,
        the stem's included, is channels-last behind its NCHW shape. The
        stem returns no input gradient."""
        model = ModulationNet(arch, seed=3)
        seen = []

        def recording(fn, tag):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append((tag, out))
                return out
            return call

        def named_layout(name, method):
            if name == "dense" or (name, method) == ("gap", "forward"):
                return "rows"
            return "channels-last"

        layers = dict(model.leaf_layers())
        assert len(layers) == count
        assert all(isinstance(layer, Layer) for layer in layers.values())
        for name, layer in layers.items():
            for method in ("forward", "backward"):
                setattr(layer, method, recording(getattr(layer, method), (name, method)))
        n = arch.input_size
        x = RNG(26).random((3, 1, n, n))
        model.forward(x, training=False)
        logits = model.forward(x, training=True)
        model.backward(np.full_like(logits, 0.1))
        for tag, out in seen:
            if tag == ("stem", "backward"):
                assert out is None  # the input diagrams need no gradient
                continue
            assert out.dtype == arch.np_dtype, tag
            layout = named_layout(*tag)
            assert out.ndim == (2 if layout == "rows" else 4), tag
            contiguous = out.transpose(0, 2, 3, 1) if layout == "channels-last" else out
            assert contiguous.flags.c_contiguous, tag
        calls = {tag for tag, _ in seen}
        assert calls == {(name, m) for name in layers for m in ("forward", "backward")}

    @pytest.mark.parametrize("side", [12, 13], ids=["even", "odd"])
    def test_parameter_gradients_match_finite_differences(self, side):
        """Every parameter of a float64 network; on an odd grid the stem's
        conv output keeps a trailing row and column that pooling crops and
        only the batch statistics see."""
        model = ModulationNet(replace(TINY_ARCH, input_size=side), seed=8)
        rng = RNG(44)
        x = rng.random((3, 1, side, side))
        probe = rng.standard_normal((3, NUM_CLASSES))

        def loss():
            return float((model.forward(x, training=True) * probe).sum())

        loss()
        model.backward(probe)
        analytic = model.grads.copy()
        numeric = numeric_gradient(loss, model.state[:model.grads.size])
        # the block conv biases' zero gradients read finite-difference round-off
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_float32_training_step_keeps_every_tensor_float32(self):
        """A float64 channel sum that leaks into a layer's output or
        gradients would upcast every later layer and Adam's moments."""
        model = ModulationNet(replace(DEFAULT_ARCH, input_size=24), seed=4)
        optimiser = Adam(model)
        logits = model.forward(RNG(34).random((4, 1, 24, 24)), training=True)
        _, grad = softmax_cross_entropy(logits, np.eye(4, dtype=np.float32))
        model.backward(grad)
        optimiser.step()
        assert logits.dtype == np.float32
        for name, layer, key, value in model.state_tensors():
            assert value.dtype == np.float32, name
            if key in layer.params:
                assert layer.grads[key].dtype == np.float32, name
        for flat in (model.state, model.grads, optimiser.m, optimiser.v):
            assert flat.dtype == np.float32
        assert np.all(np.isfinite(model.state))

    def test_predict_leaves_no_layer_cache(self):
        model = ModulationNet(replace(DEFAULT_ARCH, input_size=24), seed=3)
        x = RNG(27).random((4, 1, 24, 24))
        model.forward(x, training=True)
        assert all(layer._cache is not None for _, layer in model.leaf_layers())
        model.predict(x)
        assert [name for name, layer in model.leaf_layers() if layer._cache is not None] == []

    @pytest.mark.parametrize("layer, shape", EVERY_LAYER_TYPE, ids=EVERY_LAYER_TYPE_IDS)
    def test_backward_after_eval_forward_raises(self, layer, shape):
        x = RNG(28).standard_normal(shape)
        layer.forward(x, training=True)
        out = layer.forward(x)
        with pytest.raises(RuntimeError, match=r"forward\(training=True\)"):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("layer, shape", EVERY_LAYER_TYPE, ids=EVERY_LAYER_TYPE_IDS)
    def test_second_backward_after_one_training_forward_raises(self, layer, shape):
        """Every backward drops what its training forward kept."""
        out = layer.forward(RNG(29).standard_normal(shape), training=True)
        layer.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match=r"forward\(training=True\)"):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("layer", [BatchNorm2D(2, dtype=np.float64), ReLU()],
                             ids=["BatchNorm2D", "ReLU"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_batchnorm_and_relu_write_over_their_input(self, layer, training):
        x = RNG(30).standard_normal((2, 2, 4, 4))
        assert np.shares_memory(layer.forward(x, training), x)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_forward_leaves_the_callers_input_unchanged(self, training):
        """The input reaches only the stem conv, which copies it; the layers
        that write over their input get the network's own activations."""
        model = ModulationNet(replace(DEFAULT_ARCH, input_size=24), seed=6)
        x = RNG(35).standard_normal((3, 1, 24, 24)).astype(np.float32)
        seen = x.tobytes()
        model.forward(x, training)
        assert x.tobytes() == seen

    def test_predict_in_blocks_matches_one_forward(self):
        """A block of one row takes Dense's GEMV path and may differ in the
        last bits, so labels must agree exactly and probabilities closely."""
        model = ModulationNet(replace(DEFAULT_ARCH, input_size=32), seed=7)
        x = RNG(36).random((20, 1, 32, 32)).astype(np.float32)
        for n in range(1, 21):
            want = softmax(model.forward(x[:n]))
            got = model.predict(x[:n])
            np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1), err_msg=n)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=n)

    @pytest.mark.parametrize("rows, batch_size, error", [
        (3, 0, "batch_size must be at least 1, got 0"),
        (3, -2, "batch_size must be at least 1, got -2"),
        (0, 8, None),
        (0, 1, None),
    ])
    def test_predict_and_classify_edge_cases(self, rows, batch_size, error):
        model = ModulationNet(TINY_ARCH, seed=0)
        n = TINY_ARCH.input_size
        x = np.zeros((rows, 1, n, n), dtype=np.float32)
        if error:
            for call in (model.predict, model.classify):
                with pytest.raises(ValueError, match=error):
                    call(x, batch_size)
            return
        assert model.predict(x, batch_size).shape == (0, NUM_CLASSES)
        assert model.classify(x, batch_size).shape == (0,)

    def test_training_step_keeps_only_the_gradients(self):
        """After backward, no activation, window or mask of the step is alive:
        what remains is the 2.77 MB of float32 parameter gradients."""
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        x = RNG(37).random((32, 1, 100, 100)).astype(np.float32)
        targets = np.eye(NUM_CLASSES, dtype=np.float32)[RNG(38).integers(0, NUM_CLASSES, 32)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, grad = softmax_cross_entropy(model.forward(x, training=True), targets)
            model.backward(grad)
            del grad
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 8e6

    def test_training_step_peaks_below_75_mib(self):
        """A default-net step at batch 32 and n = 100 peaks at about 68 MiB
        above its start; with the stem's full-resolution conv, batch-norm and
        pooling buffers it peaked at 87.4 MiB."""
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        x = RNG(37).random((32, 1, 100, 100)).astype(np.float32)
        targets = np.eye(NUM_CLASSES, dtype=np.float32)[RNG(38).integers(0, NUM_CLASSES, 32)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, grad = softmax_cross_entropy(model.forward(x, training=True), targets)
            model.backward(grad)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 75 * 2 ** 20

    def test_predict_memory_does_not_grow_with_the_rows(self):
        """64 rows at n = 100 run as blocks of 8 and peak at about 4 MB; one
        block of 64 peaks at about 27 MB."""
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        x = RNG(39).random((64, 1, 100, 100)).astype(np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_parameter_count_pinned(self):
        model = ModulationNet(DEFAULT_ARCH, seed=0)
        assert model.grads.size == 692452  # one gradient per parameter

    def test_forward_shape_and_probabilities(self):
        model = ModulationNet(DEFAULT_ARCH, seed=1)
        x = RNG(20).random((3, 1, 100, 100)).astype(np.float32)
        logits = model.forward(x, training=False)
        assert logits.shape == (3, 4)
        assert np.all(np.isfinite(logits))
        probs = model.predict(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0.0)

    def test_wrong_input_size_names_expectation(self):
        model = ModulationNet(DEFAULT_ARCH, seed=1)
        with pytest.raises(ValueError, match="100, 100"):
            model.forward(np.zeros((1, 1, 50, 50)), training=False)

    def test_deterministic_forward(self):
        model = ModulationNet(DEFAULT_ARCH, seed=2)
        x = RNG(21).random((2, 1, 100, 100)).astype(np.float32)
        a = model.forward(x, training=False)
        b = model.forward(x, training=False)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_init(self):
        a = ModulationNet(TINY_ARCH, seed=5)
        b = ModulationNet(TINY_ARCH, seed=5)
        for (_, _, _, va), (_, _, _, vb) in zip(a.state_tensors(), b.state_tensors()):
            np.testing.assert_array_equal(va, vb)
