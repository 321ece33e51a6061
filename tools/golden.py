"""Fixed-seed golden artifacts of nomadet, printed as sha256 prefixes.

Usage: python3 tools/golden.py [--against FILE]

Builds, in a temporary directory and from the checkout's own ``src/``:
  - a three-method ``run_sweep`` over SNR {0, 10} x user_count {2, 3}
    (10 samples per class, 24x24 grid, 400 symbols, 2 epochs), unpooled and
    pooled, plus its report files;
  - ``nomadet generate`` datasets, denoised and raw;
  - a ``nomadet train`` checkpoint on the denoised dataset: its tensor bytes,
    and apart from them its header and config JSON;
  - ``nomadet inspect`` PGM images of the denoised dataset;
  - the float32 eval-mode logits of a fixed-seed default-architecture
    network on the denoised dataset's diagrams, at batch sizes 1 and 64, so
    a last-bit change in inference shows even where argmax would hide it;
  - the raw samples of one fixed-seed 600-symbol ``generate_noma_frame`` frame
    per (near scheme, far scheme) pair, so a last-bit change in modulation
    shows even where density binning would hide it;
  - the raw samples of one fixed-seed 200-symbol frame per power allocation
    (alpha_fpc 0.25, 0.5, 1 x 1-3 QPSK near users x delta_db 6, 9 dB), so a
    last-bit change in the power shares shows away from alpha_fpc = 1 too;
  - the wavelet-denoised samples, and the density counts of the raw and
    denoised samples, of 9 fixed-seed frames (1999, 2000 and 3000 symbols x
    SNR -10, 10, 30 dB) plus one frame without a recorded noise scale, so a
    last-bit change in denoising shows even where density binning would
    hide it;
  - the projection baseline's per-axis cluster counts on 12 fixed-seed
    3000-symbol frames (SNR -10, 0, 10, 20 dB x 1-3 QPSK near users), raw
    and, as the sweep and the benchmark feed them to the baseline, denoised;
  - the subtractive-clustering counts of fixed-seed point sets that reach
    Chiu's grey zone, exactly tied potentials and the 64-centre cap:
    uniform sets at four radii, sets of duplicated points, and the I and Q
    axes of 2000- and 3000-symbol frames, raw and denoised;
  - the per-step training loss of a fixed-seed default-architecture network
    on the denoised dataset's diagrams, 3 epochs, in float64 and in float32.

Each artifact prints as one line: a name and the first 16 hex digits of its
sha256. Artifacts that carry numbers (result rows, reports, NMD1 records,
checkpoint tensors, images) print in the first group; metadata that names the
config (the journal's digest line, the NMD1 header digest, the manifest, the
checkpoint's header and config JSON) prints in the second, which ends with ``src.lines``, the package's line count as
``cat src/nomadet/*.py src/nomadet/neuralnet/*.py | wc -l`` gives it. A
change that only simplifies the code keeps the first group byte-identical.
The loss curves print last, one full-precision value per step: a change
that only reorders the network's arithmetic keeps the float64 curve within
1e-9 relative of its parent's at every step, while float32 rounding
differences grow over the steps and are reported, not held to a tolerance.
The script uses only API that has existed since the sample pipeline was
unified, so it runs unchanged on older commits for comparison.

With ``--against FILE``, where FILE holds the saved output of another
commit's run, the output is followed by a comparison: each first-group
artifact whose digest changed, the largest relative deviation of each loss
curve from the saved one, and last each second-group line that changed,
``src.lines`` included, as ``metadata changed NAME``. The exit code is 1
when the float64 curve deviates by more than 1e-9 at some step (or has
another number of steps); the float32 deviation and changed metadata are
printed only. FILE is read and checked before anything is built: one that
is not a printed run, such as a saved comparison, exits 2 with a message
that names it and its first foreign line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nomadet import baseline, cli, datapipe, harness  # noqa: E402
from nomadet.neuralnet import (Adam, ArchConfig, ModulationNet, TrainConfig,  # noqa: E402
                               softmax_cross_entropy)
from nomadet.density import density_counts  # noqa: E402
from nomadet.sigsim import ModScheme, NomaScenario, generate_noma_frame  # noqa: E402
from nomadet.wavelet import denoise_frame  # noqa: E402

NMD1_HEADER = 44  # magic 4 + version 2 + count 4 + grid 2 + scenario digest 32
NMDL_HEADER = 10  # magic 4 + version 2 + config length 4, then the config JSON
NUMBERS_HEADER = "# number-carrying artifacts"
METADATA_HEADER = "# metadata"
FLOAT64_LOSS_LIMIT = 1e-9  # largest relative deviation per step


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _sweep(out: Path, pooled: bool) -> tuple[list, list]:
    scenario = NomaScenario(near_schemes=(ModScheme.QPSK,), delta_db=6.0,
                            symbols_per_frame=400, samples_per_class=10,
                            grid_size=24, seed=11)
    cfg = harness.ExperimentConfig(
        scenario=scenario, snr_start=0.0, snr_stop=10.0, snr_step=10.0,
        factor_name="user_count", factor_values=(2, 3), methods=harness.METHODS,
        pooled_training=pooled, train=TrainConfig(max_epochs=2, patience=2, seed=3),
        seed=5)
    harness.emit_report(harness.run_sweep(cfg, out_dir=out), out)
    first, _, rows = (out / "results.jsonl").read_bytes().partition(b"\n")
    tag = "pooled" if pooled else "unpooled"
    numbers = [(f"sweep.{tag}.journal_rows", _sha(rows)),
               (f"sweep.{tag}.accuracy_vs_snr.csv",
                _sha((out / "accuracy_vs_snr.csv").read_bytes())),
               (f"sweep.{tag}.confusion_matrices.txt",
                _sha((out / "confusion_matrices.txt").read_bytes()))]
    return numbers, [(f"sweep.{tag}.journal_digest_line", _sha(first))]


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"nomadet {' '.join(argv)} exited {code}")


def _dataset(path: Path, tag: str) -> tuple[list, list]:
    blob = path.read_bytes()
    manifest = Path(str(path) + ".manifest.json").read_bytes()
    return ([(f"generate.{tag}.records", _sha(blob[NMD1_HEADER:]))],
            [(f"generate.{tag}.header", _sha(blob[:NMD1_HEADER])),
             (f"generate.{tag}.manifest", _sha(manifest))])


def _checkpoint(path: Path) -> tuple[str, str]:
    """sha256 prefixes of a checkpoint's tensor bytes, and of its header and config."""
    blob = path.read_bytes()
    tensors = NMDL_HEADER + int.from_bytes(blob[NMDL_HEADER - 4:NMDL_HEADER], "little")
    return _sha(blob[tensors:]), _sha(blob[:tensors])


def _frames() -> str:
    """sha256 prefix of the samples of one fixed-seed frame per scheme pair."""
    blob = b""
    for index, (near, far) in enumerate(itertools.product(ModScheme, repeat=2)):
        scenario = NomaScenario(near_schemes=(near,), far_scheme=far, symbols_per_frame=600)
        frame = generate_noma_frame(scenario, rng=np.random.default_rng(200 + index))
        blob += frame.samples.tobytes()
    return _sha(blob)


def _allocation_frames() -> str:
    """sha256 prefix of the samples of one fixed-seed frame per power allocation."""
    cells = itertools.product((0.25, 0.5, 1.0), (1, 2, 3), (6.0, 9.0))
    blob = b""
    for index, (alpha, users, delta) in enumerate(cells):
        scenario = NomaScenario(near_schemes=(ModScheme.QPSK,) * users,
                                far_scheme=datapipe.CLASS_ORDER[index % 4], delta_db=delta,
                                alpha_fpc=alpha, symbols_per_frame=200)
        frame = generate_noma_frame(scenario, rng=np.random.default_rng(400 + index))
        blob += frame.samples.tobytes()
    return _sha(blob)


def _denoised() -> tuple[str, str]:
    """sha256 prefixes of denoised samples and of density counts of 9 frames."""
    cells = [(n, snr) for n in (1999, 2000, 3000) for snr in (-10.0, 10.0, 30.0)]
    frames = []
    for index, (n, snr) in enumerate(cells):
        scenario = NomaScenario(near_schemes=(ModScheme.QPSK,),
                                far_scheme=datapipe.CLASS_ORDER[index % 4],
                                snr_db_near=snr, symbols_per_frame=n)
        frames.append(generate_noma_frame(scenario, rng=np.random.default_rng(300 + index)))
    denoised = [denoise_frame(f) for f in frames]
    counts = [density_counts(f, 100) for f in frames + denoised]
    return (_sha(b"".join(f.samples.tobytes() for f in denoised)),
            _sha(b"".join(c.tobytes() for c in counts)))


def _axis_counts() -> tuple[str, str]:
    """sha256 prefixes of axis_level_counts over 12 fixed-seed 3000-symbol
    frames, raw and denoised."""
    cells = [(snr, users) for snr in (-10.0, 0.0, 10.0, 20.0) for users in (1, 2, 3)]
    frames = []
    for index, (snr, users) in enumerate(cells):
        scenario = NomaScenario(near_schemes=(ModScheme.QPSK,) * users,
                                far_scheme=datapipe.CLASS_ORDER[index % 4],
                                snr_db_near=snr, symbols_per_frame=3000)
        frames.append(generate_noma_frame(scenario, rng=np.random.default_rng(100 + index)))
    return tuple(_sha(repr([baseline.axis_level_counts(f) for f in group]).encode())
                 for group in (frames, [denoise_frame(f) for f in frames]))


def _cluster_counts() -> str:
    """sha256 prefix of subtractive_cluster_count over fixed-seed point sets."""
    rng = np.random.default_rng(29)
    sets = [(np.repeat(np.arange(100.0), 5), 0.001)]  # more than 64 centres
    sets += [(rng.random(int(n)), radius)
             for n, radius in zip(rng.integers(50, 3000, 32), (0.02, 0.06, 0.1, 0.2) * 8)]
    sets += [(np.repeat(rng.random(int(n)), copies), 0.06)
             for n, copies in zip(rng.integers(20, 600, 12), (2, 3, 5, 8) * 3)]
    for index, (snr, n) in enumerate(itertools.product((0.0, 12.0, 25.0), (2000, 3000))):
        scenario = NomaScenario(near_schemes=(ModScheme.QPSK,) * (1 + index % 3),
                                far_scheme=datapipe.CLASS_ORDER[index % 4],
                                snr_db_near=snr, symbols_per_frame=n)
        frame = generate_noma_frame(scenario, rng=np.random.default_rng(500 + index))
        for f in (frame, denoise_frame(frame)):
            sets += [(f.samples.real, 0.06), (f.samples.imag, 0.06)]
    return _sha(repr([baseline.subtractive_cluster_count(points, baseline.ClusterParams(radius))
                      for points, radius in sets]).encode())


def _loss_curve(dataset: Path, dtype: str, epochs: int = 3, batch: int = 10) -> list:
    """Loss of every Adam step on the dataset's diagrams, in a fixed batch order."""
    samples, _ = datapipe.load_dataset(dataset)
    x, y = harness.diagram_matrix(samples)
    model = ModulationNet(ArchConfig(input_size=x.shape[-1], dtype=dtype), seed=2)
    x = x.astype(model.arch.np_dtype)
    targets = np.eye(len(datapipe.CLASS_ORDER), dtype=x.dtype)[y]
    optimiser = Adam(model)
    order = np.random.default_rng(4).permutation(len(y))
    losses = []
    for _ in range(epochs):
        for start in range(0, len(y), batch):
            rows = order[start:start + batch]
            loss, grad = softmax_cross_entropy(model.forward(x[rows], training=True),
                                               targets[rows])
            model.backward(grad)
            optimiser.step()
            losses.append(loss)
    return losses


def _logits(dataset: Path) -> str:
    """sha256 prefix of a fixed-seed float32 default-architecture net's eval
    logits on the dataset's diagrams, taken at batch sizes 1 and 64."""
    samples, _ = datapipe.load_dataset(dataset)
    x = harness.diagram_matrix(samples)[0]
    model = ModulationNet(ArchConfig(input_size=x.shape[-1]), seed=6)
    return _sha(b"".join(model.forward(x[i:i + batch], training=False).tobytes()
                         for batch in (1, 64) for i in range(0, len(x), batch)))


def _src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for pattern in ("*.py", "neuralnet/*.py")
               for path in (SRC / "nomadet").glob(pattern))


def _parse(text: str) -> tuple[dict, dict]:
    """Digests by name under each group header, and loss curves by dtype, of
    a printed run. A line that a printed run does not hold, such as one of
    a comparison report, raises ValueError naming it."""
    groups, curves, header = {NUMBERS_HEADER: {}, METADATA_HEADER: {}}, {}, None
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if line in groups or line.startswith("# loss curve, "):
            header = line
        elif len(fields) == 2 and header in groups:
            groups[header][fields[0]] = fields[1]
        elif len(fields) == 2 and header is not None and fields[0].startswith("loss."):
            try:
                loss = float(fields[1])
            except ValueError:
                raise ValueError(f"line {number} holds no loss: {line!r}") from None
            curves.setdefault(fields[0].split(".")[1], []).append(loss)
        elif line:
            raise ValueError(f"line {number} is not part of a printed run: {line!r}")
    return groups, curves


def _changed(now: dict, then: dict) -> list:
    """Names whose digests differ, in ``now``'s order, then those only in ``then``."""
    names = list(now) + [name for name in then if name not in now]
    return [name for name in names if now.get(name) != then.get(name)]


def _deviation(now: list, then: list) -> float:
    """Largest relative deviation of ``now`` from ``then``, step by step."""
    if len(now) != len(then) or not then:
        return math.inf
    return max(0.0 if a == b else abs(a - b) / abs(b) if b else math.inf
               for a, b in zip(now, then))


def compare(current: str, saved: str) -> tuple[list, bool]:
    """Report lines comparing one printed run with a saved one, and whether
    the float64 loss curve stays within ``FLOAT64_LOSS_LIMIT``. Changed
    metadata is listed too, but does not decide the outcome."""
    groups, curves = _parse(current)
    saved_groups, saved_curves = _parse(saved)
    report = [f"changed {name}"
              for name in _changed(groups[NUMBERS_HEADER], saved_groups[NUMBERS_HEADER])]
    if not report:
        report.append("no number-carrying artifact changed")
    float64 = _deviation(curves.get("float64", []), saved_curves.get("float64", []))
    float32 = _deviation(curves.get("float32", []), saved_curves.get("float32", []))
    report.append(f"loss.float64 largest relative deviation {float64:.3g} "
                  f"(limit {FLOAT64_LOSS_LIMIT:g})")
    report.append(f"loss.float32 largest relative deviation {float32:.3g} (reported only)")
    report += [f"metadata changed {name}"
               for name in _changed(groups[METADATA_HEADER], saved_groups[METADATA_HEADER])]
    return report, float64 <= FLOAT64_LOSS_LIMIT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="saved output of another run to compare with")
    args = parser.parse_args(argv)
    saved = None
    if args.against:  # read and check it before building anything
        try:
            saved = args.against.read_text()
            _parse(saved)
        except (OSError, ValueError) as err:
            parser.error(f"--against {args.against}: {err}")
    numbers, meta = [], []
    with tempfile.TemporaryDirectory(prefix="nomadet-golden-") as tmp:
        root = Path(tmp)
        for pooled in (False, True):
            n, m = _sweep(root / f"sweep-{int(pooled)}", pooled)
            numbers += n
            meta += m
        flags = ["--samples-per-class", "10", "--snr", "10", "--grid", "24",
                 "--symbols", "400", "--seed", "7"]
        den, raw = root / "den.nmd", root / "raw.nmd"
        _cli("generate", "--out", str(den), *flags)
        _cli("generate", "--out", str(raw), "--no-denoise", *flags)
        for path, tag in ((den, "denoised"), (raw, "raw")):
            n, m = _dataset(path, tag)
            numbers += n
            meta += m
        ckpt = root / "model.nmdl"
        _cli("train", "--dataset", str(den), "--out", str(ckpt), "--epochs", "2",
             "--seed", "1")
        tensors, config = _checkpoint(ckpt)
        numbers.append(("train.checkpoint", tensors))
        meta.append(("train.checkpoint.config", config))
        pgm = root / "pgm"
        _cli("inspect", "--dataset", str(den), "--out", str(pgm))
        images = b"".join(p.name.encode() + p.read_bytes() for p in sorted(pgm.iterdir()))
        numbers.append(("inspect.pgm", _sha(images)))
        numbers.append(("model.logits", _logits(den)))
        numbers.append(("sigsim.frames", _frames()))
        numbers.append(("sigsim.allocation_frames", _allocation_frames()))
        numbers += zip(("wavelet.denoised", "density.counts"), _denoised())
        numbers += zip(("projection.axis_counts", "baseline.denoised_counts"), _axis_counts())
        numbers.append(("baseline.cluster_counts", _cluster_counts()))
        curves = {dtype: _loss_curve(den, dtype) for dtype in ("float64", "float32")}
    meta.append(("src.lines", str(_src_lines())))
    lines = [NUMBERS_HEADER, *(f"{name} {digest}" for name, digest in numbers),
             METADATA_HEADER, *(f"{name} {digest}" for name, digest in meta)]
    for dtype, losses in curves.items():
        lines.append(f"# loss curve, {dtype}, per step")
        lines += [f"loss.{dtype}.{step:02d} {loss!r}" for step, loss in enumerate(losses)]
    print("\n".join(lines))
    if saved is None:
        return 0
    report, ok = compare("\n".join(lines), saved)
    print(f"# against {args.against}")
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
