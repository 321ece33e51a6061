"""Command line front end.

Subcommands: generate (dataset -> .nmd), train (dataset -> .nmdl checkpoint),
eval (checkpoint + dataset -> metrics), sweep (experiment config -> report
directory), report (re-emit CSV from sweep results), inspect (dump diagrams
as PGM images). A JSON config mirrors ExperimentConfig field by field and
every flag overrides its config key.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness
from .datapipe import (generate_dataset, load_dataset, save_dataset,
                       scenario_from_dict, split_dataset)
from .density import write_pgm
from .errors import DataFormatError, NomadetError, NumericError
from .harness import (ExperimentConfig, ResultTable, emit_report, evaluate,
                      diagram_matrix, model_predictor, read_journal, run_sweep,
                      desk_preset, full_preset, METHODS)
from .neuralnet import (ArchConfig, ModulationNet, TrainConfig, load_model,
                        save_model, train)
from .sigsim import NomaScenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DataFormatError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc


def _scenario_from_args(args, base: NomaScenario | None = None) -> NomaScenario:
    scen = base or NomaScenario(near_schemes=("qpsk",), delta_db=6.0)
    updates = {}
    if getattr(args, "near_scheme", None):
        updates["near_schemes"] = tuple(args.near_scheme)
    for flag, field_name in (("snr", "snr_db_near"), ("delta", "delta_db"),
                             ("alpha_fpc", "alpha_fpc"),
                             ("samples_per_class", "samples_per_class"),
                             ("symbols", "symbols_per_frame"),
                             ("grid", "grid_size"), ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    if getattr(args, "fading", None):
        updates["fading"] = args.fading
    return replace(scen, **updates) if updates else scen


def _cmd_generate(args) -> int:
    base = None
    if args.config:
        cfg = _load_json(args.config)
        try:
            base = scenario_from_dict(cfg.get("scenario", cfg))
        except TypeError as exc:  # a key that NomaScenario lacks
            raise ValueError(f"bad scenario in {args.config}: {exc}") from exc
    scenario = _scenario_from_args(args, base)
    samples = generate_dataset(scenario, denoise=not args.no_denoise)
    save_dataset(samples, args.out, scenario)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _train_config_from_args(args) -> TrainConfig:
    cfg = TrainConfig()
    updates = {}
    for flag, field_name in (("epochs", "max_epochs"), ("batch", "batch_size"),
                             ("lr", "learning_rate"), ("seed", "seed"),
                             ("patience", "patience")):
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    return replace(cfg, **updates) if updates else cfg


def _cmd_train(args) -> int:
    samples, manifest = load_dataset(args.dataset)
    split = split_dataset(samples, seed=args.split_seed)
    x, y = diagram_matrix(samples)
    tr = np.array(split.train, dtype=np.int64)
    va = np.array(split.validation, dtype=np.int64)
    grid = samples[0].diagram.grid_size
    model = ModulationNet(ArchConfig(input_size=grid), seed=args.seed or 0)
    cfg = _train_config_from_args(args)
    history = train(model, (x[tr], y[tr]), (x[va], y[va]), cfg)
    save_model(model, args.out)
    if args.history:
        with open(args.history, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_accuracy"])
            for row in history:
                writer.writerow([row.epoch, f"{row.train_loss:.6f}",
                                 f"{row.val_accuracy:.6f}"])
    best = max(history, key=lambda r: r.val_accuracy)
    print(f"trained {len(history)} epochs; best val accuracy "
          f"{best.val_accuracy:.4f} at epoch {best.epoch}; saved {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    samples, _ = load_dataset(args.dataset)
    if args.split == "test":
        split = split_dataset(samples, seed=args.split_seed)
        samples = [samples[i] for i in split.test]
    accuracy, confusion = evaluate(model_predictor(model), samples)
    print(f"samples: {len(samples)}")
    print(f"accuracy: {accuracy:.6f}")
    print("confusion (rows true, cols predicted):")
    for row in confusion:
        print(" ".join(f"{c:4d}" for c in row))
    return EXIT_OK


def _experiment_from_config(blob: dict) -> ExperimentConfig:
    kwargs = dict(blob)
    try:
        if "scenario" in kwargs and kwargs["scenario"] is not None:
            kwargs["scenario"] = scenario_from_dict(kwargs["scenario"])
        if "train" in kwargs and kwargs["train"] is not None:
            kwargs["train"] = TrainConfig(**kwargs["train"])
        kwargs.pop("format", None)
        for key in ("factor_values", "methods"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return ExperimentConfig(**kwargs)
    except TypeError as exc:  # a key that the config classes lack
        raise ValueError(f"bad experiment config: {exc}") from exc


def _cmd_sweep(args) -> int:
    if args.preset == "desk":
        cfg = desk_preset(seed=args.seed)
    elif args.preset == "full":
        cfg = full_preset(seed=args.seed)
    else:
        cfg = ExperimentConfig(seed=args.seed)
    if args.config:
        blob = _load_json(args.config)
        blob.setdefault("seed", args.seed)
        cfg = _experiment_from_config(blob)
    updates = {"seed": args.seed}
    if args.methods:
        updates["methods"] = tuple(args.methods.split(","))
    for flag, field_name in (("snr_start", "snr_start"), ("snr_stop", "snr_stop"),
                             ("snr_step", "snr_step"), ("factor", "factor_name")):
        value = getattr(args, flag, None)
        if value is not None:
            updates[field_name] = value
    if args.factor_values:
        updates["factor_values"] = tuple(args.factor_values.split(","))
    if args.pooled:
        updates["pooled_training"] = True
    scenario = _scenario_from_args(args, cfg.scenario)
    cfg = replace(cfg, scenario=scenario, **updates)

    def progress(row):
        print(f"[sweep] factor={row.factor} method={row.method} "
              f"snr={row.snr_db:g} acc={row.accuracy:.3f}", flush=True)

    table = run_sweep(cfg, out_dir=args.out, progress=progress)
    paths = emit_report(table, args.out)
    with open(Path(args.out) / "sweep_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.digest_source(), fh, sort_keys=True, indent=2)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_report(args) -> int:
    journal = Path(args.results) / "results.jsonl"
    if not journal.exists():
        raise DataFormatError(f"no results.jsonl under {args.results}")
    _, rows, _ = read_journal(journal)
    if not rows:
        raise DataFormatError(f"{journal} holds no result rows")
    paths = emit_report(ResultTable(rows), args.out or args.results)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    samples, _ = load_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    limit = args.limit if args.limit is not None else len(samples)
    for k, sample in enumerate(samples[:limit]):
        name = f"sample_{k:04d}_label{sample.label}.pgm"
        write_pgm(sample.diagram, out_dir / name)
    print(f"wrote {min(limit, len(samples))} PGM images to {out_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nomadet",
                     description="NOMA far-user modulation detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a labelled dataset")
    p.add_argument("--out", required=True, help="output .nmd path")
    p.add_argument("--config", help="JSON file with a scenario section")
    p.add_argument("--near-scheme", action="append",
                   help="near-user scheme (repeatable): pi2bpsk|qpsk|qam16|qam64")
    p.add_argument("--snr", type=float, help="near-user SNR in dB")
    p.add_argument("--delta", type=float, help="near-to-far SNR gap in dB")
    p.add_argument("--alpha-fpc", dest="alpha_fpc", type=float)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int)
    p.add_argument("--symbols", type=int, help="symbols per frame")
    p.add_argument("--grid", type=int, help="density grid size")
    p.add_argument("--fading", choices=["rayleigh", "none"])
    p.add_argument("--seed", type=int)
    p.add_argument("--no-denoise", action="store_true",
                   help="skip wavelet denoising before the density diagram")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a classifier on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output .nmdl checkpoint")
    p.add_argument("--history", help="optional per-epoch CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["test", "all"], default="test")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run an SNR/factor sweep experiment")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", help="JSON mirroring the experiment config")
    p.add_argument("--preset", choices=["desk", "full"])
    p.add_argument("--methods", help="comma list: " + ",".join(METHODS))
    p.add_argument("--snr-start", dest="snr_start", type=float)
    p.add_argument("--snr-stop", dest="snr_stop", type=float)
    p.add_argument("--snr-step", dest="snr_step", type=float)
    p.add_argument("--factor", choices=list(harness.FACTORS))
    p.add_argument("--factor-values", dest="factor_values",
                   help="comma list of factor values")
    p.add_argument("--pooled", action="store_true",
                   help="train one model across all SNRs per factor value")
    p.add_argument("--near-scheme", action="append")
    p.add_argument("--delta", type=float)
    p.add_argument("--alpha-fpc", dest="alpha_fpc", type=float)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int)
    p.add_argument("--symbols", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--fading", choices=["rayleigh", "none"])
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-emit CSV from sweep results")
    p.add_argument("--results", required=True, help="directory with results.jsonl")
    p.add_argument("--out", help="output directory (defaults to --results)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("inspect", help="dump dataset diagrams as PGM images")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, NomadetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
