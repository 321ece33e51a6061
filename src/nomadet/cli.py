"""Command line front end.

Subcommands: generate (dataset -> .nmd), train (dataset -> .nmdl checkpoint),
eval (checkpoint + dataset -> metrics), sweep (experiment config -> report
directory), report (re-emit CSV from sweep results), inspect (dump diagrams
as PGM images). train and eval split with the one fixed seed 0, so eval's
test split holds no training row. A config file is the JSON form of a config
class, ``json.dumps(dataclasses.asdict(cfg))``: for sweep an ExperimentConfig,
which a sweep writes as sweep_config.json when it starts, for ``--config`` to
read back; for generate a NomaScenario, alone or as the "scenario" section.
Each flag's dest is the name of the field it overrides.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import harness
from .datapipe import generate_dataset, load_dataset, save_dataset, split_dataset
from .density import write_pgm
from .errors import DataFormatError, NomadetError, NumericError, checked_int
from .harness import (ExperimentConfig, ResultTable, emit_report, evaluate,
                      diagram_matrix, read_journal, run_sweep, train_model,
                      desk_preset, full_preset, METHODS)
from .neuralnet import TrainConfig, load_model, save_model
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


def _load_config(path, cls, section: str | None = None):
    """``cls(**fields)`` from a JSON file, or from its ``section`` if it has one."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except FileNotFoundError as exc:
        raise DataFormatError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return cls(**(blob.get(section, blob) if section else blob))
    except (AttributeError, TypeError, ValueError) as exc:
        # not an object, a key cls lacks, or a value cls rejects
        raise ValueError(f"bad config in {path}: {exc}") from exc


def _overrides(obj, args):
    """``obj`` with every field that a given flag names (by its dest) replaced."""
    given = {f.name: getattr(args, f.name) for f in fields(obj)
             if getattr(args, f.name, None) is not None}
    return replace(obj, **given)


def _cmd_generate(args) -> int:
    scenario = (_load_config(args.config, NomaScenario, "scenario") if args.config
                else NomaScenario())
    scenario = _overrides(scenario, args)
    samples = generate_dataset(scenario, denoise=not args.no_denoise)
    save_dataset(samples, args.out, scenario)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    samples, _ = load_dataset(args.dataset)
    split = split_dataset(samples, seed=0)
    model, history = train_model([(samples, split)], _overrides(TrainConfig(), args),
                                 model_seed=args.seed)
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
    size = model.arch.input_size
    if samples and len(samples[0].diagram.grid) != size:
        grid = len(samples[0].diagram.grid)
        raise DataFormatError(f"{args.dataset} holds {grid}x{grid} diagrams, but "
                              f"{args.model} takes {size}x{size}")
    if args.split == "test":
        split = split_dataset(samples, seed=0)
        samples = [samples[i] for i in split.test]
    x, labels = diagram_matrix(samples)
    accuracy, confusion = evaluate(model.classify(x), labels)
    print(f"samples: {len(samples)}")
    print(f"accuracy: {accuracy:.6f}")
    print("confusion (rows true, cols predicted):")
    for row in confusion:
        print(" ".join(f"{c:4d}" for c in row))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.config:
        cfg = _load_config(args.config, ExperimentConfig)
    elif args.seed is None:
        raise ValueError("--seed is required without --config")
    elif args.preset:
        cfg = (desk_preset if args.preset == "desk" else full_preset)()
    else:
        cfg = ExperimentConfig()
    cfg = _overrides(replace(cfg, scenario=_overrides(cfg.scenario, args)), args)

    def progress(row):
        print(f"[sweep] factor={row.factor} method={row.method} "
              f"snr={row.snr_db:g} acc={row.accuracy:.3f}", flush=True)

    table = run_sweep(cfg, out_dir=args.out, progress=progress)
    paths = emit_report(table, args.out)
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
    limit = None if args.limit is None else checked_int("--limit", args.limit, 0)
    samples, _ = load_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, sample in enumerate(samples[:limit]):
        name = f"sample_{k:04d}_label{sample.label}.pgm"
        write_pgm(sample.diagram, out_dir / name)
    print(f"wrote {len(samples[:limit])} PGM images to {out_dir}")
    return EXIT_OK


def _comma_list(text: str) -> tuple:
    return tuple(text.split(","))


def _add_scenario_flags(p) -> None:
    """The scenario flags that generate and sweep share."""
    p.add_argument("--near-scheme", dest="near_schemes", action="append",
                   help="near-user scheme (repeatable): pi2bpsk|qpsk|qam16|qam64")
    p.add_argument("--delta", dest="delta_db", type=float,
                   help="near-to-far SNR gap in dB")
    p.add_argument("--alpha-fpc", dest="alpha_fpc", type=float)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int)
    p.add_argument("--symbols", dest="symbols_per_frame", type=int,
                   help="symbols per frame")
    p.add_argument("--grid", dest="grid_size", type=int, help="density grid size")


def build_parser() -> _Parser:
    parser = _Parser(prog="nomadet",
                     description="NOMA far-user modulation detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a labelled dataset")
    p.add_argument("--out", required=True, help="output .nmd path")
    p.add_argument("--config", help="JSON form of a scenario, alone or as a scenario section")
    _add_scenario_flags(p)
    p.add_argument("--snr", dest="snr_db_near", type=float, help="near-user SNR in dB")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-denoise", action="store_true",
                   help="skip wavelet denoising before the density diagram")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a classifier on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output .nmdl checkpoint")
    p.add_argument("--history", help="optional per-epoch CSV")
    p.add_argument("--epochs", dest="max_epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=["test", "all"], default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run an SNR/factor sweep experiment")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, help="required without --config, which holds one")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON form of an experiment config, "
                        "such as the sweep_config.json a sweep writes")
    source.add_argument("--preset", choices=["desk", "full"])
    p.add_argument("--methods", type=_comma_list, help="comma list: " + ",".join(METHODS))
    p.add_argument("--snr-start", dest="snr_start", type=float)
    p.add_argument("--snr-stop", dest="snr_stop", type=float)
    p.add_argument("--snr-step", dest="snr_step", type=float)
    p.add_argument("--factor", dest="factor_name", choices=list(harness.FACTORS))
    p.add_argument("--factor-values", dest="factor_values", type=_comma_list,
                   help="comma list of factor values")
    p.add_argument("--pooled", dest="pooled_training", action="store_true", default=None,
                   help="train one model across all SNRs per factor value")
    _add_scenario_flags(p)
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
    except (DataFormatError, OSError) as exc:  # a missing or unusable file
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
