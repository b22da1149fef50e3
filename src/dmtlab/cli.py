"""Command-line front end: config ingestion, experiment orchestration, and
deterministic CSV/JSON report emission.

Exit codes: 0 success or criterion pass, 1 criterion failure, 2 usage or
configuration error. SNR is accepted in dB and rates in bits on the command
line; everything is converted to linear SNR and nats internally.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from ._util import FieldError, db_to_linear, json_field, json_floats, json_keys, json_value
from .channel import (MODELS, ChannelDims, CovarianceMatrix, ScatteringSpec, build_covariance,
                      circulant_covariance)
from .codes import Codebook, verify_dmt_criterion, verify_rank_r0
from .precoder import design_tf_shift_precoder, verify_precoder_rank
from .sim import error_curve, worst_pep
from .tradeoff import FixedRate, ScalingRate, SnrPoint, jensen_dmt_curve, outage_curve

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with defaults applied, as read by
    ``load_config``; the config format lives only in that reader and the
    fading models' ``from_doc``."""

    model: object
    dims: ChannelDims
    snr_db: tuple
    rate_mode: object
    trials: int = 100_000
    master_seed: int = 0
    output: str = None


class ConfigError(ValueError):
    pass


def _parse_model(doc):
    kind = json_field(doc, "kind", "model")
    model_cls = MODELS.get(kind) if isinstance(kind, str) else None
    if model_cls is None:
        raise ConfigError(f"model.kind: unknown kind {kind!r}")
    try:
        return model_cls.from_doc(doc)
    except FieldError:  # already names model.<key>
        raise
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def load_config(path):
    """Load and validate an experiment config, applying defaults."""
    try:
        with open(path) as fh:
            return _config_from_doc(json.load(fh))
    except (OSError, ValueError) as exc:  # JSON syntax, or a field named in the message
        raise ConfigError(f"{path}: {exc}") from exc


def _config_from_doc(doc):
    """The validated config of a parsed JSON document, none of whose sections
    may hold a key outside its schema."""
    json_keys(doc, ("model", "dims", "snr_db", "rate", "trials", "seed", "output"), "config")
    model = _parse_model(json_field(doc, "model", "config"))
    dims_doc = json_field(doc, "dims", "config")
    names = ("num_tx", "num_rx", "block_len")
    json_keys(dims_doc, names, "dims")
    sizes = {key: json_field(dims_doc, key, "dims", int) for key in names}
    try:
        dims = ChannelDims(**sizes)
    except ValueError as exc:
        raise ConfigError(f"dims: {exc}") from exc
    snr_db = json_floats(doc, "snr_db", "config")
    if not snr_db:
        raise ConfigError("config.snr_db: grid must not be empty")
    if list(snr_db) != sorted(snr_db):
        raise ConfigError("config.snr_db: grid must be ascending")
    with np.errstate(over="ignore"):
        snrs = db_to_linear(snr_db)
    if not np.all(np.isfinite(snrs) & (snrs > 0)):
        raise ConfigError("config.snr_db: every entry must be finite and positive "
                          "in linear units")
    rate_doc = json_field(doc, "rate", "config")
    mode = json_field(rate_doc, "mode", "rate")
    if mode == "fixed":
        json_keys(rate_doc, ("mode", "bits"), "rate")
        bits = json_field(rate_doc, "bits", "rate", float)
        if bits < 0:
            raise ConfigError("rate.bits: must be nonnegative")
        rate_mode = FixedRate(nats=bits * _LN2)
    elif mode == "scaling":
        json_keys(rate_doc, ("mode", "mux_rate"), "rate")
        rate_mode = ScalingRate(mux_rate=json_field(rate_doc, "mux_rate", "rate", float))
        if not 0 <= rate_mode.mux_rate <= dims.min_ant:
            raise ConfigError(f"rate.mux_rate: must lie in [0, {dims.min_ant}], "
                              "the smaller antenna count")
    else:
        raise ConfigError(f"rate.mode: unknown mode {mode!r}")
    trials = json_field(doc, "trials", "config", int, 100_000)
    if trials <= 0:
        raise ConfigError("trials: must be positive")
    seed = json_field(doc, "seed", "config", int, 0)
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")
    config = ExperimentConfig(model=model, dims=dims, snr_db=snr_db,
                              rate_mode=rate_mode, trials=trials, master_seed=seed,
                              output=json_field(doc, "output", "config", str, None))
    try:
        build_covariance(config.model, dims.block_len)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return config


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_report(results, fmt, path=None):
    """Emit a report deterministically: sorted JSON keys, fixed float format.

    CSV input is {"columns": [...], "rows": [[...], ...]}; JSON input is any
    serializable object. Identical inputs produce byte-identical output.
    """
    if fmt == "csv":
        lines = [",".join(results["columns"])]
        for row in results["rows"]:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        def default(obj):
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            if hasattr(obj, "__dict__"):
                return vars(obj)
            raise TypeError(f"not serializable: {type(obj)}")
        text = json.dumps(results, sort_keys=True, indent=2, default=default) + "\n"
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _cmd_dmt_curve(args):
    dims = ChannelDims(num_tx=args.mt, num_rx=args.mr, block_len=max(1, args.rho * args.mt))
    curve = jensen_dmt_curve(args.rho, dims, variant=args.variant)
    report = {"columns": ["r", "d"],
              "rows": [[r, d] for r, d in curve.points]}
    write_report(report, "csv", args.out)
    return 0


def _cmd_outage(args):
    config = load_config(args.config)
    trials = config.trials if args.trials is None else args.trials
    seed = config.master_seed if args.seed is None else args.seed
    cov = build_covariance(config.model, config.dims.block_len)
    points = [SnrPoint(snr=float(db_to_linear(snr_db)), rate_mode=config.rate_mode)
              for snr_db in config.snr_db]
    estimates = outage_curve(cov, config.dims, points, bound=args.bound,
                             trials=trials, master_seed=seed, min_events=args.min_events,
                             workers=args.workers)
    rows = [[snr_db, est.probability, est.ci_low, est.ci_high, est.trials]
            for snr_db, est in zip(config.snr_db, estimates)]
    report = {"columns": ["snr_db", "probability", "ci_low", "ci_high", "trials"],
              "rows": rows}
    write_report(report, "csv", args.out or config.output)
    return 0


def _cmd_error_sim(args):
    config = load_config(args.config)
    trials = config.trials if args.trials is None else args.trials
    seed = config.master_seed if args.seed is None else args.seed
    cov = build_covariance(config.model, config.dims.block_len)
    book = Codebook.load(args.codebook)
    _, mt, n = book.words.shape
    dims = config.dims
    if (mt, n) != (dims.num_tx, dims.block_len):
        raise ValueError(f"--codebook mt = {mt}, n = {n} does not match config dims "
                         f"num_tx = {dims.num_tx}, block_len = {dims.block_len}")
    snrs = [float(db_to_linear(snr_db)) for snr_db in config.snr_db]
    estimates = error_curve(cov, config.dims, book, snrs, trials=trials, master_seed=seed,
                            workers=args.workers)
    columns = ["snr_db", "error_rate", "ci_low", "ci_high", "trials"]
    rows = [[snr_db, est.probability, est.ci_low, est.ci_high, est.trials]
            for snr_db, est in zip(config.snr_db, estimates)]
    if args.with_outage:
        columns.append("outage_rate")
        points = [SnrPoint(snr=snr, rate_mode=config.rate_mode) for snr in snrs]
        outages = outage_curve(cov, config.dims, points, trials=trials, master_seed=seed,
                               min_events=None, workers=args.workers)
        for row, out in zip(rows, outages):
            row.append(out.probability)
    write_report({"columns": columns, "rows": rows}, "csv", args.out or config.output)
    return 0


def _code_and_cov(args):
    """The ``--codebook`` and ``--cov`` of a criterion, of one block length."""
    cov = CovarianceMatrix.load(args.cov)
    book = Codebook.load(args.codebook)
    if book.words.shape[-1] != cov.block_len:
        raise ValueError(f"--codebook n = {book.words.shape[-1]} does not match "
                         f"--cov n = {cov.block_len}")
    return book, cov


def _cmd_verify_code(args):
    grid = _snr_grid(args.snr_db)
    book, cov = _code_and_cov(args)
    if args.criterion == "rank":
        report = {"criterion": "rank", **verify_rank_r0(book, cov)}
    else:
        report = {"criterion": "dmt",
                  **verify_dmt_criterion(lambda snr: book, cov, grid, args.epsilon, args.mr)}
    write_report(report, "json", args.out)
    return 0 if report["passed"] else 1


def _cmd_design_precoder(args):
    spec = ScatteringSpec.from_normalized(args.nu0_t, args.tau0_f,
                                          args.num_time, args.num_freq)
    pre = design_tf_shift_precoder(spec, num_tx=args.mt)
    check = verify_precoder_rank(circulant_covariance(spec), pre)
    report = pre.to_json()
    report["verification"] = {"rank": check.rank, "expected_rank": check.expected_rank,
                              "sigma0": check.sigma0, "passed": check.passed}
    write_report(report, "json", args.out)
    return 0 if check.passed else 1


def _cmd_pep(args):
    snrs = _snr_grid(args.snr_db)
    book, cov = _code_and_cov(args)
    rows = [[snr_db, value] for snr_db, value in zip(args.snr_db,
                                                    worst_pep(book, cov, snrs, args.mr))]
    write_report({"columns": ["snr_db", "pep_bound"], "rows": rows}, "csv", args.out)
    return 0


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _finite_float(text):
    """argparse type: a finite float."""
    return json_value(float(text), float, text)


def _snr_grid(snr_db):
    """Linear SNRs of a dB grid that must be ascending and finite in linear units."""
    with np.errstate(over="ignore"):
        snrs = db_to_linear(snr_db)
    if list(snr_db) != sorted(snr_db) or not np.all(np.isfinite(snrs)):
        raise ValueError("--snr-db: grid must be ascending and finite in linear units")
    return snrs.tolist()


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every token starting like a negative number
    as a value, "-1e3" and "-.5e1" too: argparse's own test takes only plain
    decimals and reads "-1e3" as an unknown option. The subcommand parsers
    are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser():
    parser = _Parser(
        prog="dmtlab",
        description="Diversity-multiplexing tradeoff toolkit for "
                    "selective-fading MIMO channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dmt-curve", help="closed-form diversity curve")
    p.add_argument("--mt", type=_int_at_least(1), required=True)
    p.add_argument("--mr", type=_int_at_least(1), required=True)
    p.add_argument("--rho", type=_int_at_least(1), required=True,
                   help="rank of the slot covariance")
    p.add_argument("--variant", choices=["jensen", "independent"], default="jensen")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dmt_curve)

    p = sub.add_parser("outage", help="Monte-Carlo outage sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--bound", choices=["full", "jensen"], default="full")
    p.add_argument("--trials", type=_int_at_least(1))
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--min-events", type=_int_at_least(0), default=100,
                   help="stop once this many outage events are seen; 0 runs the full cap")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("error-sim", help="exhaustive-ML error-rate sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--codebook", required=True,
                   help="codebook JSON; the same words are reused at every grid SNR")
    p.add_argument("--with-outage", action="store_true")
    p.add_argument("--trials", type=_int_at_least(1))
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_error_sim)

    p = sub.add_parser("verify-code", help="code design criteria")
    p.add_argument("--codebook", required=True)
    p.add_argument("--cov", required=True)
    p.add_argument("--mr", type=_int_at_least(1), default=1)
    p.add_argument("--criterion", choices=["rank", "dmt"], default="rank")
    p.add_argument("--snr-db", type=_finite_float, nargs="+", default=[10.0, 20.0, 30.0])
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_code)

    p = sub.add_parser("design-precoder", help="time-frequency shift precoder")
    p.add_argument("--nu0-t", type=_finite_float, required=True, dest="nu0_t")
    p.add_argument("--tau0-f", type=_finite_float, required=True, dest="tau0_f")
    p.add_argument("--num-time", type=_int_at_least(1), required=True)
    p.add_argument("--num-freq", type=_int_at_least(1), required=True)
    p.add_argument("--mt", type=_int_at_least(1), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design_precoder)

    p = sub.add_parser("pep", help="worst-pair pairwise error bound sweep")
    p.add_argument("--cov", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--mr", type=_int_at_least(1), default=1)
    p.add_argument("--snr-db", type=_finite_float, nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pep)

    return parser


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
