import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import _util, cli
from dmtlab.channel import (
    MODELS,
    BlockFading,
    ChannelDims,
    CyclicIsi,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
)
from dmtlab.cli import ConfigError, ExperimentConfig, dispatch, load_config, write_report
from dmtlab.codes import Codebook, xi_metric
from dmtlab.precoder import classic_precoder
from dmtlab.tradeoff import FixedRate, ScalingRate

from _oracles import pep_chernoff


def _write_config(path, **overrides):
    doc = {
        "model": {"kind": "flat"},
        "dims": {"num_tx": 1, "num_rx": 1, "block_len": 1},
        "snr_db": [5.0, 10.0],
        "rate": {"mode": "fixed", "bits": 1.0},
        "trials": 2000,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_dmt_curve_values(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert dispatch(["dmt-curve", "--mt", "2", "--mr", "2", "--rho", "2",
                     "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows == ["r,d", "0,8", "1,3", "2,0"]


def test_dmt_curve_flat_table():
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert dispatch(["dmt-curve", "--mt", "2", "--mr", "2", "--rho", "1"]) == 0
    assert buf.getvalue().strip().splitlines() == ["r,d", "0,4", "1,1", "2,0"]


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json"))
    assert cfg.trials == 2000
    assert cfg.master_seed == 0
    assert isinstance(cfg.rate_mode, FixedRate)
    assert cfg.rate_mode.nats == pytest.approx(np.log(2.0))


def test_load_config_validation_errors(tmp_path):
    path = _write_config(tmp_path / "c.json",
                         model={"kind": "block", "num_blocks": 2, "block_len": 3},
                         dims={"num_tx": 1, "num_rx": 1, "block_len": 4})
    with pytest.raises(ConfigError, match="model"):
        load_config(path)
    path = _write_config(tmp_path / "d.json", snr_db=[10.0, 5.0])
    with pytest.raises(ConfigError, match="snr_db"):
        load_config(path)
    path = _write_config(tmp_path / "e.json", rate={"mode": "warp"})
    with pytest.raises(ConfigError, match="rate.mode"):
        load_config(path)
    missing = tmp_path / "missing" / "nothing.json"
    with pytest.raises(ConfigError):
        load_config(missing)


@pytest.mark.parametrize("grid", ["[5.0, NaN, 10.0]", "[5.0, 10.0, Infinity]",
                                  "[-Infinity, 5.0, 10.0]"])
def test_load_config_rejects_non_finite_snr(tmp_path, grid):
    # json.load accepts these tokens, and NaN slips through the ascending check
    path = tmp_path / "c.json"
    _write_config(path)
    path.write_text(path.read_text().replace("[5.0, 10.0]", grid))
    with pytest.raises(ConfigError, match="snr_db"):
        load_config(path)
    out = tmp_path / "outage.csv"
    assert dispatch(["outage", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["outage", "error-sim"])
@pytest.mark.parametrize("snr_db", [1e308, -1e308])
def test_snr_db_must_be_finite_and_positive_in_linear_units(tmp_path, capsys, command, snr_db):
    # 10 ** (snr_db / 10) overflows to inf or underflows to 0: outage used to
    # warn of the overflow and exit naming no field, and error-sim wrote a
    # row at linear SNR 0
    cfg = _write_config(tmp_path / "c.json", snr_db=[snr_db])
    extra = ["--codebook", str(_antipodal_book(tmp_path))] if command == "error-sim" else []
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch([command, "--config", str(cfg), "--out", str(out)] + extra) == 2
    assert not out.exists()
    assert "config.snr_db: every entry must be finite and positive" in capsys.readouterr().err
    # -400 dB is 1e-40 in linear units, finite and positive
    assert load_config(_write_config(tmp_path / "low.json", snr_db=[-400.0])).snr_db == (-400.0,)


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # an oversize grid (design-precoder at 100000 x 100000 slots, or a large
    # tf config) makes numpy raise MemoryError; the command is replaced so
    # that nothing is allocated
    def oversize(args):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(cli, "_cmd_design_precoder", oversize)
    assert dispatch(["design-precoder", "--nu0-t", "0.5", "--tau0-f", "0.5", "--num-time",
                     "100000", "--num-freq", "100000", "--mt", "1"]) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 149. GiB\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_must_be_positive(tmp_path, workers):
    cfg = _write_config(tmp_path / "c.json")
    book = _antipodal_book(tmp_path)
    out = tmp_path / "out.csv"
    assert dispatch(["outage", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 2
    assert dispatch(["error-sim", "--config", str(cfg), "--codebook", str(book),
                     "--out", str(out), "--workers", workers]) == 2
    assert not out.exists()


def test_min_events_must_be_nonnegative(tmp_path):
    # -1 used to stop after the first wave and print 131 072-trial rows
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out.csv"
    assert dispatch(["outage", "--config", str(cfg), "--out", str(out),
                     "--min-events", "-1"]) == 2
    assert not out.exists()


def test_negative_config_seed_exits_2_naming_seed(tmp_path, capsys):
    # used to fail inside numpy's seeding with a message naming no field
    cfg = _write_config(tmp_path / "c.json", seed=-3)
    out = tmp_path / "out.csv"
    assert dispatch(["outage", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "seed: must be nonnegative" in capsys.readouterr().err


def _subparsers():
    """The subcommand parsers of ``cli.build_parser()`` by name, in order."""
    action = next(action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
    return action.choices


_SEED_COMMANDS = [name for name, parser in _subparsers().items()
                  if "--seed" in parser._option_string_actions]


@pytest.mark.parametrize("command", _SEED_COMMANDS)
def test_negative_seed_option_exits_2_naming_option(tmp_path, capsys, command):
    # only the Monte-Carlo commands draw random numbers
    assert _SEED_COMMANDS == ["outage", "error-sim"]
    cfg = _write_config(tmp_path / "c.json")
    extra = {"outage": ["--config", str(cfg)],
             "error-sim": ["--config", str(cfg), "--codebook",
                           str(_antipodal_book(tmp_path))]}[command]
    assert dispatch([command, "--seed", "-1"] + extra) == 2
    assert "argument --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-code", "pep"])
def test_zero_receive_antennas_exit_2_naming_option(tmp_path, capsys, command):
    extra = ["--snr-db", "10"] if command == "pep" else []
    out = tmp_path / "out"
    assert dispatch([command, "--codebook", str(_antipodal_book(tmp_path)),
                     "--cov", str(_flat_cov(tmp_path)), "--mr", "0",
                     "--out", str(out)] + extra) == 2
    assert not out.exists()
    assert "argument --mr" in capsys.readouterr().err


def _model_section(**model):
    """Config overrides for a model section on a 1x1 link of 4 slots."""
    return {"model": model, "dims": {"num_tx": 1, "num_rx": 1, "block_len": 4}}


# each bad document with the field its config error names
WRONG_TYPE_CASES = {
    "model": ({"model": 5}, "model"),
    "top-level": (7, "config"),
    "snr_db": ({"snr_db": 5}, "config.snr_db"),
    "power_delay_profile": (
        {"model": {"kind": "isi", "num_taps": 1, "power_delay_profile": 3}},
        "model.power_delay_profile"),
    "num_tx-null": ({"dims": {"num_tx": None, "num_rx": 1, "block_len": 1}}, "dims.num_tx"),
    "trials-null": ({"trials": None}, "config.trials"),
    "snr_db-nested": ({"snr_db": [[1]]}, "config.snr_db[0]"),
    "bits-null": ({"rate": {"mode": "fixed", "bits": None}}, "rate.bits"),
    "seed-string": ({"seed": "x"}, "config.seed"),
    "trials-fraction": ({"trials": 2.7}, "config.trials"),
    "trials-bool": ({"trials": True}, "config.trials"),
    "output-int": ({"output": 5}, "config.output"),
    # model sections follow the same type rules as the rest of the config
    "num_blocks-fraction": (_model_section(kind="block", num_blocks=2.7, block_len=2),
                            "model.num_blocks"),
    "num_blocks-bool": (_model_section(kind="block", num_blocks=True, block_len=4),
                        "model.num_blocks"),
    "num_taps-string": (_model_section(kind="isi", num_taps="2",
                                       power_delay_profile=[1.0, 0.5]), "model.num_taps"),
    "pdp-strings": (_model_section(kind="isi", num_taps=2, power_delay_profile=["1", "0.5"]),
                    "model.power_delay_profile[0]"),
    "nu0_t-string": (_model_section(kind="tf", nu0_t="0.5", tau0_f=0.5, num_time=2,
                                    num_freq=2), "model.nu0_t"),
    "num_time-fraction": (_model_section(kind="tf", nu0_t=0.5, tau0_f=0.5, num_time=2.9,
                                         num_freq=2), "model.num_time"),
    "pdp-null": (_model_section(kind="isi", num_taps=2, power_delay_profile=[1.0, None]),
                 "model.power_delay_profile[1]"),
    "pdp-nan": (_model_section(kind="isi", num_taps=2,
                               power_delay_profile=[1.0, float("nan")]),
                "model.power_delay_profile[1]"),
    "block_len-missing": (_model_section(kind="block", num_blocks=2), "model.block_len"),
}


@pytest.mark.parametrize("doc,field", WRONG_TYPE_CASES.values(), ids=WRONG_TYPE_CASES)
def test_config_wrong_json_type_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "c.json"
    if isinstance(doc, dict):
        _write_config(path, **doc)
    else:
        path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert dispatch(["outage", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    # the field is named once, right after the file
    assert capsys.readouterr().err.startswith(f"config error: {path}: {field}: ")


# each config with a key outside its section's schema, and the key it names;
# each used to run as if the key were absent
UNKNOWN_KEY_CASES = {
    "trails": ({"trails": 5}, "config.trails"),
    "sead": ({"sead": 3}, "config.sead"),
    "dims": ({"dims": {"num_tx": 1, "num_rx": 1, "block_len": 1, "num_slots": 2}},
             "dims.num_slots"),
    "fixed-mux_rate": ({"rate": {"mode": "fixed", "bits": 1.0, "mux_rate": 0.5}},
                       "rate.mux_rate"),
    "scaling-bits": ({"rate": {"mode": "scaling", "mux_rate": 0.5, "bits": 1.0}}, "rate.bits"),
    "flat-taps": ({"model": {"kind": "flat", "taps": 2}}, "model.taps"),
    "block-taps": (_model_section(kind="block", num_blocks=2, block_len=2, taps=2),
                   "model.taps"),
    "isi-taps": (_model_section(kind="isi", num_taps=2, power_delay_profile=[1.0, 0.5],
                                taps=3), "model.taps"),
    "tf-nu0": (_model_section(kind="tf", nu0_t=0.5, tau0_f=0.5, num_time=2, num_freq=2,
                              nu0=0.5), "model.nu0"),
}


@pytest.mark.parametrize("doc,field", UNKNOWN_KEY_CASES.values(), ids=UNKNOWN_KEY_CASES)
@pytest.mark.parametrize("command", ["outage", "error-sim"])
def test_config_unknown_key_exits_2_naming_it(tmp_path, capsys, doc, field, command):
    cfg = _write_config(tmp_path / "c.json", **doc)
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "error-sim":
        argv += ["--codebook", str(_antipodal_book(tmp_path))]
    assert dispatch(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {cfg}: {field}: unknown field\n"


# each out-of-range config with the field its config error names
RANGE_CASES = {
    "empty-grid": ({"snr_db": []}, "config.snr_db"),
    "num_blocks-zero": (_model_section(kind="block", num_blocks=0, block_len=4),
                        "model.num_blocks"),
    "block_len-negative": (_model_section(kind="block", num_blocks=2, block_len=-2),
                           "model.block_len"),
    "num_taps-zero": (_model_section(kind="isi", num_taps=0, power_delay_profile=[]),
                      "model.num_taps"),
    "pdp-length": (_model_section(kind="isi", num_taps=2, power_delay_profile=[1.0]),
                   "model.power_delay_profile"),
    "pdp-negative": (_model_section(kind="isi", num_taps=2, power_delay_profile=[1.0, -0.5]),
                     "model.power_delay_profile"),
    "pdp-zero": (_model_section(kind="isi", num_taps=2, power_delay_profile=[0.0, 0.0]),
                 "model.power_delay_profile"),
}


@pytest.mark.parametrize("doc,field", RANGE_CASES.values(), ids=RANGE_CASES)
@pytest.mark.parametrize("command", ["outage", "error-sim"])
def test_config_out_of_range_exits_2_naming_field(tmp_path, capsys, doc, field, command):
    # an empty grid used to print only the CSV header and exit 0, and model
    # range errors named the section ("model: block counts must be positive")
    cfg = _write_config(tmp_path / "c.json", **doc)
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "error-sim":
        argv += ["--codebook", str(_antipodal_book(tmp_path))]
    assert dispatch(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: {field}: ")


@pytest.mark.parametrize("rate,dims,command,field", [
    ({"mode": "fixed", "bits": -1}, (1, 1), "outage", "rate.bits"),
    ({"mode": "fixed", "bits": -1}, (1, 1), "error-sim-outage", "rate.bits"),
    ({"mode": "scaling", "mux_rate": 5}, (1, 1), "outage", "rate.mux_rate"),
    ({"mode": "scaling", "mux_rate": 5}, (1, 1), "error-sim", "rate.mux_rate"),
    ({"mode": "scaling", "mux_rate": -0.5}, (1, 1), "outage", "rate.mux_rate"),
    ({"mode": "scaling", "mux_rate": 2.5}, (2, 3), "outage", "rate.mux_rate"),
], ids=["bits-outage", "bits-error-sim", "mux-outage", "mux-error-sim", "mux-negative",
        "mux-above-min-ant"])
def test_out_of_range_rate_exits_2_naming_field(tmp_path, capsys, rate, dims, command, field):
    # a negative rate used to print outage rows of probability 0, and a
    # multiplexing rate above min(num_tx, num_rx) failed only inside the outage
    # estimator, naming no field, or not at all without --with-outage
    cfg = _write_config(tmp_path / "c.json", rate=rate,
                        dims={"num_tx": dims[0], "num_rx": dims[1], "block_len": 1})
    out = tmp_path / "out.csv"
    argv = ["outage", "--config", str(cfg), "--out", str(out)]
    if command.startswith("error-sim"):
        argv = ["error-sim", "--config", str(cfg), "--codebook", str(_antipodal_book(tmp_path)),
                "--out", str(out)] + (["--with-outage"] if command.endswith("outage") else [])
    assert dispatch(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: {field}: ")


def test_rate_range_edges_load(tmp_path):
    cfg = load_config(_write_config(tmp_path / "a.json", rate={"mode": "fixed", "bits": 0}))
    assert cfg.rate_mode == FixedRate(0.0)
    cfg = load_config(_write_config(tmp_path / "b.json",
                                    rate={"mode": "scaling", "mux_rate": 2},
                                    dims={"num_tx": 2, "num_rx": 3, "block_len": 1}))
    assert cfg.rate_mode == ScalingRate(2.0)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_trials_must_be_positive(tmp_path, trials):
    cfg = _write_config(tmp_path / "c.json")
    book = _antipodal_book(tmp_path)
    out = tmp_path / "out.csv"
    assert dispatch(["outage", "--config", str(cfg), "--out", str(out),
                     "--trials", trials]) == 2
    assert dispatch(["error-sim", "--config", str(cfg), "--codebook", str(book),
                     "--out", str(out), "--trials", trials]) == 2
    assert not out.exists()


# one model of each kind, with the config section that describes it
MODEL_CASES = [
    (Flat(), 1, {"kind": "flat"}),
    (Fast(), 3, {"kind": "fast"}),
    (BlockFading(2, 2), 4, {"kind": "block", "num_blocks": 2, "block_len": 2}),
    (CyclicIsi(2, (1.0, 0.5)), 4,
     {"kind": "isi", "num_taps": 2, "power_delay_profile": [1.0, 0.5]}),
    (TimeFrequency(ScatteringSpec.from_normalized(0.5, 0.25, 2, 2)), 4,
     {"kind": "tf", "nu0_t": 0.5, "tau0_f": 0.25, "num_time": 2, "num_freq": 2}),
]


_MODEL_IDS = [doc["kind"] for _, _, doc in MODEL_CASES]


@pytest.mark.parametrize("model,n,model_doc", MODEL_CASES, ids=_MODEL_IDS)
def test_config_round_trip(tmp_path, model, n, model_doc):
    # a config document, written as JSON, loads to the config it describes
    doc = {"model": model_doc, "dims": {"num_tx": 2, "num_rx": 2, "block_len": n},
           "snr_db": [0.0, 10.0, 20.0], "rate": {"mode": "scaling", "mux_rate": 0.75},
           "trials": 5000, "seed": 7}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == ExperimentConfig(
        model=model, dims=ChannelDims(2, 2, n), snr_db=(0.0, 10.0, 20.0),
        rate_mode=ScalingRate(0.75), trials=5000, master_seed=7)


def _model_docs():
    isi = st.integers(1, 4).flatmap(lambda taps: st.fixed_dictionaries({
        "kind": st.just("isi"), "num_taps": st.just(taps),
        "power_delay_profile": st.lists(st.floats(0.0, 10.0), min_size=taps, max_size=taps)
        .filter(lambda pdp: max(pdp) > 0)}))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["flat", "fast"])}),
        st.fixed_dictionaries({"kind": st.just("block"), "num_blocks": st.integers(1, 3),
                               "block_len": st.integers(1, 3)}),
        isi,
        st.fixed_dictionaries({"kind": st.just("tf"), "nu0_t": st.floats(0.01, 0.99),
                               "tau0_f": st.floats(0.01, 0.99),
                               "num_time": st.integers(1, 3), "num_freq": st.integers(1, 3)}))


def _block_len(model_doc, extra):
    kind = model_doc["kind"]
    if kind == "block":
        return model_doc["num_blocks"] * model_doc["block_len"]
    if kind == "tf":
        return model_doc["num_time"] * model_doc["num_freq"]
    return model_doc.get("num_taps", 1) + extra


def _rate_doc(mode, value, min_ant):
    if mode == "fixed":
        return {"mode": "fixed", "bits": value}
    return {"mode": "scaling", "mux_rate": value * min_ant}


_CONFIG_DOCS = st.builds(
    lambda model, extra, mt, mr, snr, rate, trials, seed, eps: {
        "model": model, "dims": {"num_tx": mt, "num_rx": mr,
                                 "block_len": _block_len(model, extra)},
        "snr_db": sorted(snr), "rate": _rate_doc(*rate, min(mt, mr)), "trials": trials,
        "seed": seed, "epsilon": eps},
    _model_docs(), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
    st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=4),
    st.one_of(st.tuples(st.just("fixed"), st.floats(0.0, 30.0)),
              st.tuples(st.just("scaling"), st.floats(0.0, 1.0))),
    st.integers(1, 10 ** 9), st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))


def _model_of(doc):
    """The fading model a drawn model section describes, built in code."""
    params = {key: value for key, value in doc.items() if key != "kind"}
    if doc["kind"] == "tf":
        return TimeFrequency(ScatteringSpec.from_normalized(
            params["nu0_t"], params["tau0_f"], params["num_time"], params["num_freq"]))
    return MODELS[doc["kind"]](**params)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_CONFIG_DOCS)
def test_config_json_round_trip_property(tmp_path_factory, doc):
    # every drawn document loads, and each field of the config is the
    # document's; with the unknown "epsilon" key it is rejected, naming it
    path = tmp_path_factory.mktemp("cfg") / "in.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"config\.epsilon: unknown field"):
        load_config(path)
    path.write_text(json.dumps({key: value for key, value in doc.items() if key != "epsilon"}))
    cfg = load_config(path)
    assert cfg.model == _model_of(doc["model"])
    assert cfg.dims == ChannelDims(**doc["dims"])
    assert cfg.snr_db == tuple(doc["snr_db"])
    rate = doc["rate"]
    assert cfg.rate_mode == (FixedRate(rate["bits"] * np.log(2.0)) if rate["mode"] == "fixed"
                             else ScalingRate(rate["mux_rate"]))
    assert (cfg.trials, cfg.master_seed, cfg.output) == (doc["trials"], doc["seed"], None)
    assert all(type(v) is int for v in (cfg.trials, cfg.master_seed, *doc["dims"].values()))


def test_outage_command_csv(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "outage.csv"
    code = dispatch(["outage", "--config", str(cfg), "--out", str(out),
                     "--min-events", "0", "--seed", "3"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snr_db,probability,ci_low,ci_high,trials"
    assert len(lines) == 3  # one row per grid SNR


def test_outage_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, workers in ((out1, "1"), (out2, "4")):
        dispatch(["outage", "--config", str(cfg), "--out", str(out),
                  "--seed", "9", "--workers", workers])
    assert out1.read_bytes() == out2.read_bytes()


def _antipodal_book(tmp_path):
    words = np.array([[[1.0]], [[-1.0]]], dtype=complex)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    path = tmp_path / "book.json"
    path.write_text(json.dumps(book.to_json()))
    return path


def test_error_sim_command(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    book = _antipodal_book(tmp_path)
    out = tmp_path / "err.csv"
    code = dispatch(["error-sim", "--config", str(cfg), "--codebook", str(book),
                     "--with-outage", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "snr_db,error_rate,ci_low,ci_high,trials,outage_rate"
    assert len(lines) == 3


@pytest.mark.parametrize("command", ["error-sim", "verify-code", "pep"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_codeword_exits_2(tmp_path, command, bad):
    # a NaN word used to give a silent error-sim row and an eigensolver error
    doc = json.loads(_antipodal_book(tmp_path).read_text())
    doc["words"][1][0][0] = bad
    book = tmp_path / "bad.json"
    book.write_text(json.dumps(doc))
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(build_covariance(Flat(), 1).to_json()))
    extra = {"error-sim": ["--config", str(_write_config(tmp_path / "c.json"))],
             "verify-code": ["--cov", str(cov)],
             "pep": ["--cov", str(cov), "--snr-db", "10"]}[command]
    out = tmp_path / "out"
    assert dispatch([command, "--codebook", str(book), "--out", str(out)] + extra) == 2
    assert not out.exists()


def _flat_cov(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(build_covariance(Flat(), 1).to_json()))
    return path


@pytest.mark.parametrize("argv", [
    ["verify-code", "--criterion", "dmt", "--snr-db", "nan"],
    ["verify-code", "--criterion", "dmt", "--epsilon", "nan"],
    ["verify-code", "--criterion", "dmt", "--snr-db", "4000"],
    ["verify-code", "--criterion", "dmt", "--epsilon", "inf"],
    ["verify-code", "--snr-db", "30", "20"],
    ["pep", "--snr-db", "nan"],
    ["pep", "--snr-db", "inf"],
    ["pep", "--snr-db", "4000"],
    ["pep", "--snr-db", "20", "10"],
    ["verify-code", "--criterion", "dmt", "--snr-db"],
], ids=["dmt-snr-nan", "dmt-epsilon-nan", "dmt-snr-overflow", "dmt-epsilon-inf",
        "rank-descending", "pep-snr-nan", "pep-snr-inf", "pep-snr-overflow",
        "pep-descending", "dmt-snr-empty"])
def test_bad_snr_grid_or_epsilon_exits_2(tmp_path, capsys, argv):
    # these used to print NaN/Infinity JSON, pass with an infinite margin,
    # pass vacuously on an empty grid, or print silent rows
    out = tmp_path / "out"
    assert dispatch(argv + ["--codebook", str(_antipodal_book(tmp_path)),
                            "--cov", str(_flat_cov(tmp_path)), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err


@pytest.mark.parametrize("rate,message", [(400, "rounds to 0"), (-1, "multiplexing rate")],
                         ids=["underflow", "negative"])
def test_verify_code_dmt_rate_without_a_threshold_exits_2(tmp_path, capsys, rate, message):
    # at r = 400 snr ** -(r + epsilon) underflowed to 0 and the criterion
    # passed; at r = -1 it exited 1 naming no bad input
    book = _antipodal_book(tmp_path)
    book.write_text(json.dumps({**json.loads(book.read_text()), "r": rate}))
    out = tmp_path / "out.json"
    assert dispatch(["verify-code", "--criterion", "dmt", "--snr-db", "10", "20",
                     "--codebook", str(book), "--cov", str(_flat_cov(tmp_path)),
                     "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("block_len,rate,message", [
    (1, 309, "rounds to 0 or a subnormal at snr = 10, r = 309"),
    (4, 307, "margin xi / threshold overflows at snr = 10, r = 307")],
    ids=["subnormal-threshold", "margin-overflow"])
def test_verify_code_dmt_margin_without_a_float_exits_2(tmp_path, capsys, block_len, rate,
                                                        message):
    # at r = 309 the 2-word antipodal code passed at 10 dB with threshold
    # 7.9e-310 and margin Infinity; at r = 307 the threshold 7.9e-308 is a
    # normal float, but xi = 16 of the 4-slot code over it overflows
    words = np.ones((2, 1, block_len), dtype=complex)
    words[1] *= -1
    book = tmp_path / "book.json"
    book.write_text(json.dumps({**Codebook(words=words, snr=10.0, mux_rate=0.0).to_json(),
                                "r": rate}))
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(build_covariance(Flat(), block_len).to_json()))
    out = tmp_path / "out.json"
    assert dispatch(["verify-code", "--criterion", "dmt", "--snr-db", "10",
                     "--codebook", str(book), "--cov", str(cov), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pep", "verify-code"])
@pytest.mark.parametrize("snr_db", ["-1e3", "-1E3", "-.5e1", "-1e-3", "-1e308"])
def test_negative_snr_db_in_scientific_notation_is_a_value(tmp_path, capsys, command, snr_db):
    # argparse read these as unknown options: "expected at least one argument"
    common = ["--codebook", str(_antipodal_book(tmp_path)), "--cov", str(_flat_cov(tmp_path))]
    outs = []
    for k, argv in enumerate((["--snr-db", snr_db], [f"--snr-db={snr_db}"])):
        outs.append(tmp_path / f"out{k}")
        assert dispatch([command, *argv, *common, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    if command == "pep":
        assert float(outs[0].read_text().splitlines()[1].split(",")[0]) == float(snr_db)
    # the dmt criterion's own grid check, not the parser, refuses it
    assert dispatch(["verify-code", "--criterion", "dmt", "--snr-db", snr_db, *common]) == 2
    assert "exceed 1" in capsys.readouterr().err
    assert dispatch([command, "--snr-db", snr_db, "--bogus", *common]) == 2
    assert "--bogus" in capsys.readouterr().err


def _set(path, value):
    """A document edit that puts ``value`` at the index/key ``path``."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize("which,edit,field", [
    ("cov", _set(["entries", 0], [None, 0.0]), "covariance.entries"),
    ("cov", _set(["entries", 0], [float("nan"), 0.0]), "covariance.entries"),
    ("cov", lambda doc: doc["entries"], "covariance"),
    ("book", _set(["words", 0, 0], None), "codebook.words"),
    ("book", _set(["words", 0, 0], ["1", 0]), "codebook.words"),
    ("book", _set(["words", 0, 0], [True, 0]), "codebook.words"),
    ("book", _set(["words", 0], [[1.0, 0.0], [1.0, 0.0]]), "codebook.words"),
    ("book", lambda doc: {k: v for k, v in doc.items() if k != "mt"}, "codebook.mt"),
], ids=["cov-null-entry", "cov-nan-entry", "cov-top-level-list", "book-null-entry",
        "book-string-entry", "book-bool-entry", "book-ragged-row", "book-missing-mt"])
def test_malformed_json_input_exits_2(tmp_path, capsys, which, edit, field):
    # each used to end in a traceback, a numpy message or a silent pass
    paths = {"cov": _flat_cov(tmp_path), "book": _antipodal_book(tmp_path)}
    paths[which].write_text(json.dumps(edit(json.loads(paths[which].read_text()))))
    out = tmp_path / "out.json"
    assert dispatch(["verify-code", "--codebook", str(paths["book"]),
                     "--cov", str(paths["cov"]), "--out", str(out)]) == 2
    assert not out.exists()
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ({"n": -1, "entries": [[1.0, 0.0]]}, "covariance.n: must be at least 1"),
    ({"n": 1, "entries": [[0.0, 0.0]]}, "covariance diagonal must be positive"),
], ids=["negative-n", "zero-matrix"])
def test_degenerate_covariance_exits_2(tmp_path, capsys, doc, message):
    # n = -1 exited with numpy's reshape message, which names no field; the
    # zero matrix (rank 0) passed the dmt criterion at every SNR with xi = 1,
    # the empty product
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(doc))
    common = ["--codebook", str(_antipodal_book(tmp_path)), "--cov", str(cov)]
    out = tmp_path / "out"
    for argv in (["verify-code", "--criterion", "rank"],
                 ["verify-code", "--criterion", "dmt", "--snr-db", "10", "20", "30"],
                 ["pep", "--snr-db", "10"]):
        assert dispatch(argv + common + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert message in capsys.readouterr().err


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def test_complex_json_text_unchanged():
    # the [re, im] pair lists are written as per-element float pairs were,
    # signed zeros included, and read back bit for bit
    rng = np.random.default_rng(3)
    words = 0.3 * (rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4)))
    words[0, 0, :2] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    book = Codebook(words=words, snr=10.0, mux_rate=0.5)
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    pre = classic_precoder("cdd", num_tx=2, n_slots=4, stride=2)
    cases = ((cov, "entries", _pairs(cov.entries.reshape(-1)), lambda c: c.entries),
             (book, "words", [_pairs(w) for w in book.words.reshape(3, -1)], lambda b: b.words),
             (pre, "rows", [_pairs(row) for row in pre.matrix], None))  # read by no command
    for obj, key, legacy, values in cases:
        doc = obj.to_json()
        assert json.dumps(doc, sort_keys=True) == json.dumps({**doc, key: legacy}, sort_keys=True)
        if values:
            back = type(obj).from_json(json.loads(json.dumps(doc)))
            assert np.array_equal(values(back).view(float), values(obj).view(float))


def test_one_word_codebook_exits_2(tmp_path, capsys):
    # pep used to print a silent 0 row and the rank criterion passed
    doc = json.loads(_antipodal_book(tmp_path).read_text())
    doc["words"] = doc["words"][:1]
    book = tmp_path / "one.json"
    book.write_text(json.dumps(doc))
    common = ["--codebook", str(book), "--cov", str(_flat_cov(tmp_path))]
    out = tmp_path / "out"
    for argv in (["pep", "--snr-db", "10"], ["verify-code", "--criterion", "rank"]):
        assert dispatch(argv + common + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "need at least two codewords" in capsys.readouterr().err


def test_verify_code_rank_failure_names_pair(tmp_path):
    # fast-fading scalar codebook with a zero entry in one difference
    cov = build_covariance(Fast(), 3)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    words = np.array([[[0.0, 0.0, 0.0]], [[0.5, 0.0, 0.5]]], dtype=complex)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    report_path = tmp_path / "report.json"
    code = dispatch(["verify-code", "--codebook", str(book_path),
                     "--cov", str(cov_path), "--out", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert not report["passed"]
    assert report["failure_count"] == 1
    assert report["failures"] == [{"pair": [0, 1], "rank": 2}]


def test_verify_code_rank_pass(tmp_path):
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    words = np.array([[[0.0] * 4], [[0.5] * 4]], dtype=complex)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    assert dispatch(["verify-code", "--codebook", str(book_path),
                     "--cov", str(cov_path)]) == 0


def test_design_precoder_command(tmp_path):
    out = tmp_path / "precoder.json"
    code = dispatch(["design-precoder", "--nu0-t", "0.5", "--tau0-f", "0.5",
                     "--num-time", "4", "--num-freq", "4", "--mt", "2",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verification"]["passed"]
    assert doc["verification"]["rank"] == 8
    # infeasible antenna count is a usage error
    assert dispatch(["design-precoder", "--nu0-t", "0.5", "--tau0-f", "0.5",
                     "--num-time", "4", "--num-freq", "4", "--mt", "5"]) == 2


def test_design_precoder_spread_too_small_exits_2(tmp_path, capsys):
    # nu0*T*num_time = 0.8 occupies no Doppler bin of the 4 x 4 grid
    out = tmp_path / "precoder.json"
    assert dispatch(["design-precoder", "--nu0-t", "0.2", "--tau0-f", "0.5",
                     "--num-time", "4", "--num-freq", "4", "--mt", "1",
                     "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "channel spread too small for the grid" in err and "doppler_slots=0" in err


_PRECODER_ARGS = {"--nu0-t": "0.5", "--tau0-f": "0.5", "--num-time": "4",
                  "--num-freq": "4", "--mt": "2"}
_CURVE_ARGS = {"--mt": "2", "--mr": "2", "--rho": "2"}


@pytest.mark.parametrize("command,option,value", [
    ("design-precoder", "--nu0-t", "nan"),
    ("design-precoder", "--tau0-f", "inf"),
    ("design-precoder", "--mt", "0"),
    ("design-precoder", "--num-time", "0"),
    ("design-precoder", "--num-freq", "-1"),
    ("dmt-curve", "--mt", "0"),
    ("dmt-curve", "--mr", "0"),
    ("dmt-curve", "--rho", "0"),
], ids=["nu0-nan", "tau0-inf", "mt-zero", "num-time-zero", "num-freq-negative",
        "curve-mt-zero", "curve-mr-zero", "curve-rho-zero"])
def test_bad_size_or_spread_exits_2_naming_option(tmp_path, capsys, command, option, value):
    # these used to fail inside numpy (NaN to integer, stacking no rows),
    # name no option, or print a curve
    base = _PRECODER_ARGS if command == "design-precoder" else _CURVE_ARGS
    argv = [command]
    for key, default in base.items():
        argv += [key, value if key == option else default]
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert f"argument {option}" in capsys.readouterr().err


def test_codebook_load_matches_from_json(tmp_path):
    path = _antipodal_book(tmp_path)
    book = Codebook.load(path)
    expected = Codebook.from_json(json.loads(path.read_text()))
    assert book.words.tobytes() == expected.words.tobytes()
    assert (book.snr, book.mux_rate) == (expected.snr, expected.mux_rate)

@pytest.mark.parametrize("mt,n", [(1, 8), (4, 2), (0, 4), (-1, -4)])
def test_misshaped_codebook_rows_exit_2(tmp_path, capsys, mt, n):
    # four 4-pair rows declared mt=1, n=8 (or mt=4, n=2) used to load as two
    # 8-entry words, and every subcommand ran on them and exited 0
    rows = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16).reshape(4, 4)
    book = tmp_path / "book.json"
    book.write_text(json.dumps({"mt": mt, "n": n, "snr": 10.0, "r": 0.0,
                                "words": [_pairs(row) for row in rows]}))
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(build_covariance(Flat(), max(n, 1)).to_json()))
    cfg = _write_config(tmp_path / "c.json", dims={"num_tx": max(mt, 1), "num_rx": 1,
                                                   "block_len": max(n, 1)})
    common = ["--codebook", str(book), "--cov", str(cov)]
    out = tmp_path / "out"
    for argv in (["verify-code", "--criterion", "rank", *common],
                 ["verify-code", "--criterion", "dmt", *common],
                 ["pep", "--snr-db", "10", *common],
                 ["error-sim", "--config", str(cfg), "--codebook", str(book)]):
        assert dispatch(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert "codebook.words" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-code", "--criterion", "rank"],
                                  ["verify-code", "--criterion", "dmt"],
                                  ["pep", "--snr-db", "10"]],
                         ids=["rank", "dmt", "pep"])
@pytest.mark.parametrize("book_len", [3, 5])
def test_codebook_and_covariance_lengths_must_match(tmp_path, capsys, argv, book_len):
    # a 3-slot code against a 4-slot covariance used to exit with the structural
    # count's message, and pep named neither input
    rng = np.random.default_rng(3)
    book = Codebook(words=0.3 * rng.standard_normal((4, 1, book_len)), snr=10.0,
                    mux_rate=0.0)
    (tmp_path / "book.json").write_text(json.dumps(book.to_json()))
    (tmp_path / "cov.json").write_text(json.dumps(build_covariance(Fast(), 4).to_json()))
    out = tmp_path / "out"
    assert dispatch(argv + ["--codebook", str(tmp_path / "book.json"),
                            "--cov", str(tmp_path / "cov.json"), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"--codebook n = {book_len} does not match --cov n = 4" in err


@pytest.mark.parametrize("with_outage", [False, True], ids=["plain", "with-outage"])
@pytest.mark.parametrize("mt,n", [(1, 4), (2, 2)])
def test_error_sim_codebook_must_fit_config_dims(tmp_path, capsys, mt, n, with_outage):
    # a codebook that does not fit the config used to exit with "codeword
    # shape does not match the channel dimensions", naming neither input
    words = 0.5 * np.stack([np.ones((mt, n)), -np.ones((mt, n))])
    book = tmp_path / "book.json"
    book.write_text(json.dumps(Codebook(words=words, snr=10.0, mux_rate=0.0).to_json()))
    cfg = _write_config(tmp_path / "c.json", dims={"num_tx": 2, "num_rx": 1, "block_len": 4})
    out = tmp_path / "out"
    argv = ["error-sim", "--config", str(cfg), "--codebook", str(book), "--out", str(out)]
    assert dispatch(argv + ["--with-outage"] * with_outage) == 2
    assert not out.exists()
    assert (f"--codebook mt = {mt}, n = {n} does not match config dims "
            "num_tx = 2, block_len = 4") in capsys.readouterr().err


def test_verify_code_dmt_rows_match_xi_metric(tmp_path):
    # the receive count comes from --mr: on a 2-antenna code m = min(2, mr)
    # picks one or two of the smallest nonzero eigenvalues
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    rng = np.random.default_rng(7)
    words = 0.4 * (rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4)))
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    loaded = Codebook.load(book_path)
    xis = {}
    for num_rx in (1, 2):
        out = tmp_path / f"dmt{num_rx}.json"
        assert dispatch(["verify-code", "--codebook", str(book_path), "--cov", str(cov_path),
                         "--mr", str(num_rx), "--criterion", "dmt", "--snr-db", "40", "50",
                         "--epsilon", "1.0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        xi = xis[num_rx] = xi_metric(loaded, cov, num_rx)
        assert report["criterion"] == "dmt" and report["passed"]
        for row, snr in zip(report["per_snr"], (1e4, 1e5)):
            threshold = snr ** -1.0
            assert row["xi"] == pytest.approx(xi.value, rel=1e-12)
            assert row["worst_pair"] == list(xi.pair)
            assert row["threshold"] == pytest.approx(threshold, rel=1e-12)
            assert row["margin"] == pytest.approx(xi.value / threshold, rel=1e-12)
            assert row["passed"]
    assert xis[2].value < xis[1].value / 5 and xis[2].pair != xis[1].pair


def test_pep_command(tmp_path):
    cov = build_covariance(Fast(), 1)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    book = _antipodal_book(tmp_path)
    out = tmp_path / "pep.csv"
    code = dispatch(["pep", "--cov", str(cov_path), "--codebook", str(book),
                     "--snr-db", "0", "10", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)  # decreasing in SNR
    assert values[0] == pytest.approx(1.0 / (1.0 + 1.0), rel=1e-9)  # snr=1, |e|^2=4


@pytest.mark.parametrize("num_tx", [1, 2])
def test_pep_command_matches_per_pair_bound(tmp_path, monkeypatch, num_tx):
    monkeypatch.setattr(_util, "BATCH_BUDGET", 80)  # two pairs a batch
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    rng = np.random.default_rng(5)
    words = 0.3 * (rng.standard_normal((8, num_tx, 4)) + 1j * rng.standard_normal((8, num_tx, 4)))
    book = Codebook(words=words, snr=10.0, mux_rate=0.0)
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    reports = []  # the unformatted rows: the CSV keeps 12 digits
    monkeypatch.setattr(cli, "write_report", lambda results, *args: reports.append(results))
    snr_db = ["0", "10", "25"]
    assert dispatch(["pep", "--cov", str(cov_path), "--codebook", str(book_path),
                     "--mr", "2", "--snr-db", *snr_db]) == 0
    values = [row[1] for row in reports[0]["rows"]]
    loaded = Codebook.from_json(book.to_json()).words
    for db, value in zip(snr_db, values):
        snr = 10.0 ** (float(db) / 10.0)
        worst = max(pep_chernoff(cov, loaded[i] - loaded[j], snr, 2).value
                    for i in range(8) for j in range(i + 1, 8))
        assert value == pytest.approx(worst, rel=1e-12)


def test_unknown_subcommand_exit_code():
    assert dispatch(["frobnicate"]) == 2
    assert dispatch([]) == 2


def test_subcommands_are_the_six_result_commands():
    assert list(_subparsers()) == ["dmt-curve", "outage", "error-sim", "verify-code",
                                   "design-precoder", "pep"]


def test_oracle_check_is_an_unknown_subcommand(capsys):
    # the brute-force oracles are tests (tests/_oracles.py), not a command
    assert dispatch(["oracle-check", "--what", "theorem4"]) == 2
    assert "invalid choice: 'oracle-check'" in capsys.readouterr().err


def test_readme_cli_block_names_every_subcommand():
    # the sh block under README's "## CLI" heading shows each subcommand and
    # no other
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines() if line.startswith("dmtlab ")}
    assert shown == set(_subparsers())


def test_write_report_deterministic(tmp_path):
    results = {"columns": ["a", "b"], "rows": [[1.0 / 3.0, 2], [0.1, 3]]}
    t1 = write_report(results, "csv", tmp_path / "r1.csv")
    t2 = write_report(results, "csv", tmp_path / "r2.csv")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    assert t1 == t2
    payload = {"z": 1.0, "a": np.float64(0.5), "arr": np.arange(3)}
    j1 = write_report(payload, "json", tmp_path / "r1.json")
    j2 = write_report(payload, "json", tmp_path / "r2.json")
    assert j1 == j2
    assert json.loads(j1)["arr"] == [0, 1, 2]
