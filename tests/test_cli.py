import json

import numpy as np
import pytest

from dmtlab import cli, codes
from dmtlab.channel import ChannelDims, CyclicIsi, Fast, build_covariance
from dmtlab.cli import ConfigError, ExperimentConfig, dispatch, load_config, write_report
from dmtlab.codes import Codebook
from dmtlab.sim import pep_chernoff
from dmtlab.tradeoff import FixedRate, ScalingRate


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
    assert cfg.epsilon == 0.1
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


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(
        model=CyclicIsi(2, (1.0, 0.5)),
        dims=ChannelDims(2, 2, 4),
        snr_db=(0.0, 10.0, 20.0),
        rate_mode=ScalingRate(0.75),
        trials=5000, master_seed=7, epsilon=0.25)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    clone = load_config(path)
    assert clone == cfg


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
    book = Codebook(words=words, snr=10.0, mux_rate=0.0,
                    dims=ChannelDims(1, 1, 1))
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


def test_verify_code_rank_failure_names_pair(tmp_path):
    # fast-fading scalar codebook with a zero entry in one difference
    cov = build_covariance(Fast(), 3)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    words = np.array([[[0.0, 0.0, 0.0]], [[0.5, 0.0, 0.5]]], dtype=complex)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0, dims=ChannelDims(1, 1, 3))
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    report_path = tmp_path / "report.json"
    code = dispatch(["verify-code", "--codebook", str(book_path),
                     "--cov", str(cov_path), "--out", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert not report["passed"]
    assert report["failures"][0]["pair"] == [0, 1]


def test_verify_code_rank_pass(tmp_path):
    cov = build_covariance(CyclicIsi(2, (1.0, 1.0)), 4)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    words = np.array([[[0.0] * 4], [[0.5] * 4]], dtype=complex)
    book = Codebook(words=words, snr=10.0, mux_rate=0.0, dims=ChannelDims(1, 1, 4))
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
    monkeypatch.setattr(codes, "_PAIR_SWEEP_BUDGET", 40)  # two pairs a chunk
    cov = build_covariance(CyclicIsi(2, (1.0, 0.5)), 4)
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(cov.to_json()))
    rng = np.random.default_rng(5)
    words = 0.3 * (rng.standard_normal((8, num_tx, 4)) + 1j * rng.standard_normal((8, num_tx, 4)))
    book = Codebook(words=words, snr=10.0, mux_rate=0.0, dims=ChannelDims(num_tx, 2, 4))
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(book.to_json()))
    reports = []  # the unformatted rows: the CSV keeps 12 digits
    monkeypatch.setattr(cli, "write_report", lambda results, *args: reports.append(results))
    snr_db = ["0", "10", "25"]
    assert dispatch(["pep", "--cov", str(cov_path), "--codebook", str(book_path),
                     "--mr", "2", "--snr-db", *snr_db]) == 0
    values = [row[1] for row in reports[0]["rows"]]
    loaded = Codebook.from_json(book.to_json(), num_rx=2).words
    for db, value in zip(snr_db, values):
        snr = 10.0 ** (float(db) / 10.0)
        worst = max(pep_chernoff(cov, loaded[i] - loaded[j], snr, 2).value
                    for i in range(8) for j in range(i + 1, 8))
        assert value == pytest.approx(worst, rel=1e-12)


def test_oracle_check_command():
    assert dispatch(["oracle-check", "--what", "theorem4", "--n", "3",
                     "--instances", "20", "--unitaries", "50", "--seed", "7"]) == 0
    assert dispatch(["oracle-check", "--what", "identities", "--n", "4",
                     "--instances", "20", "--seed", "7"]) == 0
    assert dispatch(["oracle-check", "--what", "nonsense"]) == 2


def test_unknown_subcommand_exit_code():
    assert dispatch(["frobnicate"]) == 2
    assert dispatch([]) == 2


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
