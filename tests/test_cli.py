import csv
import json

import pytest

from txsecrecy import cli
from txsecrecy.errors import RateSeparationError
from txsecrecy.scenario import Knowledge, Scheme

SCEN = """
[scenario]
n_transmitters = 5
n_eavesdroppers = 3
backhaul_reliability = 0.9
dest_snr_db = 20
eave_snr_db = 6, 9, 13
threshold_rate = 1.0

[sweep]
variable = dest_snr_db
start = 0
stop = 20
step = 10
outputs = sop, esr, asymptote

[mc]
trials = 20000
seed = 3
"""


@pytest.fixture()
def scen_file(tmp_path):
    p = tmp_path / "scen.ini"
    p.write_text(SCEN)
    return p


def test_parse_config(scen_file):
    scenario, sweep, mc = cli.parse_config(scen_file)
    assert scenario.n_transmitters == 5
    assert scenario.eave_rates == pytest.approx(
        (10**-0.6, 10**-0.9, 10**-1.3), rel=1e-12
    )
    assert sweep.variable == "dest_snr_db"
    assert sweep.grid() == [0.0, 10.0, 20.0]
    assert len(sweep.specs) == 6
    assert mc.trials == 20_000
    assert mc.seed == 3


def test_parse_config_errors(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[sweep]\nstart = 0\n")
    with pytest.raises(ValueError):
        cli.parse_config(p)
    with pytest.raises(ValueError):
        cli.parse_config(tmp_path / "missing.ini")


def test_sweep_csv_output(scen_file, tmp_path):
    out = tmp_path / "out.csv"
    rc = cli.main(["sweep", "--scenario", str(scen_file), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_HEADER
    # 3 x-values, 6 specs, 2 metrics
    assert len(rows) - 1 == 3 * 6 * 2
    # deterministic ordering: x outer, then spec, then metric
    assert [r[0] for r in rows[1:13]] == ["0.0"] * 12
    assert rows[1][1:4] == ["MIN_ES", "BKU", "sop"]
    assert rows[2][1:4] == ["MIN_ES", "BKU", "esr"]
    float(rows[1][4])  # exact column populated
    float(rows[1][5])  # asymptote column populated
    assert rows[1][6] == ""  # no mc columns without --trials


def test_sweep_output_is_byte_stable(scen_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", str(scen_file), "--trials", "20000", "--seed", "3"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_min_es_evaluates_beyond_twenty_transmitters(tmp_path, capsys):
    # MIN-ES integrates over the selected eavesdropper wherever its
    # multinomial table is large, so every N has every cell
    scen = tmp_path / "min_es.ini"
    scen.write_text(
        "[scenario]\nn_transmitters = 21\nn_eavesdroppers = 3\n"
        "backhaul_reliability = 0.9\ndest_snr_db = 20\neave_snr_db = 6, 9, 13\n"
        "threshold_rate = 1.0\n\n[sweep]\nvariable = n_transmitters\n"
        "start = 21\nstop = 40\nstep = 1\nschemes = MIN_ES\n"
        "outputs = sop, nzsr, esr, asymptote\n"
    )
    out = tmp_path / "min_es.csv"
    assert cli.main(["sweep", "--scenario", str(scen), "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["x"]) for r in rows] == [float(n) for n in range(21, 41) for _ in range(6)]
    for row in rows:
        exact, asym = float(row["exact"]), float(row["asymptote"])
        if row["metric"] == "esr":
            assert exact > 0.0 and asym > 0.0
        else:
            assert 0.0 < exact < 1.0 and 0.0 < asym <= 1.0


def test_sweep_ots_esr_asymptote_beyond_twenty_transmitters(tmp_path):
    # the OTS line needs no multinomial table, so every N has its cell
    scen = tmp_path / "ots.ini"
    scen.write_text(
        "[scenario]\nn_transmitters = 18\nn_eavesdroppers = 3\n"
        "backhaul_reliability = 0.9\ndest_snr_db = 20\neave_snr_db = 6, 9, 13\n"
        "threshold_rate = 1.0\n\n[sweep]\nvariable = n_transmitters\n"
        "start = 18\nstop = 24\nstep = 1\nschemes = OTS\noutputs = esr, asymptote\n"
    )
    out = tmp_path / "ots.csv"
    assert cli.main(["sweep", "--scenario", str(scen), "--out", str(out)]) == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["x"]) for r in rows] == [float(n) for n in range(18, 25) for _ in range(2)]
    for row in rows:
        assert float(row["exact"]) > 0.0
        assert float(row["asymptote"]) > 0.0


def test_sweep_json_and_metric_override(scen_file, tmp_path):
    out = tmp_path / "out.json"
    rc = cli.main([
        "sweep", "--scenario", str(scen_file), "--out", str(out),
        "--format", "json", "--metrics", "sop",
    ])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3 * 6
    assert {r["metric"] for r in rows} == {"sop"}
    assert set(rows[0]) == set(cli.CSV_HEADER)


def test_sweep_mc_columns(scen_file, tmp_path):
    out = tmp_path / "mc.json"
    rc = cli.main([
        "sweep", "--scenario", str(scen_file), "--out", str(out),
        "--format", "json", "--metrics", "sop", "--trials", "20000",
    ])
    assert rc == 0
    rows = json.loads(out.read_text())
    sop_row = rows[0]
    mean, err = float(sop_row["mc_mean"]), float(sop_row["mc_stderr"])
    assert abs(mean - float(sop_row["exact"])) <= 5.0 * max(err, 1e-6)


def test_sweep_refuses_low_trials(scen_file, tmp_path):
    rc = cli.main([
        "sweep", "--scenario", str(scen_file),
        "--out", str(tmp_path / "x.csv"), "--trials", "99",
    ])
    assert rc == cli.EXIT_USAGE


def test_sweep_requires_scenario_or_preset(tmp_path):
    rc = cli.main(["sweep", "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_USAGE


def test_preset_table_constants():
    # every preset uses R_th = 1 and the 6/9/13 dB eavesdroppers (13 dB
    # only when K = 1); parameter variants match the reference figures
    for name, (outputs, variants) in cli.PRESETS.items():
        for label, kwargs in variants:
            assert kwargs["threshold_rate"] == 1.0
            if kwargs["n_eavesdroppers"] == 3:
                assert kwargs["eave_snr_db"] == (6.0, 9.0, 13.0)
            else:
                assert kwargs["eave_snr_db"] == (13.0,)
    assert [v[0] for v in cli.PRESETS["fig2"][1]] == ["s0.20", "s0.90"]
    assert [k["n_transmitters"] for _, k in cli.PRESETS["fig3"][1]] == [2, 5]
    assert [k["n_eavesdroppers"] for _, k in cli.PRESETS["fig4"][1]] == [1, 3]
    assert cli.PRESETS["fig5"][0] == ("esr",)
    assert len(cli.PRESETS["fig6"][1]) == 4
    assert cli.PRESETS["fig7"][0] == ("esr", "asymptote")
    assert all(k["n_eavesdroppers"] == 1 for _, k in cli.PRESETS["fig7"][1])


def test_preset_writes_one_file_per_variant(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    rc = cli.main(["sweep", "--preset", "fig3", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "fig3_N2.csv").exists()
    assert (tmp_path / "fig3_N5.csv").exists()


def test_fig2_preset_reports_crossover(tmp_path, capsys):
    rc = cli.main(["sweep", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "overtakes" in text


def test_find_sop_crossover():
    import txsecrecy as tx

    sc = tx.scenario_from_db(5, 3, 0.9, 0.0, [6.0, 9.0, 13.0], threshold_rate=1.0)
    x = cli.find_sop_crossover(sc, Knowledge.BKU)
    assert x is not None
    # bracket the sign change within the reported 0.1 dB resolution
    from txsecrecy import SchemeSpec, sop

    def diff(db):
        s = sc.with_dest_snr_db(db)
        return sop(s, SchemeSpec(Scheme.TTS, Knowledge.BKU)) - sop(
            s, SchemeSpec(Scheme.MIN_ES, Knowledge.BKU)
        )

    assert diff(x - 0.2) * diff(x + 0.2) < 0


def test_find_sop_crossover_evaluates_each_point_once(monkeypatch):
    # two ends and ten halvings of [0, 60] dB down to 0.1 dB, two SOPs each
    import txsecrecy as tx

    sc = tx.scenario_from_db(5, 3, 0.9, 0.0, [6.0, 9.0, 13.0], threshold_rate=1.0)
    sop, calls = cli.metrics.sop, []
    monkeypatch.setattr(cli.metrics, "sop", lambda *args: calls.append(args) or sop(*args))
    assert cli.find_sop_crossover(sc, Knowledge.BKU) is not None
    assert len(calls) == 2 * (2 + 10)


def test_verify_passes(scen_file, capsys):
    rc = cli.main(["verify", "--scenario", str(scen_file), "--trials", "50000"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "18/18 checks passed" in text


# N=10, s=0.9, 30 dB: TTS-BKA and OTS-BKA outages (exact SOP 4.8e-9 and
# 1.2e-9) are too rare to appear in any feasible number of trials
N10K3 = """
[scenario]
n_transmitters = 10
n_eavesdroppers = 3
backhaul_reliability = 0.9
dest_snr_db = 30
eave_snr_db = 6, 9, 13
"""


@pytest.fixture()
def n10k3_file(tmp_path):
    p = tmp_path / "n10k3.ini"
    p.write_text(N10K3)
    return p


def test_verify_passes_with_zero_observed_outages(n10k3_file, capsys):
    rc = cli.main(["verify", "--scenario", str(n10k3_file), "--trials", "50000"])
    text = capsys.readouterr().out
    assert "TTS-BKA      sop   exact=4.803299e-09 mc=0.000000e+00 +- 0.0e+00  PASS" in text
    assert "18/18 checks passed" in text
    assert rc == cli.EXIT_OK


def test_verify_still_fails_a_wrong_rare_event_value(n10k3_file, capsys, monkeypatch):
    exact_sop = cli.metrics.sop
    monkeypatch.setattr(cli.metrics, "sop", lambda sc, spec: exact_sop(sc, spec) + 0.01)
    rc = cli.main(["verify", "--scenario", str(n10k3_file), "--trials", "50000"])
    text = capsys.readouterr().out
    assert rc == cli.EXIT_VERIFY
    assert text.count(" sop ") == 6
    assert all(line.endswith("FAIL") for line in text.splitlines() if " sop " in line)
    assert "12/18 checks passed" in text


def test_verify_rate_separation_error_prints_hint(scen_file, capsys, monkeypatch):
    def refuse(sc, spec):
        raise RateSeparationError("coincident pole locations")

    monkeypatch.setattr(cli.metrics, "sop", refuse)
    rc = cli.main(["verify", "--scenario", str(scen_file), "--trials", "20000"])
    text = capsys.readouterr().out
    assert rc == cli.EXIT_NUMERIC
    assert "MIN-ES-BKU   ERROR: coincident pole locations" in text
    assert "perturb them with txsecrecy.jitter_rates" in text


def test_verify_refuses_low_trials(scen_file):
    rc = cli.main(["verify", "--scenario", str(scen_file), "--trials", "5000"])
    assert rc == cli.EXIT_USAGE
