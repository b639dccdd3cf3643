"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import time
import types

import numpy as np

import speed
import tracing
import workloads as wl
import worker


def test_self_times_of_nested_spans():
    # root [0, 100] holds A [10, 40] (which holds C [20, 30]) and B [50, 90]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 90])
    own = tracing.self_times(parent, start, end)
    assert own.tolist() == [30, 20, 10, 40]
    assert own.sum() == end[0] - start[0]


def test_layer_stats_count_nested_tables_once():
    tracer = tracing.Tracer()
    with tracer.span("bench.pass"):
        outer = tracer.open(tracer.intern("channel.term_table"))
        inner = tracer.open(tracer.intern("channel.term_table"))
        tracer.amount[inner] = 3
        tracer.close(inner)
        tracer.amount[outer] = 7
        tracer.close(outer)
    stats = tracing.layer_stats(tracer)
    assert stats["channel.term_table"]["calls"] == 2
    assert stats["channel.term_table"]["top_calls"] == 1
    assert stats["channel.term_table"]["top_amount"] == 7
    total = sum(s["self_s"] for s in stats.values())
    wall = (tracer.end[0] - tracer.start[0]) / 1e9
    assert abs(total - wall) < 1e-12


def test_comparator_fails_the_min_es_bka_defect_and_passes_a_match():
    # MIN-ES-BKA SOP at N=12, K=6, s=0.9, 10 dB: closed form vs definitional
    key, got, ref = "N12|K6|s0.9|10dB|MIN_ES-BKA|sop", 0.19262253904347632, 0.9967683713743778
    tally = wl.Tally()
    wl.compare_values(tally, {key: got}, {key: [ref, False]}, lambda k: wl.TOLERANCES["prob"])
    assert (tally.attempted, tally.failed, len(tally.unexpected)) == (1, 1, 1)

    tally = wl.Tally()
    wl.compare_values(tally, {key: ref}, {key: [ref, False]}, lambda k: wl.TOLERANCES["prob"])
    assert (tally.attempted, tally.failed) == (1, 0)


def test_known_defect_counts_as_failed_but_expected():
    tally = wl.Tally()
    wl.compare_values(tally, {}, {"k": [0.5, True]}, lambda k: wl.TOLERANCES["prob"])
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, [])


def test_same_seed_same_inputs():
    assert wl.grid_units(3) == wl.grid_units(3)
    assert wl.verify_inputs(3) == wl.verify_inputs(3)
    assert wl.preset_order(3) == wl.preset_order(3)
    assert len(wl.grid_units(3)) == 1008
    assert sorted(map(repr, wl.grid_units(3))) == sorted(map(repr, wl.grid_units(4)))
    assert wl.grid_units(3) != wl.grid_units(4)


def _fake_library():
    helpers = types.ModuleType("txsecrecy.helpers")
    user = types.ModuleType("txsecrecy.user")

    def table(n):
        return tuple(range(n)), ()

    helpers.min_hypoexp_terms = table
    user.min_hypoexp_terms = table  # bound by import, as modules do
    return {"txsecrecy.channel": helpers, "txsecrecy.user": user}


def test_wrapping_reaches_every_binding_and_restores():
    modules = _fake_library()
    original = modules["txsecrecy.user"].min_hypoexp_terms
    layers = (tracing.Layer("channel.term_table", "txsecrecy.channel", "min_hypoexp_terms",
                            tracing._table_len),)
    tracer = tracing.Tracer()
    unmeasured, restore = tracing.install(tracer, layers, modules)
    assert unmeasured == []
    modules["txsecrecy.user"].min_hypoexp_terms(4)
    modules["txsecrecy.channel"].min_hypoexp_terms(2)
    stats = tracing.layer_stats(tracer)
    assert stats["channel.term_table"]["top_calls"] == 2
    assert stats["channel.term_table"]["top_amount"] == 6
    restore()
    assert modules["txsecrecy.user"].min_hypoexp_terms is original


def _fake_montecarlo(draw):
    mc = types.ModuleType("txsecrecy.montecarlo")
    mc._draw_fades = draw
    return {"txsecrecy.montecarlo": mc}


def test_variates_counted_whether_size_is_positional_or_keyword():
    def _draw_fades(scenario, rng, size):
        return size

    modules = _fake_montecarlo(_draw_fades)
    layers = [layer for layer in tracing.LAYERS if layer.span == "montecarlo.draw"]
    tracer = tracing.Tracer()
    tracing.install(tracer, layers, modules)
    scenario = types.SimpleNamespace(n_transmitters=5, n_eavesdroppers=3)
    modules["txsecrecy.montecarlo"]._draw_fades(scenario, None, 10)
    modules["txsecrecy.montecarlo"]._draw_fades(scenario, None, size=10)
    assert tracer.amount.tolist() == [250, 250]
    assert tracer.unmeasured() == []


def test_uncomputable_amount_is_reported_unmeasured():
    def _draw_fades(scenario, rng, n_trials):  # "size" renamed
        return n_trials

    modules = _fake_montecarlo(_draw_fades)
    tracer = tracing.Tracer()
    unmeasured, restore = tracing.install(tracer, tracing.LAYERS, modules)
    assert "montecarlo.draw" not in unmeasured
    scenario = types.SimpleNamespace(n_transmitters=5, n_eavesdroppers=3)
    assert modules["txsecrecy.montecarlo"]._draw_fades(scenario, None, n_trials=10) == 10
    assert tracer.unmeasured() == ["montecarlo.draw"]
    values = tracing.layer_metrics(tracing.layer_stats(tracer), unmeasured + tracer.unmeasured())
    assert values["montecarlo.variates"] is None
    restore()


def test_missing_name_is_reported_unmeasured():
    modules = _fake_library()  # has no montecarlo module and no _draw_fades
    tracer = tracing.Tracer()
    unmeasured, restore = tracing.install(tracer, tracing.LAYERS, modules)
    assert "montecarlo.draw" in unmeasured
    # min_hypoexp_terms is there but min_eave_sel_bka_terms is not: a
    # layer measured in part would undercount, so it is unmeasured too
    assert "channel.term_table" in unmeasured
    values = tracing.layer_metrics(tracing.layer_stats(tracer), unmeasured)
    assert values["montecarlo.batches"] is None
    assert values["montecarlo.bytes_computed"] is None
    assert values["channel.terms"] is None
    assert values["bench.self_s"] == 0.0
    restore()


VERIFY_HEADER = "verify: N=10 K=3 s=0.9 dest_snr=30.0 dB R_th=0.0 trials={trials}\n"


def test_verify_fail_with_zero_outages_is_expected_but_counted():
    name = "N10K3"
    text = VERIFY_HEADER.format(trials=wl.VERIFY_TRIALS) + (
        "TTS-BKA      sop   exact=4.803299e-09 mc=0.000000e+00 +- 0.0e+00  FAIL\n"
        "TTS-BKA      esr   exact=7.000000e+00 mc=5.000000e+00 +- 1.0e-03  FAIL\n"
    )
    reference = {f"{name}|TTS-BKA|sop": [4.8032993e-09, False],
                 f"{name}|TTS-BKA|esr": [7.0, False]}
    tally, n_values, trials = worker.check_mc_verify({"calls": [(name, 3, text)]}, None, reference)
    assert n_values == 2
    assert trials == wl.VERIFY_TRIALS  # one spec printed verdicts
    # header ok, exact sop ok, verdict sop expected, exact esr ok, verdict
    # esr unexpected, 2 of 18 verdict lines, exit 3 not explained
    assert tally.attempted == 7
    assert tally.failed == 4
    assert [u.split(":")[0] for u in tally.unexpected] == [f"{name}|TTS-BKA|esr", name, name]


def test_verify_with_fewer_trials_fails_its_header_check():
    name = "N10K3"
    text = VERIFY_HEADER.format(trials=1000) + (
        "TTS-BKA      sop   exact=4.803299e-09 mc=0.000000e+00 +- 0.0e+00  PASS\n"
    )
    reference = {f"{name}|TTS-BKA|sop": [4.8032993e-09, False]}
    tally, _, trials = worker.check_mc_verify({"calls": [(name, 0, text)]}, None, reference)
    assert trials == 1000
    assert tally.unexpected[0].startswith(f"{name}: header")


def test_reference_clock_scales_by_host_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.at = [0.0, 0.01, 0.02, 0.03]
    probe.cal = [2 * ref] * 4  # the host runs at half the reference speed
    assert abs(probe.seconds(0.0, 0.03) - 0.5 * (0.03 - 3 * 2 * ref)) < 1e-15
    # calibration time does not count
    assert probe.seconds(0.01, 0.01 + ref) == 0.0
    # a single slow calibration is outvoted by its neighbours
    probe.cal[1] = 10 * ref
    probe._knots = None
    assert abs(probe.seconds(0.01, 0.02) - 0.5 * (0.01 - 10 * ref)) < 1e-15


def test_probe_samples_while_active():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        t1 = time.perf_counter()
    assert len(probe.at) >= 3
    assert probe.at == sorted(probe.at)
    assert probe.seconds(t0, t1) > 0.0
