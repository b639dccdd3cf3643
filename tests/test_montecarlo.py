import numpy as np
import pytest

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, McConfig, Metric, Scheme, SchemeSpec
from txsecrecy import montecarlo
from txsecrecy.montecarlo import _batch_rng, estimate_many, estimate_metrics

from conftest import make_scenario


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=100)
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=2**64)
    with pytest.raises(ValueError):
        McConfig(batch_size=0)


def test_reproducible_across_batch_schedules():
    # same (seed, batch_size) must give bit-identical estimates no matter
    # how the total splits into batches
    sc = make_scenario(n=3, k=2, s=0.7)
    spec = SchemeSpec(Scheme.OTS, Knowledge.BKA)
    a = estimate_metrics(sc, spec, McConfig(trials=40_000, seed=9, batch_size=10_000))
    b = estimate_metrics(sc, spec, McConfig(trials=40_000, seed=9, batch_size=10_000))
    for m in Metric:
        assert a[m].mean == b[m].mean
        assert a[m].std_error == b[m].std_error


def test_seed_changes_stream():
    sc = make_scenario(n=3, k=2, s=0.7)
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    a = estimate_metrics(sc, spec, McConfig(trials=20_000, seed=0))
    b = estimate_metrics(sc, spec, McConfig(trials=20_000, seed=1))
    assert a[Metric.ESR].mean != b[Metric.ESR].mean


def test_batch_rng_is_splittable():
    r0 = _batch_rng(5, 0).random(4)
    r1 = _batch_rng(5, 1).random(4)
    assert not np.allclose(r0, r1)
    assert np.allclose(r0, _batch_rng(5, 0).random(4))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_estimates_match_exact_values(spec):
    sc = make_scenario(n=4, k=3, s=0.8)
    est = estimate_metrics(sc, spec, McConfig(trials=400_000, seed=11))
    exact = {
        Metric.SOP: tx.sop(sc, spec),
        Metric.NZSR: tx.nzsr(sc, spec),
        Metric.ESR: tx.esr_quadrature(sc, spec),
    }
    for m in Metric:
        e = est[m]
        assert abs(e.mean - exact[m]) <= 4.0 * max(e.std_error, 1e-9)


def test_bku_equals_bka_pathwise_at_s1():
    # with perfect backhaul the masked and unmasked selections coincide
    # trial by trial, so paired estimates match exactly
    sc = make_scenario(n=4, k=2, s=1.0)
    cfg = McConfig(trials=20_000, seed=3)
    for scheme in Scheme:
        u = estimate_metrics(sc, SchemeSpec(scheme, Knowledge.BKU), cfg)
        a = estimate_metrics(sc, SchemeSpec(scheme, Knowledge.BKA), cfg)
        for m in Metric:
            assert u[m].mean == a[m].mean


def test_schemes_share_fades_under_one_seed():
    # OTS maximizes the secrecy rate pointwise, so on shared channel
    # draws its ESR estimate dominates the other schemes' exactly
    sc = make_scenario(n=4, k=3, s=0.8)
    cfg = McConfig(trials=30_000, seed=17)
    for kn in Knowledge:
        ots = estimate_metrics(sc, SchemeSpec(Scheme.OTS, kn), cfg)[Metric.ESR].mean
        tts = estimate_metrics(sc, SchemeSpec(Scheme.TTS, kn), cfg)[Metric.ESR].mean
        mes = estimate_metrics(sc, SchemeSpec(Scheme.MIN_ES, kn), cfg)[Metric.ESR].mean
        assert ots >= tts
        assert ots >= mes


def test_estimate_single_metric():
    sc = make_scenario()
    cfg = McConfig(trials=20_000, seed=2)
    spec = SchemeSpec(Scheme.MIN_ES, Knowledge.BKU)
    single = tx.estimate(sc, spec, cfg, Metric.SOP)
    assert single == estimate_metrics(sc, spec, cfg)[Metric.SOP]
    assert single.trials == 20_000
    assert single.seed == 2


def test_stderr_scales_with_trials():
    sc = make_scenario()
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    small = estimate_metrics(sc, spec, McConfig(trials=10_000, seed=1))
    large = estimate_metrics(sc, spec, McConfig(trials=160_000, seed=1))
    ratio = small[Metric.ESR].std_error / large[Metric.ESR].std_error
    assert ratio == pytest.approx(4.0, rel=0.2)


# 45,000 trials in batches of 10,000: four whole batches and a partial one
_UNEVEN = McConfig(trials=45_000, seed=21, batch_size=10_000)


def _one_draw_per_spec(sc, spec, cfg):
    """Reference: SOP, NZSR and ESR means with the fades drawn for this spec alone."""
    n_outage = n_positive = 0
    rate_sum = 0.0
    done = batch_index = 0
    while done < cfg.trials:
        b = min(cfg.batch_size, cfg.trials - done)
        gd, ge, active = montecarlo._draw_fades(sc, _batch_rng(cfg.seed, batch_index), b)
        rates = montecarlo._secrecy_rates(spec, (1.0 + gd) / (1.0 + ge), gd, ge, active)
        n_outage += int(np.count_nonzero(rates <= sc.threshold_rate))
        n_positive += int(np.count_nonzero(rates > 0.0))
        rate_sum += float(rates.sum())
        done += b
        batch_index += 1
    return n_outage / cfg.trials, n_positive / cfg.trials, rate_sum / cfg.trials


def test_estimate_many_matches_one_spec_at_a_time():
    sc = make_scenario(n=4, k=3, s=0.6)
    many = estimate_many(sc, ALL_SPECS, _UNEVEN)
    assert list(many) == list(ALL_SPECS)
    for spec in ALL_SPECS:
        assert many[spec] == estimate_metrics(sc, spec, _UNEVEN)
        assert all(e.trials == 45_000 and e.seed == 21 for e in many[spec].values())
        means = tuple(many[spec][m].mean for m in (Metric.SOP, Metric.NZSR, Metric.ESR))
        assert means == _one_draw_per_spec(sc, spec, _UNEVEN)


@pytest.mark.parametrize("specs", [ALL_SPECS[:1], ALL_SPECS], ids=["one", "six"])
def test_fades_are_drawn_once_per_batch(specs, monkeypatch):
    calls = []
    draw = montecarlo._draw_fades

    def counting(scenario, rng, size):
        calls.append(size)
        return draw(scenario, rng, size)

    monkeypatch.setattr(montecarlo, "_draw_fades", counting)
    estimate_many(make_scenario(n=3, k=2), specs, _UNEVEN)
    assert calls == [10_000] * 4 + [5_000]


def test_duplicate_specs_give_one_entry():
    sc = make_scenario(n=3, k=2, s=0.8)
    tts, ots = SchemeSpec(Scheme.TTS, Knowledge.BKA), SchemeSpec(Scheme.OTS, Knowledge.BKU)
    many = estimate_many(sc, (tts, ots, tts), _UNEVEN)
    assert list(many) == [tts, ots]
    assert many[tts] == estimate_metrics(sc, tts, _UNEVEN)
    assert many[ots] == estimate_metrics(sc, ots, _UNEVEN)
