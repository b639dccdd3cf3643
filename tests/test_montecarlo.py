import tracemalloc

import numpy as np
import pytest

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, McConfig, Metric, Scheme, SchemeSpec
from txsecrecy import montecarlo
from txsecrecy.montecarlo import _CHUNK_ROWS, _batch_rng, estimate_many, estimate_metrics

from conftest import EAVE_DB_K1, EAVE_DB_K3, make_scenario


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=100)
    for field in ("trials", "seed", "batch_size"):
        for bad in (20_000.0, True, "20000"):
            with pytest.raises(ValueError, match=field):
                McConfig(**{field: bad})
    assert McConfig(trials=np.int64(20_000), seed=np.uint64(2**63)).trials == 20_000
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


def test_stderr_scales_with_trials():
    sc = make_scenario()
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    small = estimate_metrics(sc, spec, McConfig(trials=10_000, seed=1))
    large = estimate_metrics(sc, spec, McConfig(trials=160_000, seed=1))
    ratio = small[Metric.ESR].std_error / large[Metric.ESR].std_error
    assert ratio == pytest.approx(4.0, rel=0.2)


# 45,000 trials in batches of 10,000: four whole batches and a partial one
_UNEVEN = McConfig(trials=45_000, seed=21, batch_size=10_000)


def _reference_rates(spec, ratio, gamma_d, gamma_e, active):
    """Whole-batch selection: masked argmax over every row, ``ratio[rows, idx]``."""
    if spec.scheme is Scheme.MIN_ES:
        criterion, pick_max = gamma_e, False
    elif spec.scheme is Scheme.TTS:
        criterion, pick_max = gamma_d, True
    else:
        criterion, pick_max = ratio, True

    rows = np.arange(gamma_d.shape[0])
    if spec.knowledge is Knowledge.BKU:
        idx = criterion.argmax(axis=1) if pick_max else criterion.argmin(axis=1)
        delivered = active[rows, idx]
    else:
        fill = -np.inf if pick_max else np.inf
        masked = np.where(active, criterion, fill)
        idx = masked.argmax(axis=1) if pick_max else masked.argmin(axis=1)
        delivered = active.any(axis=1)

    rates = np.maximum(np.log2(ratio[rows, idx]), 0.0)
    rates[~delivered] = 0.0
    return rates


def _reference_fades(scenario, rng, size):
    """Whole-array draws in the fixed order: destination, each eavesdropper, backhaul."""
    n_tx = scenario.n_transmitters
    gamma_d = rng.exponential(1.0 / scenario.dest_rate, (size, n_tx))
    gamma_e = np.zeros((size, n_tx))
    for lam in scenario.eave_rates:
        gamma_e += rng.exponential(1.0 / lam, (size, n_tx))
    active = rng.random((size, n_tx)) < scenario.backhaul_reliability
    return gamma_d, gamma_e, active


def _one_draw_per_spec(sc, spec, cfg):
    """Reference: SOP, NZSR and ESR means with the fades drawn for this spec alone."""
    n_outage = n_positive = 0
    rate_sum = 0.0
    done = batch_index = 0
    while done < cfg.trials:
        b = min(cfg.batch_size, cfg.trials - done)
        gd, ge, active = _reference_fades(sc, _batch_rng(cfg.seed, batch_index), b)
        rates = _reference_rates(spec, (1.0 + gd) / (1.0 + ge), gd, ge, active)
        n_outage += int(np.count_nonzero(rates <= sc.threshold_rate))
        n_positive += int(np.count_nonzero(rates > 0.0))
        rate_sum += float(rates.sum())
        done += b
        batch_index += 1
    return n_outage / cfg.trials, n_positive / cfg.trials, rate_sum / cfg.trials


def _means(estimates):
    return tuple(estimates[m].mean for m in (Metric.SOP, Metric.NZSR, Metric.ESR))


def test_estimate_many_matches_one_spec_at_a_time():
    sc = make_scenario(n=4, k=3, s=0.6)
    many = estimate_many(sc, ALL_SPECS, _UNEVEN)
    assert list(many) == list(ALL_SPECS)
    for spec in ALL_SPECS:
        assert many[spec] == estimate_metrics(sc, spec, _UNEVEN)
        assert all(e.trials == 45_000 and e.seed == 21 for e in many[spec].values())
        assert _means(many[spec]) == _one_draw_per_spec(sc, spec, _UNEVEN)


@pytest.mark.parametrize("specs", [ALL_SPECS[:1], ALL_SPECS], ids=["one", "six"])
def test_fades_are_drawn_once_per_batch(specs, monkeypatch):
    calls = []
    draw = montecarlo._draw_fades

    def counting(scenario, rng, size, work):
        calls.append(size)
        return draw(scenario, rng, size, work)

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


# Two whole batches, each three chunks with a short last one, and a ragged
# last batch: every chunk boundary falls inside a batch.
_ACROSS_CHUNKS = McConfig(trials=2 * (2 * _CHUNK_ROWS + 123) + 7_001, seed=5,
                          batch_size=2 * _CHUNK_ROWS + 123)
_BKA_ONLY = tuple(s for s in ALL_SPECS if s.knowledge is Knowledge.BKA)


# The mc_verify shapes: at N=2, s=0.5 BKA re-picks half the rows, at
# N=10, s=0.9 about a tenth.  N=13 folds more columns than any of them.
_N2K1 = tx.scenario_from_db(2, 1, 0.5, 10.0, EAVE_DB_K1, threshold_rate=0.0)
_N10K3 = tx.scenario_from_db(10, 3, 0.9, 30.0, EAVE_DB_K3, threshold_rate=0.0)
_N13K3 = tx.scenario_from_db(13, 3, 0.7, 20.0, EAVE_DB_K3)


@pytest.mark.parametrize(
    "specs, sc",
    [(ALL_SPECS, None), (ALL_SPECS[::-1], None), (_BKA_ONLY, None), (ALL_SPECS[1:2], None),
     (ALL_SPECS[4:5], None), (ALL_SPECS, _N2K1), (ALL_SPECS, _N10K3), (ALL_SPECS, _N13K3)],
    ids=["all", "reversed", "bka", "min_es_bka", "ots_bku", "n2k1_s0.5", "n10k3_s0.9",
         "n13k3_s0.7"],
)
def test_chunked_scoring_matches_whole_batch_reference(specs, sc):
    sc = sc or make_scenario(n=5, k=3, s=0.6)
    many = estimate_many(sc, specs, _ACROSS_CHUNKS)
    assert list(many) == list(specs)
    for spec in specs:
        assert _means(many[spec]) == _one_draw_per_spec(sc, spec, _ACROSS_CHUNKS)


@pytest.mark.parametrize("size", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 123])
@pytest.mark.parametrize("k", [1, 3])
def test_chunked_draws_equal_whole_array_draws(size, k):
    sc = make_scenario(n=4, k=k, s=0.7)
    work = montecarlo._Workspace(size, sc.n_transmitters, 1)
    got = montecarlo._draw_fades(sc, _batch_rng(3, 1), size, work)
    want = _reference_fades(sc, _batch_rng(3, 1), size)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _pick(scheme, gamma_d, gamma_e, active):
    gamma_d, gamma_e, active = (np.asarray(a, dtype=d) for a, d in
                                ((gamma_d, float), (gamma_e, float), (active, bool)))
    ratio = (1.0 + gamma_d) / (1.0 + gamma_e)
    out = {kn: np.full(gamma_d.shape[0], np.nan) for kn in Knowledge}
    work = montecarlo._Workspace(*gamma_d.shape, len(out))
    for sl in montecarlo._row_chunks(gamma_d.shape[0], work.chunk_rows):
        montecarlo._secrecy_rates(scheme, ratio[sl], gamma_d[sl], gamma_e[sl], active[sl],
                                  {kn: rates[sl] for kn, rates in out.items()}, work)
    for kn, rates in out.items():
        ref = _reference_rates(SchemeSpec(scheme, kn), ratio, gamma_d, gamma_e, active)
        assert np.array_equal(rates, ref)
    return out[Knowledge.BKU], out[Knowledge.BKA]


# Per scheme: destination and eavesdropper SNRs of three rows, and the BKA
# rates.  Row 0 ties two best links, both active, and picking the second
# would give rate 2 (except for OTS, whose tied links have equal rates);
# in rows 1 and 2 the first best link is down, and in row 2 the active
# links tie, where picking the second would give rate 2.
_TIES = {
    Scheme.TTS: ([[3, 1, 3], [3, 1, 3], [7, 3, 3]],
                 [[1, 1, 0], [1, 1, 0], [0, 1, 0]], [1.0, 2.0, 1.0]),
    Scheme.MIN_ES: ([[3, 3, 7], [3, 3, 7], [7, 3, 7]],
                    [[1, 3, 1], [1, 3, 1], [0, 1, 1]], [1.0, 2.0, 1.0]),
    Scheme.OTS: ([[3, 1, 7], [3, 1, 7], [15, 3, 7]],
                 [[1, 1, 3], [1, 1, 3], [0, 1, 3]], [1.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_bka_pick_breaks_ties_toward_the_first_active_link(scheme):
    gd, ge, want = _TIES[scheme]
    act = [[True, True, True], [False, True, True], [False, True, True]]
    bku, bka = _pick(scheme, gd, ge, act)
    assert bku.tolist() == [1.0, 0.0, 0.0]
    assert bka.tolist() == want


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_bka_pick_without_an_active_link_delivers_nothing(scheme):
    gd = [[3.0, 7.0], [3.0, 7.0]]
    ge = [[0.0, 0.0], [0.0, 0.0]]
    bku, bka = _pick(scheme, gd, ge, [[False, False], [True, False]])
    assert bka.tolist() == [0.0, 2.0]
    assert bku[0] == 0.0


@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_bka_pick_with_all_links_down_or_up(scheme, s):
    rng = np.random.default_rng(4)
    gd, ge = rng.exponential(5.0, (500, 4)), rng.exponential(1.0, (500, 4))
    bku, bka = _pick(scheme, gd, ge, np.full((500, 4), s == 1.0))
    if s == 0.0:
        assert not bku.any() and not bka.any()
    else:
        assert np.array_equal(bku, bka) and bku.any()


def test_batch_memory_peak_is_bounded():
    # 250,000-trial batches of N=10 fades: the fades alone are 17 bytes
    # per entry, the six rate rows 48 bytes per trial.  Two batches, so
    # the bound also fails if one batch's arrays outlive the next draw.
    sc = make_scenario(n=10, k=3, s=0.9, dest_db=30.0, rth=0.0)
    cfg = McConfig(trials=500_000, seed=1, batch_size=250_000)
    estimate_many(sc, ALL_SPECS, McConfig(trials=10_000, seed=1))
    tracemalloc.start()
    try:
        estimate_many(sc, ALL_SPECS, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * cfg.batch_size * sc.n_transmitters * 8


def test_small_run_sizes_its_arrays_by_trials():
    # 10,000 trials with the default 250,000-trial batch_size: the batch
    # arrays are sized by the trials and the chunk arrays by an eighth of
    # them, so the peak stays near the 10,000 trials' own fades
    sc = make_scenario(n=10, k=3, s=0.9, dest_db=30.0, rth=0.0)
    cfg = McConfig(trials=10_000, seed=1)
    estimate_many(sc, ALL_SPECS, cfg)
    tracemalloc.start()
    try:
        estimate_many(sc, ALL_SPECS, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * cfg.trials * sc.n_transmitters * 8
