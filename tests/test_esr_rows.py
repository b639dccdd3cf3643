"""The rows form of the GK15 integrator and the sweep's one ESR integral per OTS column.

``metrics._esr_rows`` integrates every point of a sweep column at once,
one row per point; each row must give the bits of its own
``esr_quadrature`` call, fail alone, and reach the integrand in blocks
of at most ``metrics._GK15_BLOCK_NODES`` nodes.
"""

import csv
import math

import numpy as np
import pytest

import txsecrecy as tx
from txsecrecy import Knowledge, Scheme, SchemeSpec, cli, metrics

from conftest import make_scenario

# (variable, grid, fixed dest SNR in dB) of the columns checked below
_COLUMNS = {
    "db_0_60": ("dest_snr_db", [float(x) for x in range(0, 61, 2)], 0.0),
    "db_m30_60": ("dest_snr_db", [float(x) for x in range(-30, 61, 2)], 0.0),
    "s": ("s", [round(0.05 * i, 10) for i in range(1, 21)], 20.0),
    "n_transmitters": ("n_transmitters", [float(n) for n in range(1, 13)], 20.0),
}


def _column(name, n=5, k=3, s=0.2):
    variable, grid, db = _COLUMNS[name]
    base = make_scenario(n=n, k=k, s=s, dest_db=db)
    return [cli._apply_variable(base, variable, x) for x in grid]


def _rows_in_bits(scenarios, spec):
    return [metrics._esr_bits(v, e, spec) for v, e in zip(*metrics._esr_rows(scenarios, spec))]


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("name", sorted(_COLUMNS))
def test_ots_rows_are_the_cells_bit_for_bit(name, kn):
    spec = SchemeSpec(Scheme.OTS, kn)
    for n, k, s in ((5, 3, 0.2), (2, 1, 0.9)):
        scenarios = _column(name, n, k, s)
        assert _rows_in_bits(scenarios, spec) == [tx.esr_quadrature(sc, spec) for sc in scenarios]


@pytest.mark.parametrize("scheme", (Scheme.MIN_ES, Scheme.TTS), ids=lambda s: s.name)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("name", ("db_0_60", "s", "n_transmitters"))
def test_min_es_and_tts_rows_match_the_cells(name, kn, scheme):
    spec = SchemeSpec(scheme, kn)
    scenarios = _column(name)
    cells = [tx.esr_quadrature(sc, spec) for sc in scenarios]
    for got, want in zip(_rows_in_bits(scenarios, spec), cells):
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_start_edges_are_linspace():
    u = np.concatenate((np.random.default_rng(5).uniform(1e-3, 50.0, 1000), [1.0, 3.0]))
    assert (metrics._GK15_START_EDGES * u[:, None] == np.linspace(0.0, u, 33, axis=-1)).all()


def test_a_converged_row_keeps_its_one_row_bits():
    # cos(3x) converges on the start partition and sqrt(x) bisects towards
    # 0 for many steps; the cos row's sum over the finer pieces differs in
    # the last bit, so it must keep the sum of the step where it converged
    def cos3(x):
        return np.cos(3.0 * x)

    def both(x):
        return np.stack((cos3(x[0]), np.sqrt(x[1])))

    rows = metrics._adaptive_gk15(both, np.array([1.0, 1.0]), 0.0, 1e-13)
    for i, f in enumerate((cos3, np.sqrt)):
        alone = metrics._adaptive_gk15(f, 1.0, 0.0, 1e-13)
        assert (rows[0][i], rows[1][i]) == alone


def test_rows_bisect_the_union_of_their_pieces():
    # each row is singular at the other end, so both need the other's pieces too
    def f(x):
        return np.stack((np.sqrt(x[0]), np.sqrt(1.0 - x[1])))

    val, err = metrics._adaptive_gk15(f, np.array([1.0, 1.0]), 0.0, 1e-12)
    for v, e in zip(val, err):
        assert e <= 1e-12 * v
        assert abs(v - 2.0 / 3.0) <= 1e-11


def test_integrand_calls_stay_within_a_block():
    seen = []

    def spy(f):
        def g(x):
            seen.append(x.size)
            return f(x)
        return g

    # one column of 31 rows, and one row whose bisection steps pass 136 pieces
    scales = np.linspace(1.0, 30.0, 31)[:, None]
    metrics._adaptive_gk15(spy(lambda x: np.sqrt(x) * np.cos(scales * x)), np.full(31, 3.0),
                           0.0, 1e-12)
    metrics._adaptive_gk15(spy(lambda x: np.abs(np.sin(200.0 * x))), 3.0, 0.0, 1e-12)
    assert seen and max(seen) <= metrics._GK15_BLOCK_NODES
    assert len(seen) > 2 * (metrics._GK15_START_PIECES * 15 * 31) // metrics._GK15_BLOCK_NODES


def _fail_row(monkeypatch, target):
    """Make the rows quadrature report a large error for the row of ``target``'s upper."""
    adaptive = metrics._adaptive_gk15

    def failing(f, upper, epsabs, epsrel):
        val, err = adaptive(f, upper, epsabs, epsrel)
        if not isinstance(upper, float):
            err = np.where(upper == target, 1.0, err)
        return val, err

    monkeypatch.setattr(metrics, "_adaptive_gk15", failing)


def _upper(sc):
    return math.log1p((40.0 + math.log(sc.n_transmitters)) / sc.dest_rate)


def test_a_failed_row_raises_for_itself_only(monkeypatch):
    spec = SchemeSpec(Scheme.OTS, Knowledge.BKU)
    scenarios = _column("db_0_60")
    want = [tx.esr_quadrature(sc, spec) for sc in scenarios]
    _fail_row(monkeypatch, _upper(scenarios[7]))
    for i, (v, e) in enumerate(zip(*metrics._esr_rows(scenarios, spec))):
        if i == 7:
            with pytest.raises(tx.QuadratureError, match=r"converge for OTS-BKU: .*, err=1.0$"):
                metrics._esr_bits(v, e, spec)
        else:
            assert metrics._esr_bits(v, e, spec) == want[i]


def test_sweep_blanks_only_the_failed_cells(tmp_path, monkeypatch, capsys):
    scen = tmp_path / "ots.ini"
    scen.write_text(
        "[scenario]\nn_transmitters = 5\nn_eavesdroppers = 3\n"
        "backhaul_reliability = 0.2\ndest_snr_db = 0\neave_snr_db = 6, 9, 13\n\n"
        "[sweep]\nvariable = dest_snr_db\nstart = 0\nstop = 20\nstep = 5\noutputs = sop, esr\n"
    )

    def sweep(name):
        out = tmp_path / name
        rc = cli.main(["sweep", "--scenario", str(scen), "--out", str(out)])
        with open(out, newline="") as fh:
            return rc, list(csv.DictReader(fh))

    rc, clean = sweep("clean.csv")
    assert rc == cli.EXIT_OK and capsys.readouterr().err == ""
    # both OTS columns share the row's range, so both fail at 10 dB, each
    # with the message its own esr_quadrature call would raise
    failed_at = cli.parse_config(scen)[0].with_dest_snr_db(10.0)
    messages = []
    for kn in Knowledge:
        spec = SchemeSpec(Scheme.OTS, kn)
        (val,), _ = metrics._esr_rows((failed_at,), spec)
        with pytest.raises(tx.QuadratureError) as exc:
            metrics._esr_bits(val, 1.0, spec)
        messages.append(f"x=10.0 {spec.label} esr: {exc.value}")
    _fail_row(monkeypatch, _upper(failed_at))
    rc, rows = sweep("failed.csv")
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == messages
    changed = [(r, c) for r, c in zip(rows, clean) if r != c]
    assert [(r["x"], r["scheme"], r["metric"]) for r, _ in changed] == [("10.0", "OTS", "esr")] * 2
    for r, c in changed:
        assert r["exact"] == "" and {**r, "exact": c["exact"]} == c
