"""Command-line front end: parameter sweeps, figure presets, verification.

Two subcommands:

``txsecrecy sweep``
    Sweep one variable (destination SNR in dB, backhaul reliability, or
    number of transmitters) across schemes and knowledge cases, and emit
    CSV/JSON curve data with exact values, asymptotes, and optional
    Monte Carlo estimates.  ``--preset figN`` replays the parameter
    blocks of the reference figures; presets with several parameter
    variants write one file per variant.

``txsecrecy verify``
    Cross-check closed forms, quadrature, and Monte Carlo on one
    scenario for all six scheme/knowledge cases.

All SNRs in configuration files and on the dB axes are in dB; rate
parameters are internal.  Exit codes: 0 success, 1 usage/parse error,
2 numeric failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import asymptotics, metrics
from .errors import RateSeparationError, TxSecrecyError
from .montecarlo import MIN_TRIALS, McConfig, Metric, estimate_many
from .scenario import ALL_SPECS, Knowledge, Scenario, Scheme, SchemeSpec, scenario_from_db

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

CSV_HEADER = ["x", "scheme", "knowledge", "metric", "exact", "asymptote", "mc_mean", "mc_stderr"]

_SCHEMES = {s.name: s for s in Scheme}
_KNOWLEDGE = {k.name: k for k in Knowledge}


@dataclass(frozen=True)
class SweepSpec:
    variable: str                  # dest_snr_db | s | n_transmitters
    start: float
    stop: float
    step: float
    specs: tuple                   # SchemeSpec
    outputs: tuple                 # subset of {sop, nzsr, esr, asymptote, mc}

    def grid(self):
        if self.step <= 0:
            raise ValueError("sweep step must be positive")
        vals = []
        x = self.start
        while x <= self.stop + 1e-9:
            vals.append(round(x, 10))
            x += self.step
        if not vals:
            raise ValueError("empty sweep range")
        return vals


# --------------------------------------------------------------------------
# figure presets: parameter blocks of the reference figures
# --------------------------------------------------------------------------

_EAVE_K3 = (6.0, 9.0, 13.0)
_EAVE_K1 = (13.0,)
_RTH = 1.0


def _base(n, k, s, eave):
    return dict(
        n_transmitters=n, n_eavesdroppers=k, backhaul_reliability=s,
        eave_snr_db=eave, threshold_rate=_RTH,
    )


#: preset name -> (metric outputs, list of (variant label, scenario kwargs))
PRESETS = {
    "fig2": (("sop", "asymptote"), [
        ("s0.20", _base(5, 3, 0.20, _EAVE_K3)),
        ("s0.90", _base(5, 3, 0.90, _EAVE_K3)),
    ]),
    "fig3": (("sop", "asymptote"), [
        ("N2", _base(2, 3, 0.20, _EAVE_K3)),
        ("N5", _base(5, 3, 0.20, _EAVE_K3)),
    ]),
    "fig4": (("sop", "asymptote"), [
        ("K1", _base(5, 1, 0.90, _EAVE_K1)),
        ("K3", _base(5, 3, 0.90, _EAVE_K3)),
    ]),
    "fig5": (("esr",), [
        ("s0.20", _base(5, 3, 0.20, _EAVE_K3)),
        ("s0.90", _base(5, 3, 0.90, _EAVE_K3)),
    ]),
    "fig6": (("esr",), [
        ("N2K1", _base(2, 1, 0.20, _EAVE_K1)),
        ("N2K3", _base(2, 3, 0.20, _EAVE_K3)),
        ("N5K1", _base(5, 1, 0.20, _EAVE_K1)),
        ("N5K3", _base(5, 3, 0.20, _EAVE_K3)),
    ]),
    "fig7": (("esr", "asymptote"), [
        ("s1.00", _base(5, 1, 1.00, _EAVE_K1)),
        ("s0.50", _base(5, 1, 0.50, _EAVE_K1)),
    ]),
}

_PRESET_SWEEP_DB = (0.0, 60.0, 2.0)

# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def parse_config(path: Path):
    """Parse the flat key/value scenario file; returns (Scenario, SweepSpec|None, McConfig|None)."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ValueError(f"parse error in {path}: {exc}") from exc

    if "scenario" not in cp:
        raise ValueError(f"{path}: missing [scenario] section")
    sect = cp["scenario"]
    try:
        scenario = scenario_from_db(
            n_transmitters=sect.getint("n_transmitters"),
            n_eavesdroppers=sect.getint("n_eavesdroppers"),
            backhaul_reliability=sect.getfloat("backhaul_reliability"),
            dest_snr_db=sect.getfloat("dest_snr_db", fallback=20.0),
            eave_snr_db=[float(v) for v in sect.get("eave_snr_db").split(",")],
            threshold_rate=sect.getfloat("threshold_rate", fallback=0.0),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: bad [scenario] section: {exc}") from exc

    sweep = None
    if "sweep" in cp:
        sect = cp["sweep"]
        try:
            schemes = [_SCHEMES[v.strip()] for v in sect.get("schemes", "MIN_ES, TTS, OTS").split(",")]
            knowledge = [_KNOWLEDGE[v.strip()] for v in sect.get("knowledge", "BKU, BKA").split(",")]
            sweep = SweepSpec(
                variable=sect.get("variable", "dest_snr_db"),
                start=sect.getfloat("start"),
                stop=sect.getfloat("stop"),
                step=sect.getfloat("step"),
                specs=tuple(SchemeSpec(s, k) for s in schemes for k in knowledge),
                outputs=tuple(v.strip() for v in sect.get("outputs", "sop, nzsr, esr").split(",")),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{path}: bad [sweep] section: {exc}") from exc

    mc = None
    if "mc" in cp:
        sect = cp["mc"]
        try:
            mc = McConfig(
                trials=sect.getint("trials", fallback=1_000_000),
                seed=sect.getint("seed", fallback=0),
                batch_size=sect.getint("batch_size", fallback=250_000),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad [mc] section: {exc}") from exc

    return scenario, sweep, mc


# --------------------------------------------------------------------------
# sweep evaluation
# --------------------------------------------------------------------------

def _apply_variable(scenario: Scenario, variable: str, x: float) -> Scenario:
    if variable == "dest_snr_db":
        return scenario.with_dest_snr_db(x)
    if variable == "s":
        return scenario.with_reliability(x)
    if variable == "n_transmitters":
        return replace(scenario, n_transmitters=int(x))
    raise ValueError(f"unknown sweep variable {variable!r}")


def _exact_value(scenario: Scenario, spec: SchemeSpec, metric: str, ots_esr: dict) -> float:
    if metric == "sop":
        return metrics.sop(scenario, spec)
    if metric == "nzsr":
        return metrics.nzsr(scenario, spec)
    if spec.scheme is Scheme.OTS:
        return metrics._esr_bits(*ots_esr[spec][scenario], spec)
    return metrics.esr_closed_form(scenario, spec)


def run_sweep(scenario: Scenario, sweep: SweepSpec, out: Path,
              mc: McConfig | None = None, fmt: str = "csv") -> int:
    """Evaluate the sweep and write one curve file; returns an exit code.

    Each OTS ESR column is one :func:`~txsecrecy.metrics._esr_rows` call; a row fails its cell only.
    """
    want_asym = "asymptote" in sweep.outputs
    metric_names = [m for m in ("sop", "nzsr", "esr") if m in sweep.outputs]
    if not metric_names:
        print("sweep outputs select no metric", file=sys.stderr)
        return EXIT_USAGE

    scenarios, failures = {}, 0
    for x in sweep.grid():
        try:
            scenarios[x] = _apply_variable(scenario, sweep.variable, x)
        except (ValueError, TxSecrecyError) as exc:
            print(f"x={x}: {exc}", file=sys.stderr)
            failures += 1
    ots_esr = {  # spec -> scenario -> (value, error) of its row
        spec: dict(zip(scenarios.values(), zip(*metrics._esr_rows(list(scenarios.values()), spec))))
        for spec in sweep.specs if spec.scheme is Scheme.OTS and "esr" in metric_names and scenarios
    }
    rows = []
    for x, sc_x in scenarios.items():
        mc_ests = estimate_many(sc_x, sweep.specs, mc) if mc is not None else {}
        for spec in sweep.specs:
            mc_est = mc_ests.get(spec)
            for metric in metric_names:
                row = {
                    "x": x, "scheme": spec.scheme.name, "knowledge": spec.knowledge.name,
                    "metric": metric, "exact": "", "asymptote": "", "mc_mean": "", "mc_stderr": "",
                }
                try:
                    row["exact"] = repr(_exact_value(sc_x, spec, metric, ots_esr))
                    if want_asym:
                        if metric == "sop":
                            row["asymptote"] = repr(asymptotics.sop_asymptote(sc_x, spec).value)
                        elif metric == "nzsr":
                            row["asymptote"] = repr(asymptotics.nzsr_asymptote(sc_x, spec))
                        else:
                            line = asymptotics.esr_asymptote(sc_x, spec)
                            row["asymptote"] = repr(line.at_dest_rate(sc_x.dest_rate))
                except TxSecrecyError as exc:
                    print(f"x={x} {spec.label} {metric}: {exc}", file=sys.stderr)
                    failures += 1
                if mc_est is not None:
                    est = mc_est[Metric(metric)]
                    row["mc_mean"] = repr(est.mean)
                    row["mc_stderr"] = repr(est.std_error)
                rows.append(row)

    out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        out.write_text(json.dumps(rows, indent=2) + "\n")
    else:
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_NUMERIC if failures else EXIT_OK


def find_sop_crossover(scenario: Scenario, knowledge: Knowledge,
                       lo_db: float = 0.0, hi_db: float = 60.0,
                       tol_db: float = 0.1) -> float | None:
    """Destination SNR (dB) where TTS overtakes MIN-ES, by bisection."""
    def diff(db):
        sc = scenario.with_dest_snr_db(db)
        return (metrics.sop(sc, SchemeSpec(Scheme.TTS, knowledge))
                - metrics.sop(sc, SchemeSpec(Scheme.MIN_ES, knowledge)))

    f_lo, f_hi = diff(lo_db), diff(hi_db)
    if f_lo * f_hi > 0:
        return None
    while hi_db - lo_db > tol_db:
        mid = 0.5 * (lo_db + hi_db)
        f_mid = diff(mid)
        if f_lo * f_mid <= 0:
            hi_db = mid
        else:
            lo_db, f_lo = mid, f_mid
    return 0.5 * (lo_db + hi_db)


def run_preset(name: str, out: Path, mc: McConfig | None, fmt: str) -> int:
    outputs, variants = PRESETS[name]
    if mc is not None:
        outputs = outputs + ("mc",)
    status = EXIT_OK
    ext = "json" if fmt == "json" else "csv"
    for label, kwargs in variants:
        scenario = scenario_from_db(dest_snr_db=_PRESET_SWEEP_DB[0], **kwargs)
        sweep = SweepSpec(
            variable="dest_snr_db",
            start=_PRESET_SWEEP_DB[0], stop=_PRESET_SWEEP_DB[1], step=_PRESET_SWEEP_DB[2],
            specs=ALL_SPECS, outputs=outputs,
        )
        target = out.with_name(f"{out.stem}_{label}.{ext}")
        rc = run_sweep(scenario, sweep, target, mc=mc, fmt=fmt)
        status = max(status, rc)
        print(f"{name} {label}: wrote {target}")
        if name == "fig2":
            for knowledge in (Knowledge.BKU, Knowledge.BKA):
                xdb = find_sop_crossover(scenario, knowledge)
                where = "none in range" if xdb is None else f"{xdb:.1f} dB"
                print(f"{name} {label}: TTS overtakes MIN-ES ({knowledge.name}) at {where}")
    return status


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def run_verify(scenario: Scenario, mc: McConfig) -> int:
    """Closed form vs quadrature vs Monte Carlo for all six cases.

    The ESR quadrature is also checked against the MIN-ES or TTS term
    sum, wherever that sum is taken (within its rounding bound, and for
    MIN-ES from at most 300 terms); elsewhere, and for OTS, it has Monte
    Carlo alone to check it.  Each check is a 3-sigma test.  For SOP and NZSR, sigma is the
    binomial standard error at the exact value, so a scenario whose
    outages are too rare to show up in the trials still passes; ESR uses
    the sample standard error.  The printed ``+-`` is always the Monte
    Carlo standard error.
    """
    print(f"verify: N={scenario.n_transmitters} K={scenario.n_eavesdroppers} "
          f"s={scenario.backhaul_reliability} dest_snr={scenario.dest_snr_db:.1f} dB "
          f"R_th={scenario.threshold_rate} trials={mc.trials}")
    estimates = estimate_many(scenario, ALL_SPECS, mc)
    failures = 0
    for spec in ALL_SPECS:
        try:
            exact = {
                "sop": metrics.sop(scenario, spec),
                "nzsr": metrics.nzsr(scenario, spec),
                "esr": metrics.esr_quadrature(scenario, spec),
            }
            dual_note = ""
            cf = None if spec.scheme is Scheme.OTS else metrics._esr_term_sum(scenario, spec)
            if cf is not None:
                rel = abs(cf - exact["esr"]) / max(abs(cf), 1e-300)
                if rel > 1e-6:
                    dual_note = f" [closed-form vs quadrature rel err {rel:.2e}]"
        except TxSecrecyError as exc:
            print(f"{spec.label:<12} ERROR: {exc}")
            if isinstance(exc, RateSeparationError):
                print("  hint: eavesdropper rates must be distinct; "
                      "perturb them with txsecrecy.jitter_rates")
            return EXIT_NUMERIC
        for name, metric in (("sop", Metric.SOP), ("nzsr", Metric.NZSR), ("esr", Metric.ESR)):
            e = estimates[spec][metric]
            if name == "esr":
                se = e.std_error
            else:
                p = min(max(exact[name], 0.0), 1.0)
                se = math.sqrt(p * (1.0 - p) / e.trials)
            ok = abs(e.mean - exact[name]) <= 3.0 * max(se, 1e-12)
            if name == "esr" and dual_note:
                ok = False
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            note = dual_note if name == "esr" else ""
            print(f"{spec.label:<12} {name:<5} exact={exact[name]:.6e} "
                  f"mc={e.mean:.6e} +- {e.std_error:.1e}  {status}{note}")
    checks = 3 * len(ALL_SPECS)
    print(f"verify: {checks - failures}/{checks} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txsecrecy",
        description="Secrecy metrics for transmitter selection with unreliable wireless backhaul",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit curve data")
    sweep.add_argument("--scenario", type=Path, help="scenario/sweep configuration file")
    sweep.add_argument("--preset", choices=sorted(PRESETS), help="figure preset")
    sweep.add_argument("--out", type=Path, required=True, help="output file (presets add variant suffixes)")
    sweep.add_argument("--trials", type=int, help="Monte Carlo trials (enables mc columns for presets)")
    sweep.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    sweep.add_argument("--metrics", default=None, help="comma list of sop,nzsr,esr (overrides config)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="cross-check closed forms, quadrature, Monte Carlo")
    verify.add_argument("--scenario", type=Path, required=True)
    verify.add_argument("--trials", type=int, default=1_000_000)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        if args.trials < MIN_TRIALS:
            print(f"refusing to verify with fewer than {MIN_TRIALS} trials", file=sys.stderr)
            return EXIT_USAGE
        try:
            scenario, _, _ = parse_config(args.scenario)
            return run_verify(scenario, McConfig(trials=args.trials, seed=args.seed))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        except TxSecrecyError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_NUMERIC

    # sweep
    mc = None
    if args.trials is not None:
        if args.trials < MIN_TRIALS:
            print(f"refusing to simulate with fewer than {MIN_TRIALS} trials", file=sys.stderr)
            return EXIT_USAGE
        mc = McConfig(trials=args.trials, seed=args.seed)

    try:
        if args.preset:
            return run_preset(args.preset, args.out, mc, args.format)
        if not args.scenario:
            print("sweep requires --scenario or --preset", file=sys.stderr)
            return EXIT_USAGE
        scenario, sweep, cfg_mc = parse_config(args.scenario)
        if sweep is None:
            print(f"{args.scenario}: missing [sweep] section", file=sys.stderr)
            return EXIT_USAGE
        if args.metrics:
            keep = tuple(v.strip() for v in args.metrics.split(","))
            extras = tuple(o for o in sweep.outputs if o in ("asymptote", "mc"))
            sweep = replace(sweep, outputs=keep + extras)
        if mc is None and "mc" in sweep.outputs:
            mc = cfg_mc or McConfig()
        return run_sweep(scenario, sweep, args.out, mc=mc, fmt=args.format)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except TxSecrecyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
