"""Command-line front end.

Subcommands: ``region`` (trace the analytic frontier), ``check`` (classify a
rate point), ``simulate`` (one queue simulation), ``sweep`` (membership grid,
optionally cross-checked by simulation), ``compare-boundary`` (empirical vs
analytic frontier along rays), and ``mc-verify`` (closed forms vs fading
Monte Carlo). Configuration comes from an optional JSON file mirroring the
flag names, with individual flags overriding it. Thresholds are entered in
dB on the command line and converted here once; the core works in linear
scale throughout.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 I/O error,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .channel import (
    Decoding,
    InvalidParameterError,
    PowerScheme,
    SuccessProfile,
    SystemParams,
    build_profile,
    mc_estimate_profile,
)
from .region import (
    Membership,
    RatePoint,
    boundary_scale,
    membership,
    membership_grid,
    region_for_params,
    trace_boundary,
)
from .sim import DominantMode, SimConfig, Verdict, estimate_boundary, run, run_batch, system_verdict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_VERIFICATION = 5

# Half-width, in units of the per-ray boundary scale, of the band around the
# frontier that sweep excludes when counting analytic/simulated disagreements.
BAND_HALFWIDTH = 0.05

# Largest sweep resolution per axis (a million grid cells), largest number
# of traced frontier points, and largest simulator thread pool (each thread
# holds horizon-sized arrays); larger requests are usage errors, rejected
# before anything is allocated. The simulation horizon is bounded by
# ``sim.MAX_HORIZON``.
MAX_GRID = 1000
MAX_POINTS = 100_000
MAX_WORKERS = 64


class UsageError(Exception):
    pass


_DEFAULTS = {
    "scheme": "ian",
    "power": "fixed",
    "gamma1": 0.5,
    "gamma2": 0.5,
    "d1": 1.0,
    "d2": 1.0,
    "alpha": 2.0,
    "p_total": 2.0,
    "p1": None,
    "p2": None,
    "profile": None,
    "lambda1": None,
    "lambda2": None,
    "horizon": 200_000,
    "warmup": None,
    "seed": 1,
    "dominant": "none",
    "grid": 50,
    "points": 100,
    "format": "csv",
    "out": None,
    "draws": 1_000_000,
    "simulate": False,
    "angles": [45.0],
    "steps": 12,
    "workers": 1,
}


_CHOICES = {
    "scheme": ("generic", "ian", "sc"),
    "power": ("fixed", "adaptive"),
    "dominant": ("none", "queue1", "queue2"),
    "format": ("csv", "json"),
}

# Config-file values bypass argparse, so resolve_spec checks their types.
_INT_KEYS = {"horizon", "warmup", "seed", "grid", "points", "draws", "steps", "workers"}
_STR_KEYS = {"scheme", "power", "dominant", "format", "out"}
_LIST_KEYS = {"profile", "angles"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value_ok(key: str, value) -> bool:
    if value is None:
        return _DEFAULTS[key] is None
    if key == "simulate":
        return isinstance(value, bool)
    if key in _STR_KEYS:
        return isinstance(value, str) and value in _CHOICES.get(key, (value,))
    if key in _LIST_KEYS:
        return isinstance(value, list) and all(_is_number(v) for v in value)
    return _is_number(value) and (key not in _INT_KEYS or isinstance(value, int))


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidParameterError(f"{db} dB is out of floating-point range") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{text!r} is not a comma-separated list of numbers") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("system parameters")
    g.add_argument("--config", help="JSON file with any of the flag values (linear gammas)")
    g.add_argument("--scheme", choices=_CHOICES["scheme"])
    g.add_argument("--power", choices=_CHOICES["power"])
    g.add_argument("--gamma1-db", type=float, help="SNR/SINR threshold of user 1, dB")
    g.add_argument("--gamma2-db", type=float, help="SNR/SINR threshold of user 2, dB")
    g.add_argument("--d1", type=float)
    g.add_argument("--d2", type=float)
    g.add_argument("--alpha", type=float, help="pathloss exponent")
    g.add_argument("--p-total", type=float, dest="p_total")
    g.add_argument("--p1", type=float)
    g.add_argument("--p2", type=float)
    g.add_argument("--profile", help="generic scheme: p1_solo,p2_solo,p1_both,p2_both")
    s = common.add_argument_group("simulation / output")
    s.add_argument("--lambda1", type=float)
    s.add_argument("--lambda2", type=float)
    s.add_argument("--horizon", type=int)
    s.add_argument("--warmup", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--dominant", choices=_CHOICES["dominant"])
    s.add_argument("--grid", type=int, help="sweep resolution per axis")
    s.add_argument("--points", type=int, help="boundary points for region tracing")
    s.add_argument("--out", help="output path (default stdout)")
    s.add_argument("--format", choices=_CHOICES["format"])
    s.add_argument("--simulate", action="store_const", const=True, default=None,
                   help="sweep: run the simulator at each grid point")
    s.add_argument("--draws", type=int, help="mc-verify: fading draws (>= 10000)")
    s.add_argument("--angles", help="compare-boundary: comma-separated degrees")
    s.add_argument("--steps", type=int, help="compare-boundary: bisection steps")
    s.add_argument("--workers", type=int, help="sweep: simulator thread pool size")

    parser = argparse.ArgumentParser(
        prog="bcstab",
        description="Stability region of the two-user broadcast channel: "
        "closed forms and slotted Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("region", parents=[common], help="trace the analytic frontier")
    sub.add_parser("check", parents=[common], help="classify one rate point")
    sub.add_parser("simulate", parents=[common], help="run one queue simulation")
    sub.add_parser("sweep", parents=[common], help="membership grid, optional simulation")
    sub.add_parser("compare-boundary", parents=[common],
                   help="empirical vs analytic frontier along rays")
    sub.add_parser("mc-verify", parents=[common],
                   help="closed-form probabilities vs fading Monte Carlo")
    return parser


def resolve_spec(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags into one spec dict."""
    spec = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _config_value_ok(key, value):
                raise UsageError(f"config key {key!r} has an invalid value {value!r}")
        spec.update(raw)
    for key in ("scheme", "power", "d1", "d2", "alpha", "p_total", "p1", "p2",
                "lambda1", "lambda2", "horizon", "warmup", "seed", "dominant",
                "grid", "points", "out", "format", "simulate", "draws", "steps",
                "workers"):
        val = getattr(args, key, None)
        if val is not None:
            spec[key] = val
    if args.gamma1_db is not None:
        spec["gamma1"] = db_to_linear(args.gamma1_db)
    if args.gamma2_db is not None:
        spec["gamma2"] = db_to_linear(args.gamma2_db)
    if args.angles is not None:
        spec["angles"] = _parse_float_list(args.angles)
    if args.profile is not None:
        spec["profile"] = _parse_float_list(args.profile)

    # Power split bookkeeping: any single missing quantity is derived.
    p1, p2, ptot = spec["p1"], spec["p2"], spec["p_total"]
    if p1 is None and p2 is None:
        spec["p1"] = spec["p2"] = ptot / 2.0
    elif p1 is None:
        spec["p1"] = ptot - p2
    elif p2 is None:
        spec["p2"] = ptot - p1
    spec["command"] = args.command
    return spec


def params_from_spec(spec: dict) -> SystemParams:
    profile = None
    if spec["scheme"] == "generic":
        if spec["profile"] is None:
            raise UsageError("generic scheme requires --profile or a config 'profile' entry")
        vals = list(spec["profile"])
        if len(vals) != 4:
            raise UsageError("profile must have exactly 4 probabilities")
        profile = SuccessProfile(*vals)
    return SystemParams(
        gamma1=spec["gamma1"], gamma2=spec["gamma2"],
        d1=spec["d1"], d2=spec["d2"], alpha=spec["alpha"],
        p_total=spec["p_total"], p1=spec["p1"], p2=spec["p2"],
        decoding=Decoding(spec["scheme"]),
        power_scheme=PowerScheme(spec["power"]),
        generic_profile=profile,
    )


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, Verdict) or isinstance(value, Membership):
        return value.value
    return str(value)


def _jsonable(value):
    if isinstance(value, (Verdict, Membership, Decoding, PowerScheme, DominantMode)):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_output(rows: list[dict], meta: dict, spec: dict, stream) -> None:
    profile_meta = meta.pop("profile", None)
    if spec["format"] == "json":
        payload = {
            "spec": _jsonable({**spec, **meta}),
            "profile": _jsonable(profile_meta),
            "rows": _jsonable(rows),
        }
        json.dump(payload, stream, indent=2)
        stream.write("\n")
        return
    for key, value in {**spec, **meta, "profile": profile_meta}.items():
        stream.write(f"# {key}: {json.dumps(_jsonable(value))}\n")
    if not rows:
        return
    fields = list(rows[0].keys())
    stream.write(",".join(fields) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row[f]) for f in fields) + "\n")


def _profile_meta(profile: SuccessProfile) -> dict:
    return {
        "p1_solo": profile.p1_solo,
        "p2_solo": profile.p2_solo,
        "p1_both": profile.p1_both,
        "p2_both": profile.p2_both,
    }


def _require_rates(spec: dict) -> RatePoint:
    if spec["lambda1"] is None or spec["lambda2"] is None:
        raise UsageError("this command requires --lambda1 and --lambda2")
    return RatePoint(spec["lambda1"], spec["lambda2"])


def cmd_region(spec: dict) -> tuple[list[dict], dict, int]:
    if spec["points"] > MAX_POINTS:
        raise UsageError(f"points must be <= {MAX_POINTS}")
    params = params_from_spec(spec)
    reg = region_for_params(params)
    pts = trace_boundary(reg, spec["points"])
    rows = [{"lambda1": p.lambda1, "lambda2": p.lambda2} for p in pts]
    meta = {
        "profile": _profile_meta(reg.profile),
        "corner": [reg.profile.p1_both, reg.profile.p2_both],
    }
    return rows, meta, EXIT_OK


def cmd_check(spec: dict) -> tuple[list[dict], dict, int]:
    params = params_from_spec(spec)
    reg = region_for_params(params)
    point = _require_rates(spec)
    verdict = membership(reg, point)
    rows = [{"lambda1": point.lambda1, "lambda2": point.lambda2, "membership": verdict}]
    return rows, {"profile": _profile_meta(reg.profile)}, EXIT_OK


def cmd_simulate(spec: dict) -> tuple[list[dict], dict, int]:
    params = params_from_spec(spec)
    cfg = SimConfig(
        arrivals=_require_rates(spec), params=params, horizon=spec["horizon"],
        warmup=spec["warmup"], seed=spec["seed"],
        dominant_mode=DominantMode(spec["dominant"]),
    )
    r = run(cfg)
    row = {
        "lambda1": cfg.arrivals.lambda1, "lambda2": cfg.arrivals.lambda2,
        "mean_queue1": r.mean_queue[0], "mean_queue2": r.mean_queue[1],
        "final_queue1": r.final_queue[0], "final_queue2": r.final_queue[1],
        "success_rate1": r.success_rate[0], "success_rate2": r.success_rate[1],
        "departure_rate1": r.departure_rate[0], "departure_rate2": r.departure_rate[1],
        "empty_fraction1": r.empty_fraction[0], "empty_fraction2": r.empty_fraction[1],
        "drift_slope1": r.drift_slope[0], "drift_slope2": r.drift_slope[1],
        "verdict1": r.verdict[0], "verdict2": r.verdict[1],
        "arrivals1": r.arrivals_total[0], "arrivals2": r.arrivals_total[1],
        "departures1": r.departures_total[0], "departures2": r.departures_total[1],
    }
    return [row], {}, EXIT_OK


def _axis_range(intercept: float) -> float:
    # Stretch past the frontier so the outside shows up; rates stay Bernoulli-feasible.
    return 1.0 if intercept <= 0.0 else min(1.0, 1.2 * intercept)


def cmd_sweep(spec: dict) -> tuple[list[dict], dict, int]:
    if not 2 <= spec["grid"] <= MAX_GRID:
        raise UsageError(f"grid resolution must lie in [2, {MAX_GRID}]")
    if spec["workers"] > MAX_WORKERS:
        raise UsageError(f"workers must be <= {MAX_WORKERS}")
    params = params_from_spec(spec)
    reg = region_for_params(params)
    lam1 = np.linspace(0.0, _axis_range(reg.profile.p1_solo), spec["grid"])
    lam2 = np.linspace(0.0, _axis_range(reg.profile.p2_solo), spec["grid"])
    codes = membership_grid(reg, lam1[:, None], lam2[None, :])
    names = {1: Membership.INSIDE, 0: Membership.BOUNDARY, -1: Membership.OUTSIDE}

    simulate = bool(spec["simulate"])
    results = {}
    if simulate:
        cfgs, keys = [], []
        for i, l1 in enumerate(lam1):
            for j, l2 in enumerate(lam2):
                cfgs.append(SimConfig(
                    arrivals=RatePoint(float(l1), float(l2)), params=params,
                    horizon=spec["horizon"], warmup=spec["warmup"],
                    seed=spec["seed"] + 1009 * (i * len(lam2) + j),
                ))
                keys.append((i, j))
        for key, res in zip(keys, run_batch(cfgs, workers=spec["workers"])):
            results[key] = res

    rows = []
    disagreements = 0
    for i, l1 in enumerate(lam1):
        for j, l2 in enumerate(lam2):
            m = names[int(codes[i, j])]
            row = {"lambda1": float(l1), "lambda2": float(l2), "membership": m}
            if simulate:
                r = results[(i, j)]
                sys_v = system_verdict(r.verdict)
                radius = math.hypot(l1, l2)
                if radius == 0.0:
                    in_band = False
                else:
                    bscale = boundary_scale(reg, math.degrees(math.atan2(l2, l1)))
                    in_band = bscale <= 0.0 or abs(radius / bscale - 1.0) <= BAND_HALFWIDTH
                agree = (m is Membership.INSIDE and sys_v is Verdict.STABLE) or (
                    m is Membership.OUTSIDE and sys_v is Verdict.UNSTABLE
                )
                if not in_band and m is not Membership.BOUNDARY and not agree:
                    disagreements += 1
                row.update({
                    "verdict1": r.verdict[0], "verdict2": r.verdict[1],
                    "system_verdict": sys_v, "in_band": in_band, "agree": agree,
                })
            rows.append(row)
    meta = {"profile": _profile_meta(reg.profile)}
    if simulate:
        meta["disagreements_excluding_band"] = disagreements
        meta["band_halfwidth"] = BAND_HALFWIDTH
    return rows, meta, EXIT_OK


def cmd_compare_boundary(spec: dict) -> tuple[list[dict], dict, int]:
    params = params_from_spec(spec)
    reg = region_for_params(params)
    rows = []
    for k, angle in enumerate(spec["angles"]):
        scale = boundary_scale(reg, angle)
        c = math.cos(math.radians(angle))
        s = math.sin(math.radians(angle))
        emp = estimate_boundary(
            params, angle, spec["steps"], horizon=spec["horizon"],
            seed=spec["seed"] + 104729 * k,
        )
        rows.append({
            "angle_deg": float(angle),
            "analytic_lambda1": scale * c, "analytic_lambda2": scale * s,
            "empirical_lambda1": emp.lambda1, "empirical_lambda2": emp.lambda2,
            "delta_lambda1": emp.lambda1 - scale * c,
            "delta_lambda2": emp.lambda2 - scale * s,
        })
    return rows, {"profile": _profile_meta(reg.profile)}, EXIT_OK


def cmd_mc_verify(spec: dict) -> tuple[list[dict], dict, int]:
    if spec["draws"] < 10_000:
        raise UsageError("mc-verify needs --draws >= 10000")
    params = params_from_spec(spec)
    closed = build_profile(params)
    names = ("p1_solo", "p2_solo", "p1_both", "p2_both")
    if params.decoding is Decoding.GENERIC:
        rows = [
            {"entry": n, "closed_form": getattr(closed, n),
             "mc_estimate": None, "stderr": None, "z": None}
            for n in names
        ]
        return rows, {"profile": _profile_meta(closed), "note": "generic profile: no channel model to sample"}, EXIT_OK
    est = mc_estimate_profile(params, spec["draws"], spec["seed"])
    rows = []
    worst = 0.0
    for name in names:
        p = getattr(closed, name)
        phat = getattr(est, name)
        se = math.sqrt(p * (1.0 - p) / spec["draws"])
        if se == 0.0:
            z = 0.0 if phat == p else math.inf
        else:
            z = (phat - p) / se
        worst = max(worst, abs(z))
        rows.append({"entry": name, "closed_form": p, "mc_estimate": phat,
                     "stderr": se, "z": z})
    status = EXIT_VERIFICATION if worst > 4.0 else EXIT_OK
    return rows, {"profile": _profile_meta(closed), "max_abs_z": worst}, status


_HANDLERS = {
    "region": cmd_region,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare-boundary": cmd_compare_boundary,
    "mc-verify": cmd_mc_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = resolve_spec(args)
        rows, meta, status = _HANDLERS[args.command](spec)
        if spec["out"] is None:
            write_output(rows, meta, spec, sys.stdout)
        else:
            try:
                with open(spec["out"], "w") as fh:
                    write_output(rows, meta, spec, fh)
            except OSError as exc:
                print(f"error: cannot write output to {spec['out']!r}: {exc}", file=sys.stderr)
                return EXIT_IO
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
