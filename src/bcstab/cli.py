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
5 verification failure (a closed form the Monte Carlo contradicts, or a
boundary search that cannot bracket the frontier).
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import sys
from dataclasses import asdict, fields
from enum import Enum
from functools import lru_cache

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
from .sim import (
    DominantMode,
    EstimationFailureError,
    SimConfig,
    SimResult,
    Verdict,
    _POOL_HORIZON,
    batch_verdicts,
    estimate_boundary,
    run,
    system_verdict,
)

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
# holds horizon-sized arrays); larger requests, and fewer than one worker,
# are usage errors, rejected before anything is allocated. The simulation horizon is bounded by
# ``sim.MAX_HORIZON``.
MAX_GRID = 1000
MAX_POINTS = 100_000
MAX_WORKERS = 64

# Most bisection steps per compare-boundary ray: after about 53 halvings the
# midpoint of a bracket in (0, sqrt(2)] equals one of its ends, so further
# steps change nothing and only cost simulations.
MAX_STEPS = 64

# glibc's mallopt options for the heap's mmap and trim thresholds, and the
# value main pins both to, 1 GiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_PIN_BYTES = 1 << 30


class UsageError(Exception):
    pass


# Every option as spec key -> (default, kind, help), in the spec's key order.
# The kind is a type or the tuple of allowed strings. A key's flag is the key
# with dashes; the thresholds' flags take dB (``--gamma1-db``) and list flags
# a comma-separated string, while a config file gives linear thresholds and
# JSON arrays. Options from ``lambda1`` on are listed under simulation / output.
_OPTIONS = {
    "scheme": ("ian", ("generic", "ian", "sc"), None),
    "power": ("fixed", ("fixed", "adaptive"), None),
    "gamma1": (0.5, float, "SNR/SINR threshold of user 1, dB"),
    "gamma2": (0.5, float, "SNR/SINR threshold of user 2, dB"),
    "d1": (1.0, float, None),
    "d2": (1.0, float, None),
    "alpha": (2.0, float, "pathloss exponent"),
    "p_total": (2.0, float, None),
    "p1": (None, float, None),
    "p2": (None, float, None),
    "profile": (None, list, "generic scheme: p1_solo,p2_solo,p1_both,p2_both"),
    "lambda1": (None, float, None),
    "lambda2": (None, float, None),
    "horizon": (200_000, int, None),
    "warmup": (None, int, None),
    "seed": (1, int, None),
    "dominant": ("none", ("none", "queue1", "queue2"), None),
    "grid": (50, int, "sweep resolution per axis"),
    "points": (100, int, "boundary points for region tracing"),
    "format": ("csv", ("csv", "json"), None),
    "out": (None, str, "output path (default stdout)"),
    "draws": (1_000_000, int, "mc-verify: fading draws (>= 10000)"),
    "simulate": (False, bool, "sweep: run the simulator at each grid point"),
    "angles": ([45.0], list, "compare-boundary: comma-separated degrees"),
    "steps": (12, int, "compare-boundary: bisection steps"),
    "workers": (1, int,
                f"sweep: most simulator threads, each taking strips of cells; "
                f"runs under {_POOL_HORIZON} slots use one"),
}


# The thresholds, whose flags take dB.
_DB_KEYS = ("gamma1", "gamma2")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value_ok(key: str, value) -> bool:
    # Config-file values bypass argparse, so their types are checked here.
    default, kind, _ = _OPTIONS[key]
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind is list:
        return isinstance(value, list) and all(_is_number(v) for v in value)
    if kind in (bool, str):
        return isinstance(value, kind)
    return _is_number(value) and (kind is float or isinstance(value, int))


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidParameterError(f"{db} dB is out of floating-point range") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("system parameters")
    group.add_argument("--config", help="JSON file with any of the flag values (linear gammas)")
    for key, (_, kind, help_text) in _OPTIONS.items():
        if key == "lambda1":
            group = common.add_argument_group("simulation / output")
        flag = "--" + key.replace("_", "-") + ("-db" if key in _DB_KEYS else "")
        if isinstance(kind, tuple):
            how = {"choices": kind}
        elif kind is bool:
            how = {"action": "store_const", "const": True}
        else:  # the metavar stays the flag's own name, GAMMA1_DB included
            how = {"type": None if kind is list else kind,
                   "metavar": flag[2:].replace("-", "_").upper()}
        group.add_argument(flag, dest=key, help=help_text, **how)

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


# parse_args leaves the parser untouched, so one process builds it once: a
# build costs several times a parse.
_cached_parser = lru_cache(maxsize=1)(build_parser)


def resolve_spec(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags into one spec dict."""
    spec = {key: default for key, (default, _, _) in _OPTIONS.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise UsageError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - set(_OPTIONS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _config_value_ok(key, value):
                raise UsageError(f"config key {key!r} has an invalid value {value!r}")
        spec.update(raw)
    for key, (_, kind, _) in _OPTIONS.items():
        value = getattr(args, key)
        if value is None:
            continue
        if kind is list:
            try:
                value = [float(tok) for tok in value.split(",") if tok.strip()]
            except ValueError:
                raise UsageError(f"{value!r} is not a comma-separated list of numbers") from None
        elif key in _DB_KEYS:
            value = db_to_linear(value)
        spec[key] = value

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
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _jsonable(value):
    if isinstance(value, Enum):
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
        "profile": asdict(reg.profile),
        "corner": [reg.profile.p1_both, reg.profile.p2_both],
    }
    return rows, meta, EXIT_OK


def cmd_check(spec: dict) -> tuple[list[dict], dict, int]:
    params = params_from_spec(spec)
    reg = region_for_params(params)
    point = _require_rates(spec)
    verdict = membership(reg, point)
    rows = [{"lambda1": point.lambda1, "lambda2": point.lambda2, "membership": verdict}]
    return rows, {"profile": asdict(reg.profile)}, EXIT_OK


def cmd_simulate(spec: dict) -> tuple[list[dict], dict, int]:
    params = params_from_spec(spec)
    cfg = SimConfig(
        arrivals=_require_rates(spec), params=params, horizon=spec["horizon"],
        warmup=spec["warmup"], seed=spec["seed"],
        dominant_mode=DominantMode(spec["dominant"]),
    )
    r = run(cfg)
    row = {"lambda1": cfg.arrivals.lambda1, "lambda2": cfg.arrivals.lambda2}
    for f in fields(SimResult):
        if f.name not in ("config", "trajectory"):
            for k, value in enumerate(getattr(r, f.name), 1):
                row[f"{f.name.removesuffix('_total')}{k}"] = value
    return [row], {}, EXIT_OK


def _axis_range(intercept: float) -> float:
    # Stretch past the frontier so the outside shows up; rates stay Bernoulli-feasible.
    return 1.0 if intercept <= 0.0 else min(1.0, 1.2 * intercept)


def cmd_sweep(spec: dict) -> tuple[list[dict], dict, int]:
    if not 2 <= spec["grid"] <= MAX_GRID:
        raise UsageError(f"grid resolution must lie in [2, {MAX_GRID}]")
    if not 1 <= spec["workers"] <= MAX_WORKERS:
        raise UsageError(f"workers must lie in [1, {MAX_WORKERS}]")
    params = params_from_spec(spec)
    reg = region_for_params(params)
    lam1 = np.linspace(0.0, _axis_range(reg.profile.p1_solo), spec["grid"])
    lam2 = np.linspace(0.0, _axis_range(reg.profile.p2_solo), spec["grid"])
    codes = membership_grid(reg, lam1[:, None], lam2[None, :])
    names = {1: Membership.INSIDE, 0: Membership.BOUNDARY, -1: Membership.OUTSIDE}

    axes = (lam1.tolist(), lam2.tolist())
    simulate = bool(spec["simulate"])
    verdicts = itertools.repeat(None)
    if simulate:
        verdicts = batch_verdicts([
            SimConfig(arrivals=RatePoint(l1, l2), params=params, horizon=spec["horizon"],
                      warmup=spec["warmup"], seed=spec["seed"])
            for l1, l2 in itertools.product(*axes)
        ], workers=spec["workers"])

    rows = []
    disagreements = 0
    for (l1, l2), code, v in zip(itertools.product(*axes), codes.ravel().tolist(), verdicts):
        m = names[code]
        row = {"lambda1": l1, "lambda2": l2, "membership": m}
        if simulate:
            sys_v = system_verdict(v)
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
                "verdict1": v[0], "verdict2": v[1],
                "system_verdict": sys_v, "in_band": in_band, "agree": agree,
            })
        rows.append(row)
    meta = {"profile": asdict(reg.profile)}
    if simulate:
        meta["disagreements_excluding_band"] = disagreements
        meta["band_halfwidth"] = BAND_HALFWIDTH
    return rows, meta, EXIT_OK


def cmd_compare_boundary(spec: dict) -> tuple[list[dict], dict, int]:
    if spec["steps"] > MAX_STEPS:
        raise UsageError(f"steps must be <= {MAX_STEPS}")
    params = params_from_spec(spec)
    reg = region_for_params(params)
    # boundary_scale checks every angle before the first ray draws its path
    scales = [boundary_scale(reg, angle) for angle in spec["angles"]]
    rows = []
    for k, (angle, scale) in enumerate(zip(spec["angles"], scales)):
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
    return rows, {"profile": asdict(reg.profile)}, EXIT_OK


def cmd_mc_verify(spec: dict) -> tuple[list[dict], dict, int]:
    if spec["draws"] < 10_000:
        raise UsageError("mc-verify needs --draws >= 10000")
    params = params_from_spec(spec)
    closed = asdict(build_profile(params))
    if params.decoding is Decoding.GENERIC:
        rows = [{"entry": name, "closed_form": p, "mc_estimate": None, "stderr": None, "z": None}
                for name, p in closed.items()]
        return rows, {"profile": closed, "note": "generic profile: no channel model to sample"}, EXIT_OK
    est = mc_estimate_profile(params, spec["draws"], spec["seed"])
    rows = []
    worst = 0.0
    for (name, p), phat in zip(closed.items(), asdict(est).values()):
        se = math.sqrt(p * (1.0 - p) / spec["draws"])
        if se == 0.0:
            z = 0.0 if phat == p else math.inf
        else:
            z = (phat - p) / se
        worst = max(worst, abs(z))
        rows.append({"entry": name, "closed_form": p, "mc_estimate": phat,
                     "stderr": se, "z": z})
    status = EXIT_VERIFICATION if worst > 4.0 else EXIT_OK
    return rows, {"profile": closed, "max_abs_z": worst}, status


_HANDLERS = {
    "region": cmd_region,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare-boundary": cmd_compare_boundary,
    "mc-verify": cmd_mc_verify,
}


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds at ``_HEAP_PIN_BYTES``, so that
    a run's arrays of a few MB are reused from the heap. Left dynamic, the
    mmap threshold rises only when a mapped block is freed, so whether such
    arrays are mapped, page-faulted and unmapped on every call depends on
    the process's history: a grid-7 ``sweep --simulate`` of 20k-slot runs,
    called repeatedly in one process, made 2422 minor page faults per call
    unpinned and 1 pinned. A no-op where libc has no ``mallopt``; only the
    command line sets it, never an import of the library."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for option in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(option, _HEAP_PIN_BYTES)


def main(argv: list[str] | None = None) -> int:
    _pin_heap()
    args = _cached_parser().parse_args(argv)
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
    except EstimationFailureError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
