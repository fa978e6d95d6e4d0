"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them while the suite runs).
Stated runtime budgets are asserted alongside the tolerances.
"""

import math
import time

import numpy as np

import bcstab as b
from bcstab import (
    RatePoint,
    SimConfig,
    SuccessProfile,
    SystemParams,
    Verdict,
)
from bcstab.region import boundary_scale, region_for_params

# The three named configurations exercised throughout: symmetric fixed-power
# interference-as-noise, fixed-power layered decoding in its decoupled power
# regime, and queue-adaptive layered decoding.
NAMED = {
    "fixed-ian": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, "ian", "fixed"),
    "fixed-sc": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "fixed"),
    "adaptive-sc": SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 0.5, 1.5, "sc", "adaptive"),
}

GENERAL_PROFILE = SuccessProfile(0.9, 0.8, 0.3, 0.5)


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_params(rng, scheme=None, power=None):
    scheme = scheme or rng.choice(["ian", "sc"])
    power = power or rng.choice(["fixed", "adaptive"])
    d1, d2 = sorted(rng.uniform(0.5, 2.0, size=2)) if scheme == "sc" else rng.uniform(0.5, 2.0, size=2)
    p_total = rng.uniform(1.0, 4.0)
    split = rng.uniform(0.15, 0.85)
    return SystemParams(
        gamma1=float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
        gamma2=float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
        d1=float(d1), d2=float(d2),
        alpha=float(rng.uniform(2.0, 4.0)),
        p_total=float(p_total), p1=float(split * p_total), p2=float((1 - split) * p_total),
        decoding=str(scheme), power_scheme=str(power),
    )


def test_criterion_1_closed_forms_vs_monte_carlo():
    """Every profile entry within 4 binomial standard errors at 1e7 draws."""
    t0 = time.perf_counter()
    draws = 10_000_000
    rng = np.random.default_rng(2024)
    configs = list(NAMED.values()) + [random_params(rng) for _ in range(20)]
    worst = 0.0
    for i, params in enumerate(configs):
        closed = np.array(b.build_profile(params).as_tuple())
        est = np.array(b.mc_estimate_profile(params, draws, seed=500 + i).as_tuple())
        sigma = np.sqrt(closed * (1.0 - closed) / draws)
        z = np.where(sigma > 0, (est - closed) / np.where(sigma > 0, sigma, 1.0), np.where(est == closed, 0.0, np.inf))
        worst = max(worst, float(np.max(np.abs(z))))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 4.0 and elapsed <= 60.0,
            f"23 configs x 4 entries at 1e7 draws: max |z| = {worst:.2f} (limit 4), {elapsed:.1f}s (limit 60s)")


def test_criterion_2_regime_continuity():
    """The two layered-decoding branches agree at the crossover power split."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        g1 = float(rng.uniform(0.05, 3.0))
        g2 = float(rng.uniform(0.05, 3.0))
        d = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(2.0, 4.0))
        p1 = float(rng.uniform(0.1, 3.0))
        p2 = p1 * g2 * (1.0 + g1) / g1
        lo = b.sinr_success(g2, d, alpha, p2, p1)
        hi = b.snr_success(g1, d, alpha, p1)
        at = b.layered_decode_success(g1, g2, d, alpha, p1, p2)
        worst = max(worst, abs(lo - hi), abs(at - lo), abs(at - hi))
    _report(2, worst <= 1e-9, f"50 random crossovers: max branch gap = {worst:.2e} (limit 1e-9)")


def test_criterion_3_corner_coincidence():
    """Both sub-region boundary lines pass through (p1_both, p2_both)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p1s = float(rng.uniform(1e-3, 1.0))
        p2s = float(rng.uniform(1e-3, 1.0))
        prof = SuccessProfile(p1s, p2s,
                              float(rng.uniform(1e-3 * p1s, p1s)),
                              float(rng.uniform(1e-3 * p2s, p2s)))
        reg = b.region_general(prof)
        for part in reg.parts:
            worst = max(worst, abs(part.line_value(reg.corner) - 1.0))
    _report(3, worst <= 1e-9, f"1000 profiles: max |line(corner) - 1| = {worst:.2e} (limit 1e-9)")


def test_criterion_4_decoupled_equivalence():
    """Specialised decoupled region equals the general one on a 100x100 grid."""
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 100)
    mismatches = 0
    for _ in range(20):
        p1s = float(rng.uniform(0.05, 1.0))
        p2s = float(rng.uniform(0.05, 1.0))
        prof = SuccessProfile(p1s, p2s, p1s, float(rng.uniform(0.0, p2s)))
        general = b.membership_grid(b.region_general(prof), grid[:, None], grid[None, :])
        special = b.membership_grid(b.region_fixed_sc_decoupled(prof), grid[:, None], grid[None, :])
        mismatches += int(np.count_nonzero(general != special))
    _report(4, mismatches == 0,
            f"20 profiles x 100x100 grid: {mismatches} membership disagreements (limit 0)")


def test_criterion_5_dominant_system_oracle():
    """Queue-1-dummy simulation reproduces the saturated-queue closed forms."""
    t0 = time.perf_counter()
    params = SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0,
                          decoding="generic", power_scheme="fixed",
                          generic_profile=GENERAL_PROFILE)
    cfg = SimConfig(RatePoint(0.0, 0.25), params, horizon=200_000, seed=42,
                    dominant_mode="queue1")
    r = b.run(cfg)
    err_empty = abs(r.empty_fraction[1] - 0.5) / 0.5
    err_mu1 = abs(r.success_rate[0] - 0.6) / 0.6
    elapsed = time.perf_counter() - t0
    _report(5, err_empty <= 0.02 and err_mu1 <= 0.02 and elapsed <= 5.0,
            f"P(Q2 empty) = {r.empty_fraction[1]:.4f} (target 0.5, rel err {err_empty:.3%}), "
            f"mu1 = {r.success_rate[0]:.4f} (target 0.6, rel err {err_mu1:.3%}), "
            f"{elapsed:.1f}s (limit 5s)")


def test_criterion_6_region_validated_by_simulation():
    """0.9x boundary points simulate stable, 1.1x unstable, on 8 rays per config."""
    t0 = time.perf_counter()
    failures = []
    for name, params in NAMED.items():
        reg = region_for_params(params)
        for k, angle in enumerate(range(10, 90, 10)):
            c = math.cos(math.radians(angle))
            s = math.sin(math.radians(angle))
            scale = boundary_scale(reg, angle)
            for factor, want in ((0.9, Verdict.STABLE), (1.1, Verdict.UNSTABLE)):
                pt = RatePoint(factor * scale * c, factor * scale * s)
                r = b.run(SimConfig(pt, params, horizon=200_000, seed=20_000 + 37 * k))
                got = b.system_verdict(r.verdict)
                if got is not want or Verdict.INCONCLUSIVE in r.verdict:
                    failures.append(f"{name}@{angle}deg x{factor}: {got.value} {[v.value for v in r.verdict]}")
    elapsed = time.perf_counter() - t0
    _report(6, not failures and elapsed <= 120.0,
            f"3 configs x 8 rays x 2 scales: {len(failures)} wrong/inconclusive verdicts "
            f"(limit 0), {elapsed:.1f}s (limit 120s)" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_7_empirical_boundary_agreement():
    """Bisection on simulated verdicts lands within 0.03 of the analytic frontier."""
    worst = 0.0
    for name, params in NAMED.items():
        reg = region_for_params(params)
        scale = boundary_scale(reg, 45.0)
        c = math.cos(math.radians(45.0))
        emp = b.estimate_boundary(params, 45.0, steps=12, seed=7)
        worst = max(worst, abs(emp.lambda1 - scale * c), abs(emp.lambda2 - scale * c))
    _report(7, worst <= 0.03,
            f"45-degree ray, 3 configs: max coordinate gap = {worst:.4f} (limit 0.03)")


def test_empirical_boundary_agreement_on_eight_rays():
    """Criterion 7's bound and seed on 8 rays of 4 configs at 40k slots, where
    many rays meet an inconclusive probe next to the frontier."""
    configs = dict(NAMED, generic=SystemParams(
        0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, decoding="generic", power_scheme="fixed",
        generic_profile=GENERAL_PROFILE))
    gaps = []
    for name, params in configs.items():
        reg = region_for_params(params)
        for angle in range(10, 90, 10):
            scale = boundary_scale(reg, angle)
            emp = b.estimate_boundary(params, angle, steps=12, horizon=40_000, seed=7)
            gaps.append((max(abs(emp.lambda1 - scale * math.cos(math.radians(angle))),
                             abs(emp.lambda2 - scale * math.sin(math.radians(angle)))),
                         f"{name}@{angle}deg"))
    worst, where = max(gaps)
    mean = sum(gap for gap, _ in gaps) / len(gaps)
    print(f"\n4 configs x 8 rays: max coordinate gap = {worst:.4f} at {where} (limit 0.03), "
          f"mean {mean:.4f}")
    assert worst <= 0.03, (worst, where)


def test_criterion_8_pathwise_dominance():
    """Dummy-packet queues dominate the original ones slot by slot."""
    params_cycle = list(NAMED.values()) + [
        SystemParams(0.5, 0.5, 1, 1, 2, 2.0, 1.0, 1.0, decoding="generic",
                     power_scheme="fixed", generic_profile=GENERAL_PROFILE)
    ]
    violations = 0
    for seed in range(20):
        params = params_cycle[seed % len(params_cycle)]
        pt = RatePoint(0.3, 0.3)
        base = b.run(SimConfig(pt, params, horizon=50_000, seed=seed), return_trajectory=True)
        for mode in ("queue1", "queue2"):
            dom = b.run(SimConfig(pt, params, horizon=50_000, seed=seed, dominant_mode=mode),
                        return_trajectory=True)
            violations += int(np.count_nonzero(dom.trajectory < base.trajectory))
    _report(8, violations == 0,
            f"20 coupled runs x 2 dominant modes: {violations} slot-wise ordering violations (limit 0)")


def test_criterion_9_conservation_and_determinism():
    """Exact packet bookkeeping and bit-identical repetition."""
    rng = np.random.default_rng(5)
    bad_conservation = 0
    bad_repeats = 0
    params_cycle = list(NAMED.values())
    for i in range(12):
        params = params_cycle[i % len(params_cycle)]
        cfg = SimConfig(
            RatePoint(float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 0.9))),
            params, horizon=30_000, seed=1000 + i,
        )
        r1 = b.run(cfg)
        r2 = b.run(cfg)
        if r1 != r2:
            bad_repeats += 1
        for q in (0, 1):
            if r1.arrivals_total[q] != r1.departures_total[q] + r1.final_queue[q]:
                bad_conservation += 1
    _report(9, bad_conservation == 0 and bad_repeats == 0,
            f"12 runs: {bad_conservation} conservation breaks, {bad_repeats} non-identical repeats (limit 0)")
