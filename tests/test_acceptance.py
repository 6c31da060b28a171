"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the printed lines carry the
measured quantity next to its tolerance.
"""

import math
import time

import numpy as np

from cvcat.analysis import SweepSpec, db_to_s, fidelity, phase_aligned_l2, \
    run_sweep, run_verification
from cvcat.cli import main
from cvcat.gate import apply_gate, outcome_probability_density
from cvcat.oracle import oracle_two_mode
from cvcat.phase_space import suggest_wigner_bounds, wigner_log_negativity, \
    wigner_transform
from cvcat.special_numerics import airy_ai
from cvcat.states import GateParams, GridSpec, cat_params_from_gate, \
    default_grid, make_cubic_phase_state, make_ideal_cat, make_squeezed_vacuum


REPORT_LINES = []


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    REPORT_LINES.append(line)
    assert ok, line


def gate_output(gamma, db, y_m, n_points=2048):
    params = GateParams(gamma=gamma, s=db_to_s(db), y_m=y_m)
    cat = cat_params_from_gate(params)
    vac = make_squeezed_vacuum(1.0, default_grid(cat.p_plus, n_points))
    return apply_gate(vac, params), cat


def test_criterion_01_closed_form_vs_oracle():
    t0 = time.time()
    worst = run_verification()
    elapsed = time.time() - t0
    report(1, worst <= 1e-8 and elapsed <= 60.0,
           f"max scaled deviation {worst:.3e} (tol 1e-8), {elapsed:.1f}s "
           "(budget 60s)")


def test_criterion_02_end_to_end_oracle():
    t0 = time.time()
    worst_l2 = 0.0
    worst_rel = 0.0
    for gamma, db, y_m in ((0.1, 5.0, 3.0), (0.5, 14.0, 15.0)):
        params = GateParams(gamma=gamma, s=db_to_s(db), y_m=y_m)
        vac = make_squeezed_vacuum(1.0, default_grid(math.sqrt(10.0), 256))
        oracle = oracle_two_mode(vac, params)
        closed = apply_gate(vac, params)
        worst_l2 = max(worst_l2,
                       phase_aligned_l2(closed.state, oracle.state))
        worst_rel = max(worst_rel,
                        abs(closed.probability_density
                            - oracle.probability_density)
                        / oracle.probability_density)
    elapsed = time.time() - t0
    report(2, worst_l2 <= 1e-6 and worst_rel <= 1e-6 and elapsed <= 300.0,
           f"L2 {worst_l2:.3e} (tol 1e-6), P rel {worst_rel:.3e} (tol 1e-6), "
           f"{elapsed:.1f}s (budget 300s)")


def infidelity_curve(y_m, inverse_s_values):
    spec = SweepSpec(values=inverse_s_values, y_m=y_m,
                     outputs=frozenset({"infidelity"}))
    rows = run_sweep(spec)
    assert all(r.error == "" for r in rows)
    return np.array([r.infidelity for r in rows])


def test_criterion_03_infidelity_curves():
    inv_s = tuple(float(v) for v in np.geomspace(1.0, 10.0, 60))
    idx_5 = int(np.argmin(np.abs(np.array(inv_s) - 5.0)))
    plateaus = []
    ok = True
    details = []
    for y_m in (3.0, 3.6, 4.5, 6.0, 9.0, 15.0):
        curve = infidelity_curve(y_m, inv_s)
        drop = curve[0] - curve[-1]
        # knee: first point where 80% of the total drop is realized
        knee = int(np.argmax(curve <= curve[0] - 0.8 * drop))
        monotone = bool(np.all(np.diff(curve[knee:]) <= 1e-9))
        plateau_change = abs(curve[idx_5] - curve[-1])
        flat = plateau_change <= 0.1 * drop
        ok = ok and monotone and flat
        plateaus.append(curve[-1])
        details.append(f"y_m={y_m:g}: plateau {curve[-1]:.2e}, "
                       f"tail change {plateau_change / drop:.1%}")
    ordered = bool(np.all(np.diff(plateaus) < 0.0))
    ok = ok and ordered
    report(3, ok, "; ".join(details) + f"; ordering decreasing: {ordered}")


def probability_law(inverse_s):
    """Leading-order P(y_m) under gamma = y_m/30, up to a constant factor.

    The added factor's prefactor squares to 2s and its exponent to
    exp(-s^2 (y_m - x)/(3 gamma)). Averaged over the vacuum input
    (|x| <~ 1 << y_m) the Ai^2 oscillation leaves a constant, so
    P ~ s exp(-s^2 y_m/(3 gamma)) = s exp(-10 s^2): peak at 1/s = sqrt(20),
    P(1/s=10)/peak = 2/3. Input-averaging corrections are O(1/y_m^2).
    """
    s = 1.0 / np.asarray(inverse_s)
    return s * np.exp(-10.0 * s * s)


def test_criterion_04_probability_curves():
    inv_s = tuple(np.geomspace(1.0, 10.0, 40))
    law = probability_law(inv_s)
    law_peak = int(np.argmax(law))
    law_ratio = law[-1] / law[law_peak]
    ratio_tol = 0.02
    ok = True
    details = []
    gaps = []
    for y_m in (3.0, 6.0, 9.0, 12.0, 15.0):
        spec = SweepSpec(values=inv_s, y_m=y_m,
                         outputs=frozenset({"probability"}))
        rows = run_sweep(spec)
        assert all(r.error == "" for r in rows)
        p = np.array([r.probability_density for r in rows])
        maxima = [i for i in range(1, len(p) - 1)
                  if p[i] > p[i - 1] and p[i] > p[i + 1]]
        peak = int(np.argmax(p))
        falling = bool(np.all(np.diff(p[peak:]) < 0.0))
        ratio = p[-1] / p[peak]
        gaps.append(abs(ratio - law_ratio))
        ok = ok and len(maxima) == 1 and falling \
            and abs(peak - law_peak) <= 1 and gaps[-1] <= ratio_tol
        details.append(f"y_m={y_m:g}: {len(maxima)} interior max at "
                       f"1/s={inv_s[peak]:.3f}, falling after: {falling}, "
                       f"P(1/s=10)/peak = {ratio:.4f}")
        if y_m == 3.0:
            # the same points by the two-mode oracle, which shares no code
            # with the Airy route
            vac = make_squeezed_vacuum(1.0, default_grid(math.sqrt(10.0), 256))
            oracle_rel = max(
                abs(p[i] / oracle_two_mode(vac, GateParams(
                    gamma=0.1, s=1.0 / inv_s[i], y_m=y_m)).probability_density
                    - 1.0)
                for i in (peak, len(p) - 1))
            ok = ok and oracle_rel <= 1e-6
    shrinking = bool(np.all(np.diff(gaps) <= 0.0))
    ok = ok and shrinking
    report(4, ok, "; ".join(details)
           + f" (law s*exp(-10 s^2): one interior max at 1/s="
           f"{inv_s[law_peak]:.3f} +- 1 point, ratio {law_ratio:.4f} "
           f"+- {ratio_tol}; largest gap {max(gaps):.4f}, "
           f"not growing with y_m: {shrinking}; y_m=3 P vs two-mode oracle "
           f"rel {oracle_rel:.1e} (tol 1e-6))")


def test_criterion_05_fidelity_ordering_and_wigner():
    high, cat_high = gate_output(0.5, 14.0, 15.0)
    low, cat_low = gate_output(0.1, 14.0, 3.0)
    f_high = fidelity(high.state, make_ideal_cat(
        cat_high, default_grid(cat_high.p_plus, 2048)))
    f_low = fidelity(low.state, make_ideal_cat(
        cat_low, default_grid(cat_low.p_plus, 2048)))
    checks = [f_high > f_low]
    min_high = None
    for out in (high, low):
        w = wigner_transform(out.state, suggest_wigner_bounds(out.state),
                             256, 256)
        checks.append(abs(w.mass() - 1.0) <= 1e-3)
        checks.append(float(np.max(np.abs(w.values))) <= 1.0 / math.pi + 1e-6)
        if out is high:
            min_high = float(np.min(w.values))
    checks.append(min_high < 0.0)
    report(5, all(checks),
           f"F_high {f_high:.4f} > F_low {f_low:.4f}: {f_high > f_low}; "
           f"masses/bounds ok: {all(checks[1:5])}; min W_high {min_high:.3f}")


def test_criterion_06_db_convention():
    triple = tuple(round(1.0 / db_to_s(db), 2) for db in (5.0, 9.0, 14.0))
    ok = triple == (1.78, 2.82, 5.01)
    report(6, ok, f"(5, 9, 14) dB -> 1/s = {triple} (want (1.78, 2.82, 5.01))")


def test_criterion_07_measurement_completeness():
    s = db_to_s(5.0)
    vac = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 2048))
    y_values = np.arange(-40.0, 40.0 + 1e-9, 0.05)
    p = np.array([outcome_probability_density(vac, 0.1, s, y)
                  for y in y_values])
    total = float(np.trapezoid(p, dx=0.05))
    ok = abs(total - 1.0) <= 1e-3
    report(7, ok, f"integral of P(y_m) over [-40, 40] = {total:.6f} "
           "(want 1 +- 1e-3)")


def test_criterion_08_special_function_suite():
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    origin_ok = abs(airy_ai(0.0) - ai0) <= 1e-10
    h = 1e-3
    worst = 0.0
    for z in np.arange(-10.0, 5.0 + 1e-9, 0.1):
        second = (airy_ai(z + h) - 2.0 * airy_ai(z) + airy_ai(z - h)) / h ** 2
        rhs = z * airy_ai(z)
        worst = max(worst, abs(second - rhs) / max(1.0, abs(rhs)))
    ode_ok = worst <= 1e-6
    report(8, origin_ok and ode_ok,
           f"Ai(0) err {abs(airy_ai(0.0) - ai0):.1e} (tol 1e-10); "
           f"worst ODE residual {worst:.2e} (tol 1e-6)")


def test_criterion_09_wln_monotone_in_gamma():
    s = 1.0 / 2.82
    grid = GridSpec(-24.0, 24.0, 3072)
    wlns = []
    for gamma in (0.05, 0.1, 0.2, 0.5):
        state = make_cubic_phase_state(gamma, s, grid)
        bounds = suggest_wigner_bounds(state)
        n_p = max(256, int((bounds[3] - bounds[2]) / 0.08))
        w = wigner_transform(state, bounds, 256, n_p)
        wlns.append(wigner_log_negativity(w))
    ok = bool(np.all(np.diff(wlns) >= 0.0))
    report(9, ok, "WLN(gamma=0.05, 0.1, 0.2, 0.5) = "
           + ", ".join(f"{v:.3f}" for v in wlns) + " (nondecreasing)")


def test_criterion_10_determinism(tmp_path, capsys):
    dev_a = run_verification()
    dev_b = run_verification()
    verify_ok = dev_a == dev_b
    files = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["sweep-infidelity", "--ym", "3", "--db-range", "0:20:10",
                     "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    capsys.readouterr()
    sweep_ok = files[0] == files[1]
    report(10, verify_ok and sweep_ok,
           f"verify repeat identical: {verify_ok}; "
           f"sweep bytes identical: {sweep_ok}")
