"""The benchmark's traced run patches named functions on cvcat's modules
(``perfbench/tracing.py``'s ``TARGETS``), and its counters read the
attributes of what those functions take and return. A refactor that drops
or renames one of those names would break the traced run; these tests catch
it here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cvcat import analysis, cli, gate, oracle, states

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [(module, attr) for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracing.TARGETS
    assert missing == []


def test_counters_read_the_traced_layers(tmp_path):
    """The counters read WaveFunction attributes (n_points, x_min, x_max)
    and sweep rows; one small call of each such layer, traced, gives the
    expected counts. The sweep's 1/s = 1 row fails: at y_m = 40 and
    gamma = 0.01 its P is below the probability floor."""
    tracer = load_tracing().Tracer()
    params = states.GateParams(gamma=0.1, s=1.0, y_m=3.0)
    with tracer.installed():
        a = states.make_squeezed_vacuum(1.0, states.GridSpec(-8.0, 8.0, 64))
        b = states.make_squeezed_vacuum(1.0, states.GridSpec(-9.0, 9.0, 80))
        analysis.fidelity(a, a)
        analysis.fidelity(b, b)
        oracle.oracle_two_mode(a, params)
        gate.apply_gate(a, params)
        assert cli.main(["sweep-probability", "--db-range=0:20:3",
                         "--ym", "40", "--gamma", "0.01", "--grid-points", "128",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
    totals, _ = tracer.take()
    assert totals["gate.apply_gate"]["calls"] == 1
    # one apply_gate; the sweep's three rows share one factor call
    assert totals["gate.added_factor_grid"]["calls"] == 1
    assert totals["gate.added_factor_grid"]["points"] == 64
    assert totals["analysis.run_sweep"]["calls"] == 1
    assert totals["analysis.run_sweep"]["rows"] == 3
    assert totals["analysis.run_sweep"]["failed_rows"] == 1
    # a and b, then the sweep's one vacuum
    assert totals["states.constructors"]["calls"] == 3
    assert totals["states.constructors"]["points"] == 64 + 80 + 128
    assert totals["analysis.fidelity"]["calls"] == 2
    # fidelity refuses states on two grids, so it never resamples
    assert totals["analysis.fidelity"]["resampled"] == 0
    n_ancilla = oracle.ancilla_grid_for(params, 64).n_points
    assert totals["oracle.oracle_two_mode"]["entries"] == 64 * n_ancilla
    assert totals["oracle.oracle_two_mode"]["points"] == 64


def test_airy_counters_see_every_gate_point(monkeypatch):
    """Three outcomes: z crossing both Airy edges, z = -9 and 9, z wholly
    at or above 9, and z wholly at or below -9. The gate makes one airy_ai
    call with the points below z = 9, none when there are none, and the
    traced Airy points add up to them. The points at and above it take the
    factor's own asymptotic form, with no Airy call."""
    calls = []
    for name in ("airy_ai", "airy_ai_scaled"):
        def spy(z, fn=getattr(gate, name), name=name):
            calls.append((name, np.size(z)))
            return fn(z)
        monkeypatch.setattr(gate, name, spy)
    vacuum = states.make_squeezed_vacuum(1.0, states.GridSpec(-10.0, 10.0, 2048))
    gamma, s = 0.1, 1.0
    for y_m in (0.0, -16.0, 17.0):
        z = (3.0 * gamma) ** (-1.0 / 3.0) * (vacuum.x - y_m + s ** 4 / (12.0 * gamma))
        assert {0.0: z.min() < -9.0 and z.max() > 9.0, -16.0: z.min() >= 9.0,
                17.0: z.max() <= -9.0}[y_m]
        n_low = int(np.count_nonzero(z < 9.0))
        calls.clear()
        tracer = load_tracing().Tracer()
        with tracer.installed():
            gate.outcome_probability_density(vacuum, gamma, s, y_m)
        totals, _ = tracer.take()
        assert totals["special_numerics.airy"]["calls"] == (1 if n_low else 0)
        assert totals["special_numerics.airy"]["points"] == n_low
        assert calls == ([("airy_ai", n_low)] if n_low else [])
