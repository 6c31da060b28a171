"""Command-line front end: reproducible figure-data generators.

Squeezing is specified in dB (s = 10^(-dB/20)); CSV is the default output
format, JSON carries full metadata. Identical argv and config produce
byte-identical output files. The library returns values; this module
writes every CSV and JSON document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections import Counter

import numpy as np

from . import __version__
from .analysis import VERIFY_TOLERANCE, SweepRow, SweepSpec, db_to_s, \
    run_sweep, run_verification
from .errors import CvcatError, DomainError
# added_factor and oracle_added_factor are bound here only for the tracer:
# perfbench/tracing.py patches cvcat.cli.<name>, though nothing here calls them
from .gate import added_factor, apply_gate
from .oracle import oracle_added_factor
from .phase_space import build_support_region, suggest_wigner_bounds, \
    wigner_transform
from .states import MAX_GRID_POINTS, GateParams, GridSpec, \
    cat_params_from_gate, default_grid, make_cubic_phase_state, \
    make_ideal_cat, make_squeezed_vacuum

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _axis_points(text: str) -> int:
    """argparse type for Wigner axis sizes: an integer of at least 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 points, got {value}")
    return value


# Every config key is a flag: "--" plus the key with "_" written as "-".
_FLAGS = {
    "kind": {"choices": ("vacuum", "squeezed", "cubic", "cat")},
    "source": {"choices": ("output", "cubic", "cat", "vacuum")},
    "gamma": {"type": float,
              "help": "cubic deformation coefficient (sweeps: y_m/30 if absent)"},
    "ym": {"type": float, "help": "ancilla momentum outcome"},
    "db": {"type": float, "help": "initial ancilla squeezing in dB"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "out": {"help": "output file path (default: stdout)"},
    "grid_points": {"type": int,
                    "help": "coordinate grid point count (sweeps: from the "
                            "band limit if absent)"},
    "bounds": {"help": "xmin:xmax:pmin:pmax (default: automatic); a list "
                       "that starts with a minus takes the = form, "
                       "--bounds=-6:6:-6:6"},
    "nx": {"type": _axis_points},
    "np": {"type": _axis_points},
    "db_range": {"help": "lo:hi[:n] in dB; a range that starts with a minus "
                         "takes the = form, --db-range=-10:0:3"},
    "outputs": {"help": "comma list of row outputs"},
    "sigma_level": {"type": float},
    "n_boundary": {"type": int},
}


def _config_value(key: str, value, default):
    """A config value as its flag would produce it, or a DomainError naming
    the key. null stands for an absent flag where the default is null."""
    flag = _FLAGS[key]
    kind = flag.get("type", str)
    if value is None and default is None:
        return None
    if "choices" in flag:
        ok, want = value in flag["choices"], f"one of {list(flag['choices'])}"
    elif kind is float:
        ok, want = type(value) in (int, float), "a number"
    elif kind is str:
        ok, want = type(value) is str, "a string"
    else:   # int and _axis_points; the range is checked where it is used
        ok, want = type(value) is int, "an integer"
    if not ok:
        raise DomainError(f"config key {key!r} must be {want}, "
                          f"got {json.dumps(value)}")
    return float(value) if kind is float else value


def _load_config(path: str) -> dict:
    """The JSON object in a --config file, or a DomainError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:   # not UTF-8, or not JSON
        raise DomainError(f"config {path} is not JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise DomainError(f"config {path} must hold a JSON object, got "
                          f"{type(loaded).__name__}")
    return loaded


def _effective_config(args, defaults) -> dict:
    """defaults <- config file <- explicit flags (flags win)."""
    cfg = dict(defaults)
    if args.config is not None:
        loaded = _load_config(args.config)
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        cfg.update((key, _config_value(key, value, defaults[key]))
                   for key, value in loaded.items())
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _emit(text: str, out_path):
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _gate_settings(cfg):
    """The gate settings, the cat they herald and the grid for both."""
    params = GateParams(gamma=cfg["gamma"], s=db_to_s(cfg["db"]), y_m=cfg["ym"])
    cat = cat_params_from_gate(params)
    return params, cat, default_grid(cat.p_plus, cfg["grid_points"])


def _build_state(cfg):
    """A constructed state; only the cat reads gamma and y_m as gate settings."""
    kind = cfg["kind"]
    if kind == "vacuum":
        return make_squeezed_vacuum(1.0, default_grid(0.0, cfg["grid_points"]))
    if kind in ("squeezed", "cubic"):
        s = db_to_s(cfg["db"])
        grid = GridSpec(-10.0 / s, 10.0 / s, cfg["grid_points"])
        if kind == "squeezed":
            return make_squeezed_vacuum(s, grid)
        return make_cubic_phase_state(cfg["gamma"], s, grid)
    return make_ideal_cat(*_gate_settings(cfg)[1:])


def _gate_output(cfg):
    """The gate settings and the gate's output for an input vacuum."""
    params, _, grid = _gate_settings(cfg)
    return params, apply_gate(make_squeezed_vacuum(1.0, grid), params)


def _json(head: dict, **bulk) -> str:
    """A JSON document: the head's fields, the version, then the bulk data."""
    return json.dumps({**head, "version": __version__, **bulk},
                      default=float) + "\n"


def _csv(head: str, values: np.ndarray) -> str:
    """The head line, then one line per row of comma-separated %.17g values:
    the bytes of np.savetxt(..., delimiter=",", fmt="%.17g"), from one
    format string."""
    n_rows, n_cols = values.shape
    row = ",".join(["%.17g"] * n_cols) + "\n"
    return head + "\n" + (row * n_rows) % tuple(values.ravel().tolist())


def _state_csv(wf) -> str:
    amp = wf.amplitudes
    return _csv("x,re,im", np.column_stack([wf.x, amp.real, amp.imag]))


def _state_record(wf) -> dict:
    """The JSON state record {x_min, x_max, n_points, re[], im[], label}."""
    return {"x_min": wf.x_min, "x_max": wf.x_max, "n_points": wf.n_points,
            "re": wf.amplitudes.real.tolist(),
            "im": wf.amplitudes.imag.tolist(), "label": wf.label}


def _rows_csv(rows) -> str:
    """A header of SweepRow's field names, then one line per row in that
    order; an unrequested (NaN) output is an empty cell and the error's
    commas are written as ';'."""
    names = [f.name for f in dataclasses.fields(SweepRow)]

    def fmt(v):
        if isinstance(v, str):
            return v.replace(",", ";")
        return "" if (isinstance(v, float) and math.isnan(v)) else f"{v:.17g}"
    lines = [",".join(names)]
    lines += [",".join(fmt(getattr(r, name)) for name in names) for r in rows]
    return "\n".join(lines) + "\n"


# each _cmd_* returns its output document, which main writes, and exit code
def _cmd_state(cfg) -> tuple[str, int]:
    wf = _build_state(cfg)
    if cfg["format"] == "csv":
        return _state_csv(wf), EXIT_OK
    return json.dumps(_state_record(wf)) + "\n", EXIT_OK


def _cmd_gate(cfg) -> tuple[str, int]:
    params, out = _gate_output(cfg)
    if cfg["format"] == "csv":
        print(f"probability_density {out.probability_density:.17g}",
              file=sys.stderr)
        return _state_csv(out.state), EXIT_OK
    return _json({"probability_density": out.probability_density,
                  "gamma": params.gamma, "s": params.s, "y_m": params.y_m},
                 state=_state_record(out.state)), EXIT_OK


def _cmd_wigner(cfg) -> tuple[str, int]:
    if cfg["source"] == "output":
        state = _gate_output(cfg)[1].state
    else:
        state = _build_state({**cfg, "kind": cfg["source"]})
    if cfg["bounds"] is not None:
        try:
            bounds = tuple(float(v) for v in str(cfg["bounds"]).split(":"))
        except ValueError:
            bounds = ()
        if len(bounds) != 4:
            raise DomainError("--bounds must be xmin:xmax:pmin:pmax, got "
                              f"{cfg['bounds']!r}")
    else:
        bounds = suggest_wigner_bounds(state)
    w = wigner_transform(state, bounds, cfg["nx"], cfg["np"])
    if cfg["format"] == "csv":
        return _csv(f"{w.x_min!r},{w.x_max!r},{w.p_min!r},{w.p_max!r},"
                    f"{w.n_x},{w.n_p}", w.values), EXIT_OK
    return _json({"x_min": w.x_min, "x_max": w.x_max, "p_min": w.p_min,
                  "p_max": w.p_max, "n_x": w.n_x, "n_p": w.n_p},
                 values=[list(row) for row in w.values]), EXIT_OK


def _parse_db_range(text: str):
    parts = str(text).split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2]) if len(parts) == 3 else 60
    except ValueError:
        raise DomainError("--db-range must be lo:hi or lo:hi:n, got "
                          f"{text!r}") from None
    # before linspace multiplies by inf, and before a NaN fails hi > lo
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"--db-range needs finite lo and hi, got {text!r}")
    if not (hi > lo and n >= 2):
        raise DomainError("--db-range needs hi > lo and n >= 2")
    if n > MAX_GRID_POINTS:   # before linspace allocates
        raise DomainError(f"--db-range n must be at most {MAX_GRID_POINTS}, "
                          f"got {n}")
    return lo, hi, n


def _cmd_sweep(cfg) -> tuple[str, int]:
    lo, hi, n = _parse_db_range(cfg["db_range"])
    # each dB converts as --db does; a sweep scans 1/s, which overflows
    # first at the top, where s is subnormal
    if not math.isfinite(1.0 / db_to_s(hi)):
        raise DomainError(f"--db-range top {hi!r} dB overflows 1/s; "
                          "a sweep reaches about 6,165 dB")
    inverse_s = tuple(1.0 / db_to_s(db) for db in np.linspace(lo, hi, n).tolist())
    outputs = frozenset(v.strip() for v in cfg["outputs"].split(",") if v.strip())
    spec = SweepSpec(values=inverse_s, y_m=cfg["ym"], gamma=cfg["gamma"],
                     outputs=outputs, n_grid_points=cfg["grid_points"])
    rows = run_sweep(spec)
    code = _report_failed_rows(rows)
    if cfg["format"] == "csv":
        return _rows_csv(rows), code
    rule = "fixed" if spec.gamma is not None else "ym/30"
    return _json({"spec": {"variable": "inverse_s", "db_range": [lo, hi, n],
                           "gamma_rule": rule, "y_m": cfg["ym"],
                           "outputs": sorted(outputs)}},
                 # null, not a non-standard NaN token, marks an unrequested output
                 rows=[{k: None if isinstance(v, float) and math.isnan(v) else v
                        for k, v in vars(r).items()} for r in rows]), code


def _report_failed_rows(rows) -> int:
    """One stderr line when rows failed; a domain exit when all of them did."""
    failed = Counter(r.error.split(":", 1)[0] for r in rows if r.error)
    n_failed = sum(failed.values())
    if not n_failed:
        return EXIT_OK
    kinds = ", ".join(f"{name} {count}" for name, count in sorted(failed.items()))
    print(f"sweep: {len(rows) - n_failed} rows ok, {n_failed} failed ({kinds})",
          file=sys.stderr)
    return EXIT_DOMAIN if n_failed == len(rows) else EXIT_OK


def _cmd_support_region(cfg) -> tuple[str, int]:
    region = build_support_region(db_to_s(cfg["db"]), cfg["gamma"],
                                  cfg["sigma_level"], cfg["n_boundary"])
    if cfg["format"] == "csv":
        return _csv("x,p", region.boundary), EXIT_OK
    return _json({"sigma_level": region.sigma_level},
                 boundary=[list(pt) for pt in region.boundary]), EXIT_OK


def _cmd_verify(_cfg) -> tuple[str, int]:
    worst = run_verification()
    return (f"max relative deviation {worst:.6e} "
            f"(tolerance {VERIFY_TOLERANCE:.0e})\n",
            EXIT_OK if worst <= VERIFY_TOLERANCE else EXIT_DOMAIN)


# command -> (handler, help, defaults); a command takes exactly the flags
# its defaults name, plus --config and --dump-config
_SWEEP = {"gamma": None, "ym": 3.0, "db_range": "0:20:60", "format": "csv",
          "out": None, "grid_points": None}
_COMMANDS = {
    "state": (_cmd_state, "dump a constructed state",
              {"kind": "cubic", "gamma": 0.1, "ym": 3.0, "db": 5.0,
               "format": "json", "grid_points": 2048, "out": None}),
    "gate": (_cmd_gate, "conditional gate output state",
             {"gamma": 0.1, "ym": 3.0, "db": 5.0, "format": "json",
              "grid_points": 2048, "out": None}),
    "wigner": (_cmd_wigner, "Wigner function as a CSV matrix",
               {"source": "output", "gamma": 0.1, "ym": 3.0, "db": 5.0,
                "format": "csv", "grid_points": 2048, "bounds": None,
                "nx": 256, "np": 256, "out": None}),
    "sweep-infidelity": (_cmd_sweep, "infidelity vs squeezing",
                         {**_SWEEP,
                          "outputs": "infidelity,probability,efficiency"}),
    "sweep-probability": (_cmd_sweep, "probability vs squeezing",
                          {**_SWEEP, "outputs": "probability"}),
    "support-region": (_cmd_support_region, "sheared uncertainty ellipse",
                       {"gamma": 0.1, "db": 5.0, "sigma_level": 2.0,
                        "n_boundary": 256, "format": "csv", "out": None}),
    "verify": (_cmd_verify, "closed form vs quadrature oracle",
               {"out": None}),
}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared afterwards."""
    parser = _Parser(prog="cvcat", allow_abbrev=False,
                     description="Conditional cat-state gate simulator")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for key in defaults:
            sub.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        sub.add_argument("--config", help="JSON config file mirroring the flags")
        sub.add_argument("--dump-config",
                         help="write the effective config as JSON and continue")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handler, _, defaults = _COMMANDS[args.command]
    try:
        cfg = _effective_config(args, defaults)
        if args.dump_config is not None:
            _emit(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                  args.dump_config)
        text, code = handler(cfg)
        _emit(text, cfg["out"])
        return code
    except CvcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
