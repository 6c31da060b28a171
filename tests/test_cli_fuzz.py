"""CLI fuzz: any config of any command but verify, well formed or not, ends
in a documented exit code (0, 1 or 64) and never raises out of main. Sizes
are capped (grid_points <= 4096, n_boundary <= 512, nx and np <= 64, at
most 8 sweep rows) so each example stays cheap."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from cvcat.cli import _COMMANDS, _FLAGS, main

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SIZE_CAPS = {"grid_points": 4096, "n_boundary": 512, "nx": 64, "np": 64}
COMMANDS = ["state", "gate", "wigner", "sweep-infidelity", "sweep-probability",
            "support-region"]
EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf,
               -math.inf)


def floats():
    return st.one_of(st.floats(-100.0, 100.0), st.sampled_from(EDGE_FLOATS))


def joined(*parts):
    return st.tuples(*parts).map(lambda values: ":".join(map(str, values)))


# the string flags, as their parsers read them; a db_range of two parts
# means 60 rows, so it is left to the pinned examples
STRINGS = {
    "bounds": joined(*[floats()] * 4),
    "db_range": st.one_of(
        joined(floats(), floats(), st.integers(-3, 8)),
        joined(st.floats(0.0, 10.0), st.floats(10.0, 30.0), st.integers(2, 8))),
    "outputs": st.lists(st.sampled_from(
        ["infidelity", "probability", "wln", "efficiency", "bogus", " "]),
        max_size=3).map(",".join),
}


def typed_values(key):
    """Values of the type the flag gives: its choices, numbers near and far
    from the defaults, non-finite ones included, or the parts of a string
    flag."""
    flag = _FLAGS[key]
    if "choices" in flag:
        return st.sampled_from(flag["choices"])
    if flag.get("type", str) is float:
        return floats()
    if key in STRINGS:
        return STRINGS[key]
    return st.integers(-3, SIZE_CAPS.get(key, 10 ** 6))


def values_for(key):
    """Mostly values of the flag's type; otherwise any JSON value."""
    any_json = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.lists(st.integers(0, 3), max_size=2),
                         st.integers(-3, 10 ** 6), st.floats())
    return st.one_of(typed_values(key), typed_values(key), typed_values(key),
                     any_json)


def configs(command):
    """Keys whose default is over its size cap are always drawn; the db
    range and the axis sizes come from their typed values only."""
    keys = [key for key in _COMMANDS[command][2] if key != "out"]
    capped = {"nx", "np", "db_range"} & set(keys)
    return st.fixed_dictionaries(
        {key: typed_values(key) for key in capped},
        optional={key: values_for(key) for key in keys if key not in capped})


@settings(max_examples=200, deadline=None)
# values that once escaped main: the wrong type, or an overflow on the way
@example(("gate", {"ym": None}), "")
@example(("state", {"grid_points": 64.5}), "")
@example(("state", {"db": 1e300}), "")
@example(("state", {"gamma": math.inf}), "")
@example(("state", {"db": 6000.0}), "")   # the cubic state on +-1e301
@example(("gate", {"ym": 1e300}), "")
@example(("support-region", {"sigma_level": 1e300}), "")
@example(("support-region", {"n_boundary": 10**12}), "")
# malformed number lists, and output paths in a missing directory
@example(("wigner", {"bounds": "a:b:c:d", "nx": 8, "np": 8}), "")
@example(("sweep-probability", {"db_range": "a:b"}), "")
@example(("sweep-probability", {"db_range": "0:1:x"}), "")
@example(("state", {}), "missing")
# found by this fuzz: an infinite dB bound, and a P that overflows
@example(("sweep-infidelity", {"db_range": "0.0:inf:2"}), "")
@example(("sweep-infidelity", {"db_range": "-89.0:-1.0:7"}), "")
# a sweep given a gamma, which it scans at instead of y_m/30
@example(("sweep-probability", {"gamma": 0.2, "db_range": "0:20:5"}), "")
@given(st.sampled_from(COMMANDS).flatmap(
    lambda command: st.tuples(st.just(command), configs(command))),
    st.sampled_from(["", "", "", "missing"]))
def test_any_config_ends_in_a_documented_exit_code(case, out_dir):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / out_dir
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path),
                         "--dump-config", str(out / "dumped.json"),
                         "--out", str(out / "out")])
    assert code in (0, 1, 64)
