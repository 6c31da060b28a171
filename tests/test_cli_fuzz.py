"""CLI fuzz: any config of state, gate or support-region, well formed or
not, ends in a documented exit code (0, 1 or 64) and never raises out of
main. Sizes are capped (grid_points <= 4096, n_boundary <= 512) so each
example stays cheap."""

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

SIZE_CAPS = {"grid_points": 4096, "n_boundary": 512}
EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf,
               -math.inf)


def typed_values(key):
    """Values of the type the flag gives: its choices, or numbers near and
    far from the defaults, non-finite ones included."""
    flag = _FLAGS[key]
    if "choices" in flag:
        return st.sampled_from(flag["choices"])
    if flag.get("type", str) is float:
        return st.one_of(st.floats(-100.0, 100.0), st.sampled_from(EDGE_FLOATS))
    return st.integers(-3, SIZE_CAPS.get(key, 10 ** 6))


def values_for(key):
    """Mostly values of the flag's type; otherwise any JSON value."""
    any_json = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.lists(st.integers(0, 3), max_size=2),
                         st.integers(-3, 10 ** 6), st.floats())
    return st.one_of(typed_values(key), typed_values(key), typed_values(key),
                     any_json)


def configs(command):
    keys = [key for key in _COMMANDS[command][2] if key != "out"]
    return st.fixed_dictionaries(
        {}, optional={key: values_for(key) for key in keys})


@settings(max_examples=150, deadline=None)
# values that once escaped main: the wrong type, or an overflow on the way
@example(("gate", {"ym": None}))
@example(("state", {"grid_points": 64.5}))
@example(("state", {"db": 1e300}))
@example(("state", {"gamma": math.inf}))
@example(("state", {"grid_half_width": 1e300}))
@example(("gate", {"ym": 1e300}))
@example(("support-region", {"sigma_level": 1e300}))
@given(st.sampled_from(["state", "gate", "support-region"]).flatmap(
    lambda command: st.tuples(st.just(command), configs(command))))
def test_any_config_ends_in_a_documented_exit_code(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 64)
