import sys

import numpy as np
import pytest

from cvcat.states import GridSpec, WaveFunction

try:
    from hypothesis import settings
except ImportError:   # the property tests skip themselves
    pass
else:
    # Every run of the suite draws the same examples, and no example
    # database carries failures from one run into the next.
    settings.register_profile("cvcat", derandomize=True, database=None)
    settings.load_profile("cvcat")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("tests.test_acceptance") \
        or sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def state_from_record():
    """The state in a `cvcat state`/`gate` JSON record, rebuilt the way the
    README shows; the WaveFunction constructor checks its norm."""
    def rebuild(rec):
        return WaveFunction(GridSpec(rec["x_min"], rec["x_max"], rec["n_points"]),
                            np.array(rec["re"]) + 1j * np.array(rec["im"]),
                            label=rec["label"])
    return rebuild


@pytest.fixture(scope="module")
def mp():
    """mpmath at 30 significant digits: a reference that shares no code with
    cvcat's Airy function or its quadrature."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


@pytest.fixture(scope="module")
def reference_integral(mp):
    """Integral of exp(i x(delta + gamma x^2) - (s x)^2 / 2) over the real line.

    Closed form for gamma > 0: 2 pi (3 gamma)^(-1/3) e^E Ai(z), with
    E = s^2/(6 gamma) (delta + s^4/(18 gamma)) and
    z = (3 gamma)^(-1/3) (delta + s^4/(12 gamma)). E and the log of Ai(z)
    are each about K = s^6/(108 gamma^2) and cancel, so the working
    precision is raised by log10(K) digits. At gamma = 0 it is the Gaussian
    sqrt(2 pi)/s exp(-delta^2/(2 s^2)).
    """
    def integral(delta, gamma, s):
        d, g, s = mp.mpf(delta), mp.mpf(gamma), mp.mpf(s)
        if g == 0:
            return complex(mp.sqrt(2 * mp.pi) / s * mp.exp(-(d / s) ** 2 / 2))
        extra = max(0, int(mp.log10(s ** 6 / (108 * g ** 2))) + 1)
        with mp.extradps(extra):
            scale = (3 * g) ** (-mp.mpf(1) / 3)
            exp_arg = s ** 2 / (6 * g) * (d + s ** 4 / (18 * g))
            z = scale * (d + s ** 4 / (12 * g))
            return complex(2 * mp.pi * scale * mp.exp(exp_arg) * mp.airyai(z))
    return integral
