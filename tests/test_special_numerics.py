import math
import re

import numpy as np
import pytest

from cvcat import oracle, special_numerics
from cvcat.errors import DomainError
from cvcat.oracle import integrate_oscillatory_gaussian
from cvcat.special_numerics import airy_ai, airy_ai_scaled

AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
# The regime seams |z| = 9, the former seams |z| = 4 (kept as test points),
# and points 1e-9 either side of them.
SEAMS = np.array([sign * edge + d for edge in (4.0, 9.0) for sign in (-1.0, 1.0)
                  for d in (-1e-9, 0.0, 1e-9)])
# Every regime, z exactly on the seams |z| = 9 and one ulp either side, in
# ascending order, the order that takes the binary-search route.
ORDERED = np.sort(np.concatenate([
    np.linspace(-30.0, 30.0, 61),
    [np.nextafter(edge, to) for edge in (-9.0, 9.0) for to in (-40.0, 40.0)]]))


def copies(z):
    """Ascending, reversed and shuffled copies of z, each with the
    permutation that restores the ascending order."""
    shuffle = np.random.default_rng(0).permutation(z.size)
    for order in (np.arange(z.size), np.arange(z.size)[::-1], shuffle):
        yield z[order], np.argsort(order)


def layouts(z, point):
    """z ascending, reversed and shuffled, z and its reverse stacked 2-D,
    and point as a 0-d array."""
    return [a for a, _ in copies(z)] + [np.stack([z, z[::-1]]), np.array(point)]


class TestAiryAi:
    def test_value_at_origin(self):
        assert abs(airy_ai(0.0) - AI_ZERO) < 1e-10

    def test_positive_and_decreasing_on_positive_axis(self):
        z = np.linspace(0.0, 30.0, 301)
        vals = airy_ai(z)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_matches_integral_representation(self, mp):
        """Against mpmath's 30-digit Ai, the function that
        (1/pi) * integral_0^inf cos(t^3/3 + z t) dt defines, on
        z = -40..40 at step 0.1 and at the regime seams."""
        z = np.concatenate([np.arange(-400, 401) / 10.0, SEAMS])
        got = airy_ai(z)
        want = np.array([float(mp.airyai(mp.mpf(v))) for v in z])
        err = np.abs(got - want)
        assert np.all(err <= 1e-10 * np.abs(want) + 1e-14), z[np.argmax(err)]

    def test_bridge_matches_reference(self, mp):
        """The 14-term bridge against mpmath's 30-digit Ai on 0 < |z| < 9 at
        step 1/64, which puts points on every anchor and half-way between:
        relative error on z > 0, and error over the envelope
        sqrt(Ai^2 + Bi^2) on z < 0, where Ai has its zeros."""
        z = np.arange(1, 9 * 64) / 64.0
        want = np.array([float(mp.airyai(v)) for v in z])
        err = np.abs(airy_ai(z) - want) / want
        assert np.max(err) <= 1e-14, z[np.argmax(err)]
        z = -z
        want = [mp.airyai(v) for v in z]
        envelope = np.array([float(mp.sqrt(a ** 2 + mp.airybi(v) ** 2))
                             for a, v in zip(want, z)])
        err = np.abs(airy_ai(z) - np.array([float(a) for a in want])) / envelope
        assert np.max(err) <= 1e-14, z[np.argmax(err)]

    def test_batch_matches_scalar_calls(self):
        """A point's value does not depend on the batch it is evaluated in,
        so a scalar added_factor equals its element of the grid."""
        z = np.concatenate([np.linspace(-40.0, 40.0, 97), SEAMS])
        for zs in (z, np.sort(z)):
            batch = airy_ai(zs)
            assert all(batch[i] == airy_ai(float(v)) for i, v in enumerate(zs))
        z = z[z >= 0.0]
        batch = airy_ai_scaled(z)
        assert all(batch[i] == airy_ai_scaled(float(v)) for i, v in enumerate(z))

    def test_ordered_and_masked_routes_agree_to_the_bit(self):
        """An ascending array is split by binary search, a reversed or
        shuffled one by masks; both give the same bits at every point."""
        want = airy_ai(ORDERED).tobytes()
        for z, restore in copies(ORDERED):
            assert airy_ai(z)[restore].tobytes() == want

    def test_seams_take_the_documented_regime(self, monkeypatch):
        """By either route the bridge sees exactly the points with |z| < 9.
        Its values at the anchors z = +-9 equal the asymptotic ones to the
        bit, so only the routing itself shows a seam on the wrong side."""
        bridge = special_numerics._bridge
        seen = []
        monkeypatch.setattr(special_numerics, "_bridge",
                            lambda z: seen.append(z.copy()) or bridge(z))
        inside = ORDERED[np.abs(ORDERED) < 9.0]
        for z, _ in copies(ORDERED):
            seen.clear()
            airy_ai(z)
            assert np.array_equal(np.sort(np.concatenate(seen)), inside)

    def test_masks_put_a_nan_in_the_first_run(self):
        z = np.array([9.0, math.nan, 0.0, -9.0])
        runs = special_numerics._runs(z, special_numerics._SEAMS)
        assert [np.flatnonzero(m).tolist() for m in runs] == [[1, 3], [2], [0]]

    def test_caller_arrays_keep_their_bytes(self):
        """The regimes work in place on temporaries of their own, never on
        the caller's array, which an ordered input passes them as views:
        writable ascending, reversed, shuffled and 2-D arrays come back
        unchanged from airy_ai and, on z >= 0, airy_ai_scaled. The arrays
        are built here, so that no other test's call can have changed them."""
        ordered = np.sort(np.concatenate([np.linspace(-30.0, 30.0, 61),
                                          np.nextafter([-9.0, 9.0], 0.0)]))
        for fn, z in ((airy_ai, ordered), (airy_ai_scaled, ordered[ordered >= 0])):
            arrays = [a for a, _ in copies(z)] + [np.stack([z, z[::-1]])]
            for a in arrays:
                want = a.tobytes()
                assert a.flags.writeable
                fn(a)
                assert a.tobytes() == want, fn.__name__

    def test_ode_residual(self):
        h = 1e-3
        for z in np.arange(-10.0, 5.0 + 1e-9, 0.1):
            second = (airy_ai(z + h) - 2.0 * airy_ai(z) + airy_ai(z - h)) / h ** 2
            rhs = z * airy_ai(z)
            assert abs(second - rhs) <= 1e-6 * max(1.0, abs(rhs))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            airy_ai(math.nan)
        with pytest.raises(DomainError):
            airy_ai(math.inf)

    def test_floor_is_the_last_finite_zeta(self):
        """zeta = (2/3)|z|^(3/2) is finite at _OSC_FLOOR and overflows one
        double below it."""
        floor = special_numerics._OSC_FLOOR
        below = math.nextafter(floor, -math.inf)
        with np.errstate(over="ignore"):
            zeta = special_numerics._zeta(-np.array([floor, below]))
        assert math.isfinite(zeta[0]) and zeta[1] == math.inf
        assert -4.2e205 < floor < -4.1e205

    def test_deep_oscillatory_values_are_finite(self):
        """Between about -7.4e102 and the floor zeta^2 overflows, silently,
        to the right v = -1/zeta^2 = -0; the values stay under the envelope
        |z|^(-1/4)/sqrt(pi), by either route."""
        floor = special_numerics._OSC_FLOOR
        z = np.array([floor, math.nextafter(floor, 0.0), -1e205, -1e103,
                      -7.5e102, -7.3e102])
        for zs in (z, np.sort(z)):
            ai = airy_ai(zs)
            envelope = np.abs(zs) ** -0.25 / math.sqrt(math.pi)
            assert np.all(np.abs(ai) <= envelope)
        assert math.isfinite(airy_ai(-1e103))

    @pytest.mark.parametrize("z", [-1e210, "below", [1.0, -1e210, 2.0],
                                   [-1e210, 1.0]])
    def test_refuses_z_below_the_floor(self, z):
        floor = special_numerics._OSC_FLOOR
        if z == "below":
            z = math.nextafter(floor, -math.inf)
        want = re.escape(f"airy_ai requires finite z >= {floor!r}")
        with pytest.raises(DomainError, match=want):
            airy_ai(z)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "below"])
    def test_refusal_text_in_every_layout(self, bad):
        """A NaN, +-inf or the double below _OSC_FLOOR is refused with one
        text that names the array's min and max, in sorted, reversed,
        shuffled, 0-d and 2-D arrays, while _OSC_FLOOR itself is accepted
        in each of them."""
        floor = special_numerics._OSC_FLOOR
        if bad == "below":
            bad = math.nextafter(floor, -math.inf)
        good = np.sort(np.append(ORDERED, floor))
        for a in layouts(good, floor):
            assert np.isfinite(airy_ai(a)).all()
        for a in layouts(np.sort(np.append(good, bad)), bad):
            with pytest.raises(DomainError) as err:
                airy_ai(a)
            assert str(err.value) == (
                f"airy_ai requires finite z >= {floor!r}, where "
                "(2/3)|z|^(3/2) is finite; got z in "
                f"[{float(a.min())!r}, {float(a.max())!r}]")


class TestAiryAiScaled:
    def test_value_at_origin(self):
        assert abs(airy_ai_scaled(0.0) - AI_ZERO) < 1e-10

    def test_definitional_identity(self):
        for z in np.linspace(0.0, 30.0, 121):
            plain = airy_ai(z)
            recon = airy_ai_scaled(z) * math.exp(-(2.0 / 3.0) * z ** 1.5)
            assert abs(recon - plain) <= 1e-12 * abs(plain)

    def test_matches_high_precision_reference(self, mp):
        """Against mpmath's 30-digit Ai(z) exp((2/3) z^(3/2)) on z = 0..200 at
        step 0.1 and at the seams z = 4 and z = 9."""
        z = np.concatenate([np.arange(0, 2001) / 10.0, SEAMS[SEAMS > 0.0]])
        got = airy_ai_scaled(z)
        want = np.array([float(mp.airyai(mp.mpf(v))
                               * mp.exp(2 * mp.mpf(v) ** mp.mpf(1.5) / 3))
                         for v in z])
        err = np.abs(got - want)
        assert np.all(err <= 1e-10 * np.abs(want) + 1e-14), z[np.argmax(err)]

    def test_asymptotic_amplitude(self):
        ratio = airy_ai_scaled(100.0) / (1.0 / (2.0 * math.sqrt(math.pi) * 100.0 ** 0.25))
        assert abs(ratio - 1.0) < 1e-3

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            airy_ai_scaled(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "negative"])
    def test_refusal_text_in_every_layout(self, bad):
        """A NaN, +-inf or the double below 0 is refused with one text that
        names the array's min and max, in sorted, reversed, shuffled, 0-d
        and 2-D arrays, while 0 itself is accepted in each of them."""
        if bad == "negative":
            bad = math.nextafter(0.0, -math.inf)
        good = ORDERED[ORDERED >= 0.0]
        assert good[0] == 0.0
        for a in layouts(good, 0.0):
            assert np.isfinite(airy_ai_scaled(a)).all()
        for a in layouts(np.sort(np.append(good, bad)), bad):
            with pytest.raises(DomainError) as err:
                airy_ai_scaled(a)
            assert str(err.value) == (
                "airy_ai_scaled requires finite z >= 0; got z in "
                f"[{float(a.min())!r}, {float(a.max())!r}]")


class TestAsymptoticSums:
    """The |z| >= 9 sums run over Chebyshev economizations of the 20-term
    Poincare coefficients: 10 terms in -1/zeta on [-1/18, 0], and 7 (even)
    and 8 (odd) terms in -1/zeta^2 on [-1/324, 0]."""

    @staticmethod
    def economized(coeffs, width, n_terms):
        """numpy.polynomial's economization: the Chebyshev series on
        [-width, 0], truncated, back to powers of the variable."""
        poly = np.polynomial
        series = poly.Polynomial(coeffs).convert(domain=[-width, 0.0],
                                                 kind=poly.Chebyshev)
        return series.truncate(n_terms).convert(
            kind=poly.Polynomial, domain=[-1.0, 1.0], window=[-1.0, 1.0]).coef

    def tables(self):
        u = special_numerics._U
        even, odd = special_numerics._U_NEG
        edge = special_numerics._ZETA_EDGE
        assert edge <= 2.0 * special_numerics.ASYMP_EDGE ** 1.5 / 3.0
        return [(special_numerics._U_POS, u, 1.0 / edge, 10),
                (even, u[0::2], 1.0 / edge ** 2, 7),
                (odd, u[1::2], 1.0 / edge ** 2, 8)]

    def test_tables_are_the_economizations(self):
        assert special_numerics._U.size == 20
        for table, coeffs, width, n_terms in self.tables():
            np.testing.assert_allclose(
                table, self.economized(coeffs, width, n_terms), rtol=1e-13, atol=0.0)

    def test_sums_stay_with_twenty_terms(self):
        """On a dense grid of the whole variable range, zeta >= _ZETA_EDGE."""
        horner = special_numerics._horner
        for table, coeffs, width, _ in self.tables():
            v = np.linspace(-width, 0.0, 100001)
            assert np.max(np.abs(horner(table, v) - horner(coeffs, v))) <= 2e-16

    def test_matches_high_precision_reference(self, mp):
        """Against mpmath's 30-digit Ai: relative error of the scaled Ai on
        z = 9..500, and error over the envelope sqrt(Ai^2 + Bi^2) on
        z = -120..-9, where the rounding of the phase zeta itself dominates."""
        z = np.linspace(9.0, 500.0, 257)
        want = np.array([float(mp.airyai(v) * mp.exp(2 * mp.mpf(v) ** 1.5 / 3))
                         for v in z])
        assert np.max(np.abs(airy_ai_scaled(z) - want) / want) <= 2e-15
        z = -np.linspace(9.0, 120.0, 257)
        want = [mp.airyai(v) for v in z]
        envelope = np.array([float(mp.sqrt(a ** 2 + mp.airybi(v) ** 2))
                             for a, v in zip(want, z)])
        err = np.abs(airy_ai(z) - np.array([float(a) for a in want]))
        assert np.max(err / envelope) <= 3e-13


class TestIntegrateOscillatoryGaussian:
    def test_gaussian_fourier_identity(self):
        for delta in (0.0, 1.0, -2.5):
            for s in (1.0, 0.5):
                got = integrate_oscillatory_gaussian(delta, 0.0, s)
                want = math.sqrt(2.0 * math.pi) / s * math.exp(-delta ** 2 / (2.0 * s * s))
                assert abs(got - want) <= 1e-10 * abs(want) + 1e-12

    def test_convergence_under_radius_doubling(self, monkeypatch):
        """Quadrupling the tail exponent doubles the trapezoid half-width (and
        halves the step); the sum must not move."""
        cases = [(0.0, 0.1, 1.0), (2.0, 0.1, 1.0), (-3.0, 0.5, 1.0),
                 (0.5, 0.2, 0.5623413251903491)]
        base = [integrate_oscillatory_gaussian(*case) for case in cases]
        monkeypatch.setattr(oracle, "_TAIL_EXPONENT", 4.0 * oracle._TAIL_EXPONENT)
        for case, a in zip(cases, base):
            b = integrate_oscillatory_gaussian(*case)
            assert abs(a - b) < 1e-9, case

    def test_agrees_with_adaptive(self, mp):
        """Against mpmath's adaptive quadrature of the integrand on the real
        axis, truncated at |x| = 10/s: no contour shift, no trapezoid rule."""
        cases = [(0.0, 0.1, 1.0), (2.0, 0.1, 1.0), (-3.0, 0.5, 1.0),
                 (0.5, 0.2, 0.5623413251903491)]
        for delta, gamma, s in cases:
            def f(x):
                return mp.exp(1j * x * (delta + gamma * x ** 2)
                              - (s * x) ** 2 / 2)
            radius = 10.0 / s
            want = complex(mp.quad(f, mp.linspace(-radius, radius,
                                                  int(4 * radius) + 1)))
            got = integrate_oscillatory_gaussian(delta, gamma, s)
            assert abs(got - want) <= 1e-8 * abs(want) + 1e-10

    def test_matches_high_precision_reference(self, reference_integral):
        """|got - want| <= 1e-10 |want| + 1e-13 |I(0)| on both sides of the
        saddle-point switch, from nearly Gaussian (small gamma, s = 1) to
        strongly cubic (large gamma, s = 0.1)."""
        for gamma in (0.02, 0.1, 0.5, 1.0, 2.0):
            for s in (1.0, 0.5, 0.2, 0.1):
                floor = 1e-13 * abs(reference_integral(0.0, gamma, s))
                for delta in range(-30, 31):
                    want = reference_integral(delta, gamma, s)
                    got = integrate_oscillatory_gaussian(float(delta), gamma, s)
                    assert abs(got - want) <= 1e-10 * abs(want) + floor, \
                        (delta, gamma, s)

    def test_anti_squeezed_matches_reference(self, reference_integral):
        """s > 1 moves the path no further than Im x = 1/s on delta <= 0, so
        the peak e^k0 stays of order 1: within 1e-14 of the reference up
        to s = 1000, not NaN."""
        deltas = np.arange(-10.0, 10.5, 0.5)
        for s in (5.0, 10.0, 1000.0):
            want = np.array([reference_integral(d, 0.1, s) for d in deltas])
            got = integrate_oscillatory_gaussian(deltas, 0.1, s)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, s

    def test_large_gamma_matches_reference(self, reference_integral,
                                           monkeypatch):
        """gamma > 1 moves the path on delta <= 0 no further than
        Im x = gamma^(-1/3), so gamma c^3 stays at most 1 and the peak e^k0
        of order 1: within 2e-15 of the reference at gamma = 50, 500 and
        1e4, where a path at Im x = 1 gave values 1e4 too large, then NaN.
        The same height floors the saddle as delta -> 0+: there the saddle
        alone took 1.3e4 to 8.9e6 nodes, or was refused, and the floored
        height takes at most 1,000."""
        nodes = []
        trapezoid_sums = oracle._trapezoid_sums

        def spy(n, *args):
            nodes.extend(n + 1)
            return trapezoid_sums(n, *args)

        monkeypatch.setattr(oracle, "_trapezoid_sums", spy)
        near_zero = np.array([1e-9, 1e-6, 1e-3])
        deltas = np.concatenate([np.arange(-10.0, 10.5, 0.5), near_zero])
        for gamma in (50.0, 500.0, 1e4):
            for s in (0.03, 1.0, 3.0):
                want = np.array([reference_integral(d, gamma, s)
                                 for d in deltas])
                got = integrate_oscillatory_gaussian(deltas, gamma, s)
                assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15, \
                    (gamma, s)
        for gamma, s in ((50.0, 0.03), (0.5, 0.2), (1e4, 1.0)):
            nodes.clear()
            want = np.array([reference_integral(d, gamma, s)
                             for d in near_zero])
            got = integrate_oscillatory_gaussian(near_zero, gamma, s)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15, \
                (gamma, s)
            assert len(nodes) == near_zero.size and max(nodes) <= 1000, \
                (gamma, s, nodes)

    def test_rejects_bad_input(self):
        for delta, gamma, s in ((0.0, 0.1, 0.0), (0.0, 0.1, -1.0),
                                (0.0, 0.1, math.nan), (0.0, 0.1, math.inf),
                                (math.nan, 0.1, 1.0), (0.0, math.inf, 1.0)):
            with pytest.raises(DomainError):
                integrate_oscillatory_gaussian(delta, gamma, s)

    # offsets on both sides of the saddle-point switch at delta = 0, the
    # switch itself and its nearest doubles, in no particular order
    DELTAS = np.random.default_rng(5).permutation(np.concatenate(
        [np.linspace(-30.0, 30.0, 121), [-1e-9, -5e-324, 0.0, 5e-324, 1e-9]]))

    def test_arrays_equal_their_scalar_calls(self):
        """An offset's value does not depend on the array it is evaluated
        in, whatever its shape."""
        for gamma, s in ((0.1, 1.0), (0.5, 0.2), (0.02, 0.1), (0.0, 0.7)):
            batch = integrate_oscillatory_gaussian(self.DELTAS, gamma, s)
            assert batch.shape == self.DELTAS.shape
            assert all(batch[i] == integrate_oscillatory_gaussian(float(d), gamma, s)
                       for i, d in enumerate(self.DELTAS)), (gamma, s)
            square = integrate_oscillatory_gaussian(
                self.DELTAS[:120].reshape(12, 10), gamma, s)
            assert np.array_equal(square.ravel(), batch[:120])

    def test_values_are_exactly_real(self):
        """The nodes are symmetric about t = 0, where the envelope is even
        and the phase odd, so the sines cancel in pairs and every value's
        imaginary part is exactly 0: scalars and arrays, offsets on both
        sides of the saddle-point switch, gamma = 0 and large gamma."""
        for gamma, s in ((0.1, 1.0), (0.5, 0.2), (0.02, 0.1), (0.0, 0.7),
                         (50.0, 0.03), (1e4, 1.0)):
            batch = integrate_oscillatory_gaussian(self.DELTAS, gamma, s)
            assert np.all(batch.imag == 0.0), (gamma, s)
            for delta in (-7.5, -1e-9, 0.0, 1e-9, 2.5):
                value = integrate_oscillatory_gaussian(delta, gamma, s)
                assert isinstance(value, float) and value.imag == 0.0, \
                    (delta, gamma, s)

    def test_blocks_bound_the_work_arrays(self, monkeypatch):
        """Offsets are evaluated in blocks of at most _QUAD_BLOCK nodes, an
        offset that alone needs more being its own block, and the block
        boundaries do not move any value."""
        gamma, s = 0.1, 0.3
        want = integrate_oscillatory_gaussian(self.DELTAS, gamma, s)
        blocks = []
        trapezoid_sums = oracle._trapezoid_sums

        def spy(n, *args):
            blocks.append(n.copy())
            return trapezoid_sums(n, *args)

        monkeypatch.setattr(oracle, "_trapezoid_sums", spy)
        monkeypatch.setattr(oracle, "_QUAD_BLOCK", 1000)
        got = integrate_oscillatory_gaussian(self.DELTAS, gamma, s)
        assert np.array_equal(got, want)
        nodes = [int(np.sum(2 * n + 1)) for n in blocks]
        assert sum(n.size for n in blocks) == self.DELTAS.size
        assert any(n.size > 1 for n in blocks) and max(nodes) > 1000
        assert all(total <= 1000 or n.size == 1 for n, total in zip(blocks, nodes))

    def test_oversized_quadrature_fails_before_building_nodes(self, monkeypatch):
        """delta = 3e5 at gamma = 0.1 would take about 1.9e8 nodes; that and
        a node count that is not finite are refused before any block is
        evaluated, also when the other offsets would fit."""
        def no_nodes(*args):
            raise AssertionError("nodes built for an oversized quadrature")

        monkeypatch.setattr(oracle, "_trapezoid_sums", no_nodes)
        for delta, gamma, s in ((3e5, 0.1, 1.0), (np.array([1.0, 3e5]), 0.1, 1.0),
                                (1e300, 0.1, 1.0), (1.0, 0.0, 1e-160)):
            with pytest.raises(DomainError, match="2\\^26 entry cap"):
                integrate_oscillatory_gaussian(delta, gamma, s)

    def test_gamma_zero_where_s_squared_underflows_is_refused_by_name(
            self, monkeypatch):
        """At gamma = 0 and s = 1e-170, s^2 is 0, so a = 3 gamma c + s^2/2
        is 0 and the path has no decay. That is refused before the node
        count, by gamma, s and the underflow, not as an oversized rule."""
        def no_nodes(*args):
            raise AssertionError("nodes built where s^2 underflows")

        monkeypatch.setattr(oracle, "_trapezoid_sums", no_nodes)
        for delta in (0.0, np.array([0.0, -1.0, 1e-3])):
            with pytest.raises(DomainError) as info:
                integrate_oscillatory_gaussian(delta, 0.0, 1e-170)
            assert str(info.value) == ("quadrature at gamma=0 needs s^2 > 0, "
                                       "but s=1e-170 underflows s^2 to 0")

    def test_negative_gamma_fails_before_building_nodes(self, monkeypatch):
        """No gate setting has gamma < 0 (GateParams refuses it), so the
        quadrature refuses it too instead of choosing a contour for it."""
        def no_nodes(*args):
            raise AssertionError("nodes built for a negative gamma")

        monkeypatch.setattr(oracle, "_trapezoid_sums", no_nodes)
        for delta in (1.0, -2.0, np.array([0.0, 3.0])):
            with pytest.raises(DomainError,
                               match="cubic coefficient gamma must be >= 0"):
                integrate_oscillatory_gaussian(delta, -0.1, 1.0)


def test_cis_matches_complex_exp():
    """exp(i phase) from one tangent, within 4e-16 of numpy's complex exp for
    |phase| <= 2e4, also at the doubles next to odd multiples of pi, where
    |tan(phase/2)| reaches about 1e18."""
    cis = oracle._cis
    phase = np.concatenate([np.random.default_rng(9).uniform(-2e4, 2e4, 100_000),
                            np.linspace(-2e4, 2e4, 100_001)])
    assert np.max(np.abs(cis(phase) - np.exp(1j * phase))) <= 4e-16
    odd = (2.0 * np.arange(-3183, 3183) + 1.0) * math.pi
    near = (odd[:, None] + np.arange(-4, 5) * np.spacing(odd)[:, None]).ravel()
    assert np.max(np.abs(np.tan(0.5 * near))) > 1e17
    assert np.max(np.abs(cis(near) - np.exp(1j * near))) <= 4e-16
    table = phase[:600].reshape(20, 30)
    assert np.array_equal(cis(table), cis(phase[:600]).reshape(20, 30))
