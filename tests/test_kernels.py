import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from nlfb import (KernelValidationError, SolvabilityError, cosine_bump_kernel,
                  custom_kernel, j_star, j_tilde, j_tilde_row,
                  moment_identity_check, moment_n, power_tail_kernel,
                  uniform_kernel, unit_sphere_area, validate_kernel)
from nlfb import kernels
from nlfb.kernels import (boundary_flux, interior_rho_integral,
                          j_star_first_moment, normalization,
                          outward_rho_integral, require_valid, shell_mass)


def test_unit_sphere_areas():
    assert abs(unit_sphere_area(1) - 2.0) < 1e-14
    assert abs(unit_sphere_area(2) - 2.0 * math.pi) < 1e-14
    assert abs(unit_sphere_area(3) - 4.0 * math.pi) < 1e-14


def test_validation_accepts_builtin_kernels(disc2, ball3):
    for k in (disc2, ball3, cosine_bump_kernel(2), power_tail_kernel(2, 3.5)):
        report = validate_kernel(k)
        assert report.accepted, report.failures
        assert abs(report.normalization - 1.0) < 1e-6


def test_validation_rejects_negative_profile():
    bad = custom_kernel(lambda r: 0.3 - r, dim=2, support_radius=1.0)
    report = validate_kernel(bad)
    assert not report.accepted
    assert any("negative" in f for f in report.failures)
    with pytest.raises(KernelValidationError):
        require_valid(bad)


def test_validation_rejects_wrong_mass():
    k = custom_kernel(lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0),
                      dim=2, support_radius=1.0)
    report = validate_kernel(k)
    assert not report.accepted
    assert abs(normalization(k) - math.pi) < 1e-10


def test_jstar_disc_closed_form(disc2):
    l = np.linspace(0.0, 0.999, 25)
    exact = (2.0 / math.pi) * np.sqrt(1.0 - l * l)
    got = j_star(disc2, l)
    assert np.abs(got - exact).max() < 1e-8
    assert j_star(disc2, 1.5) == 0.0


def test_jstar_ball_closed_form(ball3):
    l = np.linspace(0.0, 0.999, 25)
    exact = 0.75 * (1.0 - l * l)
    got = j_star(ball3, l)
    assert np.abs(got - exact).max() < 1e-8


def test_jstar_even_and_vectorized(disc2):
    assert abs(j_star(disc2, -0.4) - j_star(disc2, 0.4)) < 1e-14
    arr = j_star(disc2, np.array([0.0, 0.5]))
    assert arr.shape == (2,)


def test_jstar_far_from_origin_fat_tail():
    # s -> J(sqrt(l^2 + s^2)) grows for ~22 octaves before it decays; the
    # octave sum must neither stop early nor call the growth divergent
    got = j_star(power_tail_kernel(2, 2.8), 5e6)
    assert math.isfinite(got)
    assert abs(got - 4.2794250962912714e-13) <= 1e-12 * 4.2794250962912714e-13


def test_jstar_first_moment_closed_forms(disc2, ball3):
    # disc: (2/pi) int_0^1 l sqrt(1-l^2) dl = 2/(3 pi); ball: 3/16
    assert abs(j_star_first_moment(disc2) - 2.0 / (3.0 * math.pi)) < 1e-8
    assert abs(j_star_first_moment(ball3) - 3.0 / 16.0) < 1e-8


def test_moment_identity(disc2, ball3):
    for k in (disc2, ball3, power_tail_kernel(2, 3.5), power_tail_kernel(2, 3.3)):
        lhs, rhs, rel = moment_identity_check(k)
        assert rel < 1e-6, (k.label, lhs, rhs)


def test_moment_identity_divergent_raises():
    with pytest.raises(SolvabilityError):
        moment_identity_check(power_tail_kernel(2, 2.5))


def test_moment_n_finiteness():
    assert math.isinf(moment_n(power_tail_kernel(2, 2.5)))
    assert math.isinf(moment_n(power_tail_kernel(2, 3.0)))
    assert math.isfinite(moment_n(power_tail_kernel(2, 3.5)))
    assert math.isfinite(moment_n(uniform_kernel(2)))
    # finite for every beta > N + 1: int_0^inf A (1+r)^-beta r^N dr = A B(N+1, beta-N-1)
    for n in (2, 3):
        for excess in (1.05, 1.3):
            k = power_tail_kernel(n, n + excess)
            exact = k.tail_scale * beta_fn(n + 1, excess - 1.0)
            got = moment_n(k)
            assert math.isfinite(got)
            assert abs(got - exact) <= 1e-8 * exact, (n, excess, got, exact)
        for excess in (0.5, 1.0):
            assert math.isinf(moment_n(power_tail_kernel(n, n + excess)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("b", [0.0, 5.0])
def test_moment_n_custom_log_tail_is_inf(n, b):
    # J = (1+r)^-(N+1) (1 + b/(1+r)) has r^N J ~ 1/r: the moment diverges
    # like log r, and a custom kernel has no exponent check to stop early
    def profile(r):
        r = np.asarray(r, dtype=float)
        return (1.0 + r) ** -(n + 1) * (1.0 + b / (1.0 + r))

    assert math.isinf(moment_n(custom_kernel(profile, dim=n)))


def test_jtilde_center_value_exact(disc2, ball3):
    # at r = 0 the spherical integrand is constant: w_N rho^(N-1) J(rho)
    assert abs(j_tilde(disc2, 0.0, 0.5) - 1.0) < 1e-12
    rho = 0.3
    exact = 4.0 * math.pi * rho ** 2 * float(ball3(rho))
    assert abs(j_tilde(ball3, 0.0, rho) - exact) < 1e-12


def test_jtilde_ball_interior_value(ball3):
    # overlapping spheres well inside the support: Jtilde = w_2 rho^2 * avg J
    # = 2 pi rho^2 * (3/(4 pi)) * 1 = (3/2) rho^2 at r = rho = 0.25
    assert abs(j_tilde(ball3, 0.25, 0.25) - 0.1875) < 1e-9


def test_jtilde_vanishes_outside_reach(disc2):
    assert j_tilde(disc2, 2.0, 0.5) == 0.0
    assert j_tilde(disc2, 0.5, 2.0) == 0.0
    assert j_tilde(disc2, 1.0, 0.0) == 0.0


def test_jtilde_symmetry_identity(disc2, ball3, rng):
    # r^(N-1) Jtilde(r, rho) = rho^(N-1) Jtilde(rho, r)
    for k in (disc2, ball3):
        n = k.dim - 1
        for _ in range(20):
            r, rho = rng.uniform(0.05, 3.0, 2)
            lhs = r ** n * j_tilde(k, r, rho)
            rhs = rho ** n * j_tilde(k, rho, r)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_jtilde_row_normalization(disc2, ball3):
    # int_0^inf Jtilde(r, rho) d rho = 1 for every r
    for k in (disc2, ball3):
        for r in (0.3, 1.0, 2.7):
            total = interior_rho_integral(k, r, r + k.support_radius)
            assert abs(total - 1.0) < 1e-6, (k.label, r, total)


def test_interior_plus_outward_is_one(disc2):
    for r, h in ((0.8, 1.2), (2.0, 1.5), (1.0, 1.0)):
        s = interior_rho_integral(disc2, r, h) + outward_rho_integral(disc2, r, h)
        assert abs(s - 1.0) < 1e-6


@pytest.mark.parametrize("k", [power_tail_kernel(2, 2.8), power_tail_kernel(3, 3.8)],
                         ids=lambda k: f"{k.label}{k.params}")
def test_fat_tail_rho_integrals_outside_the_ball_match_quad(k, shell_quad):
    # r > h + 0.5: the shell ends at |y| = h, well short of the point x
    for r, h in ((4.0, 3.0), (8.0, 6.0), (20.0, 3.0)):
        exact = shell_quad(k, r, 0.0, h)
        inner = interior_rho_integral(k, r, h)
        assert abs(inner - exact) <= 1e-12 * exact, (r, h, inner, exact)
        assert abs(outward_rho_integral(k, r, h) - (1.0 - exact)) <= 1e-12, (r, h)


def _ball_overlap_fraction(n, r, h):
    """|B(x, 1) ∩ B(0, h)| / |B(x, 1)| for |x| = r, in 40-digit mpmath.

    The disc lens is the sum of two circular segments R^2 (a - sin a cos a),
    the ball lens pi (1 + h - r)^2 (r^2 + 2 r (1 + h) - 3 (1 - h)^2) / (12 r);
    at 40 digits the cancellation near tangency costs nothing.
    """
    with mpmath.workdps(40):
        r, h = mpmath.mpf(r), mpmath.mpf(h)
        if r >= 1 + h:
            return mpmath.mpf(0)
        if r + 1 <= h:
            return mpmath.mpf(1)
        if r + h <= 1:
            return h ** n
        if n == 2:
            seg = [R * R * (a - mpmath.sin(a) * mpmath.cos(a)) for R, a in (
                (1, mpmath.acos((r * r + 1 - h * h) / (2 * r))),
                (h, mpmath.acos((r * r + h * h - 1) / (2 * r * h))))]
            return (seg[0] + seg[1]) / mpmath.pi
        lens = mpmath.pi * (1 + h - r) ** 2 * (r * r + 2 * r * (1 + h) - 3 * (1 - h) ** 2) / (12 * r)
        return lens / (4 * mpmath.pi / 3)


@pytest.mark.parametrize("n", [2, 3])
def test_compact_rho_integrals_match_the_ball_lens(n):
    # J uniform on the unit ball: int_0^h Jtilde(r, rho) d rho is the share
    # of B(x, 1) inside |y| < h
    k = uniform_kernel(n)
    rng = np.random.default_rng(4711)
    pairs = [*rng.uniform(0.05, 6.0, size=(50, 2)), (0.0, 0.4), (0.0, 2.5),
             (0.7, 1.7), (0.7, 1.70001), (2.0, 3.5), (4.2, 3.2), (3.0, 2.0 - 1e-9)]
    for r, h in pairs:
        frac = _ball_overlap_fraction(n, r, h)
        inside, outside = float(frac), float(1 - frac)
        got_in, got_out = interior_rho_integral(k, r, h), outward_rho_integral(k, r, h)
        assert isinstance(got_in, float) and isinstance(got_out, float)
        assert abs(got_in - inside) <= 1e-13, (r, h, got_in - inside)
        assert abs(got_out - outside) <= 1e-13, (r, h, got_out - outside)
        if h >= r + 1.0:
            assert got_out == 0.0, (r, h, got_out)
    # one call on an array of radii gives the scalar values
    rs = np.array([0.0, 0.3, 1.2, 2.9, 5.0])
    assert np.array_equal(outward_rho_integral(k, rs, 2.5),
                          [outward_rho_integral(k, r, 2.5) for r in rs])
    assert np.array_equal(interior_rho_integral(k, rs, 2.5),
                          [interior_rho_integral(k, r, 2.5) for r in rs])


# quad flags roundoff at the fixture's epsrel = 1e-13 on this kernel; the
# oracle still holds the 1e-12 asked here
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_cosine_bump_rho_integrals_match_quad(shell_quad):
    k = cosine_bump_kernel(2)
    for r, h in ((0.0, 0.6), (0.4, 0.9), (1.3, 2.0), (2.5, 2.2), (5.0, 4.5)):
        inside, outside = shell_quad(k, r, 0.0, h), shell_quad(k, r, h, r + 1.0)
        assert abs(interior_rho_integral(k, r, h) - inside) <= 1e-12, (r, h)
        assert abs(outward_rho_integral(k, r, h) - outside) <= 1e-12, (r, h)


#: a custom N = 3 fat tail A min(1, r^-4): a profile breakpoint, no tail_antiderivative
MIN_R4 = custom_kernel(lambda r: 3.0 / (16.0 * math.pi) * np.maximum(r, 1.0) ** -4.0,
                       3, breakpoints=(1.0,), label="min1r4")


@pytest.mark.parametrize("k", [power_tail_kernel(2, 2.8), power_tail_kernel(3, 3.8), MIN_R4],
                         ids=lambda k: f"{k.label}{k.params}")
@pytest.mark.parametrize("r", [0.0, 0.25, 1.5, 12.5, 75.0])
def test_shell_mass_matches_nested_quad(k, r, shell_quad):
    # the kink-correction window of a dense row at radius r
    a, b = max(0.0, r - 2.0), r + 2.0
    exact = shell_quad(k, r, a, b)
    assert abs(float(shell_mass(k, r, a, b)) - exact) <= 1e-13 * exact, (r, exact)


def test_shell_mass_rows_at_once_and_general_dimension(shell_quad):
    # N = 4 takes the incomplete-beta measure of directions
    k = custom_kernel(power_tail_kernel(4, 4.8).profile, 4)
    r = np.array([0.0, 1.5, 12.5])
    a, b = np.maximum(r - 2.0, 0.0), r + 2.0
    rows = shell_mass(k, r, a, b)
    for i in range(r.size):
        one = float(shell_mass(k, r[i], a[i], b[i]))
        assert abs(rows[i] - one) <= 1e-15 * one
        exact = shell_quad(k, float(r[i]), float(a[i]), float(b[i]))
        assert abs(rows[i] - exact) <= 1e-13 * exact, (r[i], exact)


@pytest.mark.parametrize("k", [power_tail_kernel(3, 3.8), power_tail_kernel(2, 2.8)])
def test_jtilde_is_one_row_call(k, monkeypatch):
    # exact (N = 3) or by the angular rule (N = 2), a single pair is an entry
    # of one j_tilde_row call, as every table entry is
    seen = []
    inner = kernels.j_tilde_row

    def counting(*args, **kw):
        seen.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(kernels, "j_tilde_row", counting)
    j_tilde(k, 1.5, 2.0)
    assert len(seen) == 1


def test_jtilde_far_field_marginal_limit(disc2):
    # |Jtilde(r, r + s) - Jstar(s)| = O(1/r) as r grows
    s = 0.3
    errs = [abs(j_tilde(disc2, r, r + s) - j_star(disc2, s))
            for r in (20.0, 40.0, 80.0)]
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def _jtilde2_mp(profile, r, rho, top=mpmath.pi):
    """2 rho int_0^top J(chord(t)) dt, Jtilde for N = 2, in 40-digit mpmath.

    chord(t)^2 = (r - rho)^2 + 4 r rho sin^2(t/2); profile takes an mpf
    chord.  The integral splits at 4^k / (1 + sqrt(r rho)) toward the peak
    at t = 0, a grading of its own, not the one under test.
    """
    with mpmath.workdps(40):
        r, rho, top = mpmath.mpf(r), mpmath.mpf(rho), mpmath.mpf(top)
        pts, t = [mpmath.mpf(0)], 1 / (1 + mpmath.sqrt(r * rho))
        while t < top:
            pts.append(t)
            t *= 4
        pts.append(top)
        return 2 * rho * mpmath.quad(
            lambda t: profile(mpmath.sqrt((r - rho) ** 2 + 4 * r * rho * mpmath.sin(t / 2) ** 2)),
            pts)


def _mp_power_profile(beta):
    """The N = 2 power tail A (1 + s)^-beta in 40-digit mpmath."""
    with mpmath.workdps(40):
        amp = 1 / (2 * mpmath.pi * mpmath.beta(2, mpmath.mpf(beta) - 2))
    return lambda s: amp * (1 + s) ** -mpmath.mpf(beta)


def _mp_cosine_profile():
    """The N = 2 cosine bump (1 + cos(pi s)) / 2, normalized, in 40-digit mpmath."""
    with mpmath.workdps(40):
        mass = 2 * mpmath.pi * mpmath.quad(lambda s: s * (1 + mpmath.cos(mpmath.pi * s)) / 2,
                                           [0, 1])
    return lambda s: (1 + mpmath.cos(mpmath.pi * s)) / (2 * mass)


def _jtilde2_mp_compact(profile, r, rho):
    """_jtilde2_mp of a kernel supported in K = 1: J = 0 beyond the support
    angle, where the chord reaches K."""
    with mpmath.workdps(40):
        gap = abs(mpmath.mpf(r) - mpmath.mpf(rho))
        if gap >= 1:
            return 0.0
        x = (1 - gap) * (1 + gap) / (4 * mpmath.mpf(r) * mpmath.mpf(rho))
        top = mpmath.pi if x >= 1 else 2 * mpmath.asin(mpmath.sqrt(x))
        return float(_jtilde2_mp(profile, r, rho, top))


def test_fat_tail_table_rows_match_mpmath():
    # beta = 2.8, N = 2 dense rows at dr = 0.25, near and far from the diagonal
    dr = 0.25
    k, profile = power_tail_kernel(2, 2.8), _mp_power_profile(2.8)
    for i in (10, 100, 499):
        cols = np.unique([1, 2, i // 4, i // 2, i - 3, i - 1, i])
        got = j_tilde_row(k, i * dr, cols * dr)
        exact = np.array([float(_jtilde2_mp(profile, i * dr, j * dr)) for j in cols])
        assert np.all(np.abs(got - exact) <= 1e-13 * exact), (i, (got - exact) / exact)


@pytest.mark.parametrize("beta", [2.8, 3.5])
def test_fat_tail_fine_grid_entries_match_mpmath(beta):
    # at dr = 0.05 and 0.1 the columns next to the diagonal bring the chord's
    # branch point within theta0 / 5 of the first angular panel
    k, profile = power_tail_kernel(2, beta), _mp_power_profile(beta)
    for dr, i in ((0.05, 20), (0.05, 400), (0.1, 100)):
        cols = np.arange(i - 3, i + 4)
        got = j_tilde_row(k, i * dr, cols * dr)
        exact = np.array([float(_jtilde2_mp(profile, i * dr, j * dr)) for j in cols])
        assert np.all(np.abs(got - exact) <= 1e-14 * exact), (dr, i, (got - exact) / exact)


@pytest.mark.parametrize("beta", [2.8, 3.5])
@pytest.mark.parametrize("r", [1e3, 1e5])
def test_fat_tail_pairs_at_large_radii_match_mpmath(beta, r):
    # peaks of angular width ~1 / r, and at |r - rho| = 0.001 a branch point
    # of the chord ~1e-6 / r off the angular axis
    k, profile = power_tail_kernel(2, beta), _mp_power_profile(beta)
    for rho in r + np.array([-0.001, 0.0, 3.0, -r / 2]):
        got = j_tilde(k, r, rho)
        exact = float(_jtilde2_mp(profile, r, rho))
        assert abs(got - exact) <= 1e-14 * exact, (rho, got, exact)


def test_cosine_bump_band_rows_match_mpmath():
    # every band column of N = 2 rows to r = 40 at dr = 0.05
    k, dr, profile = cosine_bump_kernel(2), 0.05, _mp_cosine_profile()
    for i in (1, 20, 800):
        cols = np.arange(max(i - 20, 1), i + 21)
        got = j_tilde_row(k, i * dr, cols * dr)
        ref = np.array([_jtilde2_mp_compact(profile, i * dr, j * dr) for j in cols])
        assert np.abs(got - ref).max() <= 1e-13 * ref.max(), i


@pytest.mark.parametrize("k, profile, dr", [
    (uniform_kernel(2), lambda s: 1 / mpmath.pi, 0.05),
    (cosine_bump_kernel(2), _mp_cosine_profile(), 0.05),
    (power_tail_kernel(2, 2.8), _mp_power_profile(2.8), 0.25),
    (power_tail_kernel(2, 3.5), _mp_power_profile(3.5), 0.25)],
    ids=["disc2", "cos2", "beta2.8", "beta3.5"])
def test_jtilde_off_grid_pairs_match_mpmath(k, profile, dr):
    # j_tilde at r = L off the grid against grid columns rho, the entries of
    # lambda1's off-grid row: the rule of every table entry, to 1e-12 relative.
    # The nearest column (offset 0) is 0.001 from L = 7.999: the chord's branch
    # point then lies 1.3e-4 off the angular axis
    offsets = ([-0.93, -0.5, 0.0, 0.03, 0.48, 0.93] if k.kind == "compact"
               else [-20.0, -3.0, -0.3, 0.0, 0.2, 2.0, 30.0])
    for L in (0.37, 5.55, 7.999, 41.9):
        rho = np.unique(np.round((L + np.array(offsets)) / dr)) * dr
        for p in rho[rho > 0.0]:
            got = j_tilde(k, L, p)
            exact = (_jtilde2_mp_compact(profile, L, p) if k.kind == "compact"
                     else float(_jtilde2_mp(profile, L, p)))
            assert exact > 0.0 and abs(got - exact) <= 1e-12 * exact, (L, p, got, exact)


def test_disc_band_entries_are_the_support_angle(disc2):
    # J is the constant 1/pi out to the chord angle theta_K: Jtilde = 2 rho theta_K / pi
    dr = 0.05
    for i in (1, 10, 20, 60, 800):
        rho = np.arange(max(i - 21, 1), i + 22) * dr
        expect = 2.0 * rho * kernels._chord_angle(i * dr, rho, 1.0) / math.pi
        got = j_tilde_row(disc2, i * dr, rho)
        assert np.array_equal(got == 0.0, expect == 0.0), i
        assert np.all(np.abs(got - expect) <= 1e-14 * expect), i


def test_disc_band_rows_evaluate_the_profile_inside_the_support(disc2):
    # on the angular rule (uniform_height cleared: the disc itself takes the
    # cap formula) the edges stop at the support angle, so each entry takes
    # one panel and every chord handed to the profile is within the support
    chords = []

    def profile(s):
        chords.append(np.array(s, copy=True).ravel())
        return disc2.profile(s)

    k, dr = dataclasses.replace(disc2, profile=profile, uniform_height=None), 0.05
    for i in (1, 20, 800):
        rho = np.arange(max(i - 21, 1), i + 22) * dr
        chords.clear()
        j_tilde_row(k, i * dr, rho)
        seen = np.concatenate(chords)
        inside = np.count_nonzero(kernels._chord_angle(i * dr, rho, 1.0) > 0.0)
        assert seen.size == kernels.ANGULAR_ORDER * inside, i
        assert seen.max() <= 1.0 + 1e-12, i


def _uniform_pairs(K=1.0, dr=0.05):
    """(r, rho) pairs of a uniform kernel with support radius K, r a scalar or
    rho's shape: band rows at dr, spheres wholly inside the support (r + rho
    <= K), gaps |r - rho| just below K, and off-grid rows r = L against grid
    columns, as lambda1's row takes them."""
    pairs = [(i * dr, np.arange(max(i - 21, 1), i + 22) * dr) for i in (1, 10, 20, 60, 800)]
    r = np.repeat(np.linspace(0.01, 0.9, 10) * K, 3)
    pairs.append((r, (K - r) * np.tile([0.1, 0.5, 1.0], 10)))
    gaps = K * (1.0 - np.array([1e-2, 1e-5, 1e-9]))
    for r in (0.3 * K, 2.0, 41.9):
        rho = np.concatenate((r + gaps, r - gaps))
        pairs.append((r, rho[rho > 0.0]))
    offsets = K * np.array([-0.93, -0.5, 0.0, 0.03, 0.48, 0.93])
    for L in (0.37, 5.55, 7.999, 41.9):
        rho = np.unique(np.round((L + offsets) / dr)) * dr
        pairs.append((L, rho[rho > 0.0]))
    return pairs


@pytest.mark.parametrize("dim, K", [(2, 1.0), (2, 2.5), (4, 1.0), (4, 0.7)])
def test_uniform_cap_matches_the_angular_rule(dim, K):
    # the cap formula against the angular rule on the same kernel, and the
    # same zeros: J is constant, so 24 nodes per panel integrate it to rounding
    k = uniform_kernel(dim, K)
    angular = dataclasses.replace(k, uniform_height=None)
    assert k.uniform_height == float(k(0.0))
    for r, rho in _uniform_pairs(K):
        cap, ang = j_tilde_row(k, r, rho), j_tilde_row(angular, r, rho)
        assert np.array_equal(cap == 0.0, ang == 0.0), (r, rho)
        assert np.all(np.abs(cap - ang) <= 1e-14 * ang), (r, rho, (cap - ang) / ang)
    whole = np.linspace(0.05, 0.45, 9) * K
    assert np.allclose(j_tilde_row(k, 0.5 * K, whole),
                       k.uniform_height * unit_sphere_area(dim) * whole ** (dim - 1),
                       rtol=1e-15, atol=0.0)


def test_uniform_cap_in_3d_matches_the_tail_antiderivative(ball3):
    # with tail_antiderivative cleared the ball reaches the cap formula, which
    # agrees with (2 pi rho / r)(H(|r - rho|) - H(r + rho)) to rounding of the row
    cap = dataclasses.replace(ball3, tail_antiderivative=None)
    for r, rho in _uniform_pairs():
        got, exact = j_tilde_row(cap, r, rho), j_tilde_row(ball3, r, rho)
        assert np.array_equal(got == 0.0, exact == 0.0), (r, rho)
        assert np.all(np.abs(got - exact) <= 1e-14 * exact.max()), (r, rho)


def test_disc_cap_matches_mpmath(disc2):
    # the 40-digit oracle of the angular form, J = 1/pi out to the support angle
    for r, rho in ((0.05, 0.05), (0.05, 0.9), (0.4, 0.45), (1.0, 1.95), (7.999, 7.35),
                   (41.9, 42.83), (800 * 0.05, 799 * 0.05)):
        exact = _jtilde2_mp_compact(lambda s: 1 / mpmath.pi, r, rho)
        got = j_tilde(disc2, r, rho)
        assert abs(got - exact) <= 2e-15 * exact, (r, rho, got, exact)


def test_validation_rejects_a_profile_unlike_its_uniform_height(disc2):
    # the cap formula reads uniform_height, not the profile: a replaced
    # profile must be that constant below the support radius and 0 beyond
    bump = dataclasses.replace(disc2, profile=cosine_bump_kernel(2).profile)
    spill = dataclasses.replace(disc2, profile=lambda r: np.full_like(r, 1.0 / math.pi))
    for k in (bump, spill):
        report = validate_kernel(k)
        assert math.isclose(report.normalization, 1.0)
        assert not report.accepted
        assert any("uniform_height" in f for f in report.failures), report.failures
        with pytest.raises(KernelValidationError):
            require_valid(k)
    assert validate_kernel(dataclasses.replace(bump, uniform_height=None)).accepted


def test_validation_rejects_a_compact_profile_with_mass_beyond_its_support(disc2, ball3):
    # without uniform_height the probe beyond support_radius still applies:
    # every transform stops at the support, so the spilled mass is lost
    spill = dataclasses.replace(disc2, uniform_height=None,
                                profile=lambda r: np.full_like(r, 1.0 / math.pi))
    report = validate_kernel(spill)
    assert math.isclose(report.normalization, 1.0)
    assert not report.accepted
    assert report.failures == ("profile is not 0 beyond support_radius = 1.0",)
    with pytest.raises(KernelValidationError):
        require_valid(spill)
    # a ring of mass far outside the support is caught too
    ring = dataclasses.replace(spill, profile=lambda r: np.where(
        (r <= 1.0) | ((r >= 50.0) & (r <= 51.0)), 1.0 / math.pi, 0.0))
    assert validate_kernel(ring).failures == report.failures
    plain_disc = dataclasses.replace(disc2, uniform_height=None)
    for k in (disc2, ball3, cosine_bump_kernel(2), cosine_bump_kernel(3), plain_disc):
        assert validate_kernel(k).accepted, k.label


def test_boundary_flux_compact_limit(disc2):
    # F(h) -> int_0^inf l Jstar(l) dl = 2/(3 pi) for compact kernels
    target = 2.0 / (3.0 * math.pi)
    assert abs(boundary_flux(disc2, 50.0) - target) < 0.05 * target


def test_power_tail_requires_beta_above_dim():
    with pytest.raises(ValueError):
        power_tail_kernel(2, 2.0)


def test_kernel_hash_distinguishes():
    assert uniform_kernel(2).hash() != uniform_kernel(3).hash()
    assert uniform_kernel(2).hash() == uniform_kernel(2, 1.0).hash()
    assert power_tail_kernel(2, 3.0).hash() != power_tail_kernel(2, 3.5).hash()
    # fields that shape a table but not the profile samples
    disc = uniform_kernel(2)
    for change in (dict(support_radius=1.5), dict(breakpoints=(0.5, 1.0)),
                   dict(tail_antiderivative=None), dict(uniform_height=None)):
        assert dataclasses.replace(disc, **change).hash() != disc.hash(), change


# ---------------------------------------------------------------------------
# N = 3: Jtilde from the closed-form tail antiderivative
# ---------------------------------------------------------------------------

N3_KERNELS = [power_tail_kernel(3, b) for b in (3.3, 3.8, 4.5)] + [
    uniform_kernel(3), cosine_bump_kernel(3)]


def _jtilde3_quad(k, r, rho):
    """(2 pi rho / r) int_{|r-rho|}^{r+rho} s J(s) ds by scipy quad."""
    lo, hi = abs(r - rho), r + rho
    if k.support_radius is not None:
        hi = min(hi, k.support_radius)
    if hi <= lo:
        return 0.0
    val = quad(lambda s: s * float(k(s)), lo, hi, epsabs=0.0, epsrel=1e-13,
               limit=200)[0]
    return 2.0 * math.pi * rho / r * val


@pytest.mark.parametrize("k", N3_KERNELS, ids=lambda k: f"{k.label}{k.params}")
@pytest.mark.parametrize("r", [0.05, 7.3, 125.0])
def test_jtilde3_closed_form_matches_quad_and_angular_rule(k, r):
    dr = 0.05
    rho = np.geomspace(dr, 2.0 * r + 3.0, 40)
    near = r + np.array([-0.9, -0.5, -0.1, 0.0, 0.2, 0.6, 0.95])
    rho = np.unique(np.concatenate((rho, near[near > 0.0])))
    got = j_tilde_row(k, r, rho)
    exact = np.array([_jtilde3_quad(k, r, p) for p in rho])
    scale = np.abs(exact).max() if k.kind == "compact" else np.abs(exact)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)
    angular = j_tilde_row(dataclasses.replace(k, tail_antiderivative=None, uniform_height=None),
                          r, rho)
    assert np.all(np.abs(got - angular) <= 1e-12 * scale)


def test_cosine_bump_tail_antiderivative_near_support_edge():
    # H(1 - e) = int_0^e (1 - x) J(1 - x) dx with J(1 - x) = J(0) sin^2(pi x / 2)
    # is ~ pi^2 e^3 / 12 J(0), far below the O(1) terms of the textbook
    # antiderivative; the sin^2 form keeps the oracle free of cancellation
    k = cosine_bump_kernel(3)
    j0 = float(k(0.0))
    for s in (0.5, 0.99, 0.9999, 0.999999):
        e = 1.0 - s  # exact in floating point
        exact = j0 * quad(lambda x: (1.0 - x) * math.sin(0.5 * math.pi * x) ** 2,
                          0.0, e, epsabs=0.0, epsrel=1e-13)[0]
        got = float(k.tail_antiderivative(np.array(s)))
        assert abs(got - exact) <= 1e-12 * exact, s
    assert float(k.tail_antiderivative(np.array(1.5))) == 0.0


def _outside_mass(k, radius):
    """Mass of J outside the ball of the given radius (power tail, N = 3)."""
    b, u = k.tail_exponent, 1.0 + radius
    return 4.0 * math.pi * k.tail_scale * (
        u ** (3.0 - b) / (b - 3.0) - 2.0 * u ** (2.0 - b) / (b - 2.0)
        + u ** (1.0 - b) / (b - 1.0))


def _remainder(k, r, h):
    """int_h^inf Jtilde(r, rho) d rho for h > r: the mass of J(|x - y|) on |y| > h.

    A shell |y - x| = s with h - r < s < h + r has the fraction
    ((s + r)^2 - h^2) / (4 r s) of its area outside |y| = h.
    """
    shells = quad(lambda s: s * float(k(s)) * ((s + r) ** 2 - h * h),
                  h - r, h + r, epsabs=0.0, epsrel=1e-12)[0]
    return math.pi / r * shells + _outside_mass(k, h + r)


N3_PROPERTY_KERNELS = st.one_of(
    st.floats(3.1, 6.0).map(lambda b: power_tail_kernel(3, b)),
    st.sampled_from([uniform_kernel(3), uniform_kernel(3, 2.5),
                     cosine_bump_kernel(3), cosine_bump_kernel(3, 0.7)]))
RADII = st.floats(1e-3, 300.0)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(k=N3_PROPERTY_KERNELS, r=RADII, rho=RADII)
def test_jtilde3_positive_and_symmetric(k, r, rho):
    a = float(j_tilde_row(k, r, [rho])[0])
    b = float(j_tilde_row(k, rho, [r])[0])
    assert a >= 0.0 and b >= 0.0
    lhs, rhs = r * r * a, rho * rho * b
    assert abs(lhs - rhs) <= 1e-14 * max(lhs, rhs)


@PROPERTY_SETTINGS
@given(k=N3_PROPERTY_KERNELS, r=RADII)
def test_jtilde3_row_integrates_to_one(k, r):
    if k.kind == "compact":
        total = interior_rho_integral(k, r, r + k.support_radius)
    else:
        h = r + 40.0
        rest = _remainder(k, r, h)
        # the mass beyond |y| = h lies between the masses outside radii h + r and h - r
        assert _outside_mass(k, h + r) <= rest <= _outside_mass(k, h - r)
        total = interior_rho_integral(k, r, h) + rest
    assert abs(total - 1.0) <= 1e-10
