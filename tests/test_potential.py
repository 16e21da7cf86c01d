import math

import numpy as np
import pytest

from bchwaves import (ConvergenceFailure, NotInExistenceSet, WaveParameters,
                      a_max, critical_points, eval_g, eval_potential,
                      existence_check)


def bisect(f, lo, hi, tol=1e-14):
    """Plain bisection, kept independent of the library's root finding."""
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def test_parameter_validation():
    with pytest.raises(ValueError):
        WaveParameters(b=1.0, a=0.1, E=0.0, c=1.0)
    with pytest.raises(ValueError):
        WaveParameters(b=2.0, a=float("nan"), E=0.0, c=1.0)
    WaveParameters(b=2.0, a=-1.0, E=0.0, c=1.0)  # admissibility checked later


def test_potential_values(ref_params):
    assert eval_potential(0.0, ref_params) == pytest.approx(0.1, abs=1e-15)
    assert eval_potential(0.5, ref_params) == pytest.approx(0.075, abs=1e-15)


def test_potential_diverges_at_c(ref_params):
    vals = eval_potential(np.array([0.9, 0.99, 0.999999]), ref_params)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 1e4


def test_potential_domain(ref_params):
    with pytest.raises(ValueError):
        eval_potential(1.0, ref_params)
    with pytest.raises(ValueError):
        eval_g(1.5, ref_params)


def test_g_values():
    p0 = WaveParameters(b=2.0, a=0.0, E=0.0, c=1.0)
    assert eval_g(1.0 / 3.0, p0) == pytest.approx(4.0 / 27.0, abs=1e-15)
    p = WaveParameters(b=2.0, a=0.37, E=0.0, c=1.0)
    assert eval_g(0.0, p) == -0.37


def test_g_second_derivative_at_critical_point():
    # -b c (b c/(b+1))^(b-2) = -2 for b = 2, c = 1
    p = WaveParameters(b=2.0, a=0.1, E=0.0, c=1.0)
    h = 1e-5
    x = 1.0 / 3.0
    d2 = (eval_g(x + h, p) - 2 * eval_g(x, p) + eval_g(x - h, p)) / h**2
    assert d2 == pytest.approx(-2.0, abs=1e-5)


def test_critical_points_against_bisection(ref_params):
    scan = critical_points(ref_params)
    g = lambda phi: eval_g(phi, ref_params)
    phi1 = bisect(g, 1e-12, 1.0 / 3.0)
    phi2 = bisect(g, 1.0 / 3.0, 1.0 - 1e-9)
    assert scan.phi1 == pytest.approx(phi1, abs=1e-10)
    assert scan.phi2 == pytest.approx(phi2, abs=1e-10)
    assert scan.phi1 == pytest.approx(0.1331, abs=1e-3)
    assert scan.phi2 == pytest.approx(0.5873, abs=1e-3)
    assert abs(g(scan.phi1)) < 1e-12 and abs(g(scan.phi2)) < 1e-12
    assert scan.V_phi2 < scan.V_phi1
    assert 0 < scan.phi1 < 1.0 / 3.0 < scan.phi2 < 1.0


def test_critical_points_merge_at_amax():
    amax = a_max(2.0, 1.0)
    scan = critical_points(WaveParameters(b=2.0, a=amax * (1 - 1e-8), E=0.0, c=1.0))
    assert scan.phi1 == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert scan.phi2 == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_critical_points_b3():
    assert a_max(3.0, 1.0) == pytest.approx(27.0 / 256.0, abs=1e-15)
    scan = critical_points(WaveParameters(b=3.0, a=0.05, E=0.0, c=1.0))
    assert scan.phi1 < 0.25 < scan.phi2


def test_critical_points_rejects_bad_a():
    with pytest.raises(NotInExistenceSet):
        critical_points(WaveParameters(b=2.0, a=0.2, E=0.0, c=1.0))
    with pytest.raises(NotInExistenceSet):
        critical_points(WaveParameters(b=2.0, a=-0.1, E=0.0, c=1.0))


def test_g_prime_signs(ref_params):
    scan = critical_points(ref_params)
    h = 1e-7
    dg1 = (eval_g(scan.phi1 + h, ref_params) - eval_g(scan.phi1 - h, ref_params)) / (2 * h)
    dg2 = (eval_g(scan.phi2 + h, ref_params) - eval_g(scan.phi2 - h, ref_params)) / (2 * h)
    assert dg1 > 0 > dg2


def test_potential_stationary_at_critical_points(ref_params):
    # independent finite differencing of eval_potential
    scan = critical_points(ref_params)
    h = 1e-6
    for phi in (scan.phi1, scan.phi2):
        dV = (eval_potential(phi + h, ref_params)
              - eval_potential(phi - h, ref_params)) / (2 * h)
        assert abs(dV) < 1e-10


def test_existence_reference(ref_params):
    scan = existence_check(ref_params)
    assert scan.V_phi2 == pytest.approx(0.0699, abs=2e-4)
    assert scan.V_phi1 == pytest.approx(0.1065, abs=2e-4)


def test_existence_rejects_large_a():
    with pytest.raises(NotInExistenceSet, match="a outside"):
        existence_check(WaveParameters(b=2.0, a=0.2, E=0.09, c=1.0))


def test_existence_boundary_excluded(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2, c=1.0)
    with pytest.raises(NotInExistenceSet, match="E outside"):
        existence_check(p)


def test_existence_rejects_nonpositive_c():
    with pytest.raises(NotInExistenceSet):
        existence_check(WaveParameters(b=2.0, a=0.1, E=0.09, c=-1.0))


def test_existence_deterministic(ref_params):
    r1 = existence_check(ref_params)
    r2 = existence_check(ref_params)
    assert r1 == r2


def test_amax_monotone_in_c():
    cs = np.linspace(0.3, 3.0, 12)
    for b in (1.5, 2.0, 3.0, 4.0):
        vals = [a_max(b, c) for c in cs]
        assert np.all(np.diff(vals) > 0)


def test_critical_points_memo(ref_params):
    from bchwaves.potential import _critical_values
    key = (ref_params.b, ref_params.a, ref_params.c)
    assert _critical_values(*key) == _critical_values.__wrapped__(*key)
    # the memo holds the E-independent scan; the margin follows E
    other = WaveParameters(b=2.0, a=0.1, E=0.08, c=1.0)
    assert critical_points(other).phi1 == critical_points(ref_params).phi1
    assert critical_points(other).margin != critical_points(ref_params).margin


@pytest.mark.parametrize("e_mode,e_val,status", [
    ("frac", 0.1, "ok"), ("frac", 0.9, "ok"), ("abs", 0.09, "ok"),
    ("abs", 0.2, "NotInExistenceSet")])
def test_critical_points_scan_once_per_sweep_row(e_mode, e_val, status):
    """The E-fraction, the existence check and the turning points of one
    sweep row share one root search, also when the row is refused."""
    from bchwaves.cli import _sweep_row
    from bchwaves.potential import _critical_values

    _critical_values.cache_clear()
    row = _sweep_row({"index": 0, "b": 2.0, "a": 0.1, "e_mode": e_mode,
                      "e_val": e_val, "c": 1.0})
    assert row["status"].split(":")[0] == status
    assert _critical_values.cache_info().misses == 1


def _brentq_roots(params):
    """Oracle route for the four roots of a point: scipy's brentq on the
    numpy evaluations of g and E - V over the library's brackets, then the
    library's two-step Newton polish; (phi1, phi2, phi_min, phi_max)."""
    from scipy.optimize import brentq

    from bchwaves.potential import _BRACKET_EPS, _dg, _newton_polish
    from bchwaves.profile import _dV

    b, E, c = params.b, params.E, params.c
    g = lambda phi: eval_g(phi, params)
    P = lambda phi: E - eval_potential(phi, params)
    dP = lambda phi: -float(_dV(phi, params))
    root = lambda f, lo, hi: brentq(f, lo, hi, xtol=1e-15, rtol=9e-16)
    mid = c / (b + 1.0)
    lo = min(_BRACKET_EPS * c, params.a / (2.0 * c**b))  # g(a / (2 c^b)) < 0
    phi1 = _newton_polish(g, lambda p: _dg(p, params), root(g, lo, mid))
    phi2 = _newton_polish(g, lambda p: _dg(p, params),
                          root(g, mid, c * (1.0 - _BRACKET_EPS)))
    lo = _newton_polish(P, dP, root(P, phi1, phi2))
    hi = _newton_polish(P, dP, root(P, phi2, c * (1.0 - 1e-12)))
    return phi1, phi2, lo, hi


def _rounding_band(params, roots):
    """Width eps sum|terms| / |f'| within which the numpy evaluation of g
    (phi1, phi2) and of E - V (phi_min, phi_max) fixes each root: a Newton
    step lands anywhere in it, depending on where it starts."""
    from bchwaves.potential import _dg
    from bchwaves.profile import _dV

    b, a, E, c = params.b, params.a, params.E, params.c
    eps = np.finfo(float).eps
    g_band = [eps * 2.0 * a / abs(_dg(phi, params)) for phi in roots[:2]]
    P_band = [eps * (abs(E) + 0.5 * phi**2 + a / ((b - 1.0) * (c - phi) ** (b - 1.0)))
              / abs(float(_dV(phi, params))) for phi in roots[2:]]
    return g_band + P_band


def test_roots_match_brentq(reference_points):
    """The critical points and the turning points at the 13 panel points
    and the 72 README sweep rows agree with scipy's brentq followed by the
    same polish to 4 ulp, or to the root's rounding band where that is
    wider (panel point 0, b = 1.2: phi_max differs by 5 ulp in a band of
    11)."""
    from bchwaves.profile import turning_point_data

    points = reference_points["panel"] + reference_points["sweep"]
    assert len(points) == 85
    for point in points:
        params = WaveParameters(point["b"], point["a"], point["E"], point["c"])
        scan, tp = critical_points(params), turning_point_data(params)
        got = (scan.phi1, scan.phi2, tp.phi_min, tp.phi_max)
        want = _brentq_roots(params)
        for mine, root, band in zip(got, want, _rounding_band(params, want)):
            assert abs(mine - root) <= max(4.0 * np.spacing(root), band)


def test_bracketed_root_matches_brentq_steps():
    """On the same function the root finder takes brentq's steps."""
    from scipy.optimize import brentq

    from bchwaves.potential import _bracketed_root, _fpow

    # g at b = 200, a = 1e-300, c = 0.5 over phi2's bracket: the inverse
    # quadratic step's denominator underflows to 0 there, and brentq bisects
    g = lambda x: x * _fpow(0.5 - x, 200.0) - 1e-300
    for f, lo, hi in ((math.cos, 0.0, 2.0), (lambda x: x**3 - 2.0, 0.0, 4.0),
                      (lambda x: math.exp(x) - 5.0, -3.0, 3.0),
                      (g, 0.5 / 201.0, 0.5 * (1.0 - 1e-14))):
        assert _bracketed_root(f, lo, hi) == brentq(f, lo, hi, xtol=1e-15,
                                                    rtol=9e-16)


def test_bracketed_root_refuses_bad_brackets(monkeypatch):
    """Ends of the same sign raise ValueError, like brentq (the CLI maps it
    to exit 2); a root search that does not close its bracket in its
    allotted steps raises ConvergenceFailure instead of running on."""
    from bchwaves import ConvergenceFailure, potential

    with pytest.raises(ValueError, match="same sign"):
        potential._bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    monkeypatch.setattr(potential, "_ROOT_MAXITER", 3)
    with pytest.raises(ConvergenceFailure, match="in 3 steps"):
        potential._bracketed_root(math.cos, 0.0, 2.0)


def test_root_scan_where_the_powers_leave_the_double_range():
    """Both roots are found where (c - phi)^b nearly underflows (b = 200,
    a = 1e-300, c = 0.5: brentq's step in phi2's scan divides by an
    underflowed 0, which raised ZeroDivisionError), and a phi1 below the
    double range is refused by name."""
    params = WaveParameters(b=200.0, a=1e-300, E=0.0, c=0.5)
    scan = critical_points(params)
    assert 0.0 < scan.phi1 < 0.5 / 201.0 < scan.phi2 < 0.5
    for phi in (scan.phi1, scan.phi2):  # g changes sign within 1e-12 phi
        ends = eval_g(np.array([phi * (1 - 1e-12), phi * (1 + 1e-12)]), params)
        assert ends.min() < 0.0 < ends.max()
    with pytest.raises(ConvergenceFailure, match="phi1 lies below"):
        critical_points(WaveParameters(b=2.0, a=5e-324, E=0.0, c=1.0))


def test_amax_finite_at_large_b():
    """b^b and (b+1)^(b+1) each overflow from b = 143 on; a_max itself is
    about 1/(e (b+1)) there."""
    for b in (143.0, 300.0, 1000.0):
        want = math.exp(b * math.log(b) - (b + 1.0) * math.log(b + 1.0))
        assert a_max(b, 1.0) == pytest.approx(want, rel=1e-11)


def test_float_potential_is_infinite_where_the_power_underflows():
    """At b = 30, (c - phi)^(b-1) is 0.0 at the crest bracket end
    c (1 - 1e-12): V is +inf there, so E - V keeps its sign."""
    from bchwaves.potential import _float_potential

    assert _float_potential(30.0, 1e-3, 1.0)(1.0 - 1e-12) == math.inf


def test_potential_where_its_denominator_overflows():
    """At b = 1020, a = 0.001, c = 2, (b - 1) (c - phi1)^(b-1) exceeds the
    double range while V(phi1) = a / that - phi1^2 / 2 is ~1.7e-313, a
    subnormal.  The numpy and the float route both give it, against
    mpmath at 30 digits, to the subnormal's spacing."""
    import mpmath

    from bchwaves.potential import _float_potential

    b, a, c = 1020.0, 1e-3, 2.0
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    with mpmath.workdps(30):
        phi = mpmath.mpf(scan.phi1)
        want = float(mpmath.mpf(a) / ((b - 1) * (c - phi) ** (b - 1))
                     - phi**2 / 2)
    assert 1e-313 < want < 1e-312
    params = WaveParameters(b=b, a=a, E=0.0, c=c)
    for got in (scan.V_phi1, eval_potential(scan.phi1, params),
                _float_potential(b, a, c)(scan.phi1)):
        assert got == pytest.approx(want, rel=1e-9)
