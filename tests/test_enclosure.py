"""The Jacobian error bounds enclose the high-precision reference.

benchmarks/reference.json holds T, F1, F2 and the three stability
Jacobians at 85 points (the certify panel and the sweep grid), computed
with mpmath at 30 and 45 digits without importing bchwaves; only the
digits on which both precisions agree are stored.
"""

from bchwaves import (WaveParameters, parameter_jacobians,
                      restricted_invariants, synthesize_profile)

PAIRS = (("J_T_omega1", "err_J_T_omega1"), ("J_T_F1", "err_J_T_F1"),
         ("J3", "err_J3"))


def test_error_bounds_enclose_reference(reference_points):
    points = reference_points["panel"] + reference_points["sweep"]
    assert len(points) == 85
    misses = []
    for point in points:
        jac = parameter_jacobians(WaveParameters(point["b"], point["a"],
                                                 point["E"], point["c"]))
        for name, err_name in PAIRS:
            want = float(point[name])
            if not abs(getattr(jac, name) - want) <= getattr(jac, err_name):
                misses.append((point["b"], point["a"], point["E"], name))
    assert not misses, f"{len(misses)} bounds miss the reference: {misses[:5]}"


def test_invariants_match_reference(reference_points):
    # measured worst: 6.4e-15 (F2; 8.9e-13 when E - V carried the roots'
    # rounded residual); the synthesized period comes from the half-period
    # map's antiderivative, the invariants from the even coefficient sums
    worst = 0.0
    for point in reference_points["panel"] + reference_points["sweep"]:
        params = WaveParameters(point["b"], point["a"], point["E"], point["c"])
        inv = restricted_invariants(params)
        for got, name in ((inv.T, "T"), (inv.F1, "F1"), (inv.F2, "F2"),
                          (synthesize_profile(params, 64).T, "T")):
            want = float(point[name])
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 5e-14
