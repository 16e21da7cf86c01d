"""The Jacobian error bounds enclose the high-precision reference.

benchmarks/reference.json holds T, F1, F2 and the three stability
Jacobians at 85 points (the certify panel and the sweep grid), computed
with mpmath at 30 and 45 digits without importing bchwaves; only the
digits on which both precisions agree are stored.
"""

from bchwaves import WaveParameters, parameter_jacobians

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

