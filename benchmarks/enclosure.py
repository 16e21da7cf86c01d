"""Check whether the program's Jacobian error bounds enclose the reference.

    python3 benchmarks/enclosure.py

For every certify-panel point and sweep row in reference.json, runs
bchwaves.parameter_jacobians and reports, per Jacobian, how often
|J - J_ref| <= err_J, with the worst ratio |J - J_ref| / err_J and the
worst relative error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bchwaves import WaveParameters, parameter_jacobians  # noqa: E402

PAIRS = (("J_T_omega1", "err_J_T_omega1"), ("J_T_F1", "err_J_T_F1"),
         ("J3", "err_J3"))


def main() -> None:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    for group in ("panel", "sweep"):
        enclosed = {name: 0 for name, _ in PAIRS}
        worst = {name: (0.0, None) for name, _ in PAIRS}
        worst_rel = {name: 0.0 for name, _ in PAIRS}
        for i, point in enumerate(ref[group]):
            params = WaveParameters(point["b"], point["a"], point["E"],
                                    point["c"])
            jac = parameter_jacobians(params)
            for name, err_name in PAIRS:
                miss = abs(getattr(jac, name) - float(point[name]))
                bound = getattr(jac, err_name)
                enclosed[name] += miss <= bound
                worst_rel[name] = max(worst_rel[name],
                                      miss / abs(float(point[name])))
                ratio = miss / bound if bound > 0 else float("inf")
                if ratio > worst[name][0]:
                    worst[name] = (ratio, i)
        for name, _ in PAIRS:
            ratio, i = worst[name]
            print(f"{group}: {name} enclosed at {enclosed[name]}/"
                  f"{len(ref[group])}; worst |J - J_ref|/err = {ratio:.3g}"
                  f" at {group} index {i}; worst |J - J_ref|/|J_ref| = "
                  f"{worst_rel[name]:.2e}")


if __name__ == "__main__":
    main()
