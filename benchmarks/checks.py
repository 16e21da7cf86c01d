"""Output checks for the benchmark workloads.

Each check takes plain records extracted from the program's outputs plus
the high-precision reference (reference.json) and returns a list of
failure messages; an empty list means the output is correct.  The checks
hold the program to the reference and to properties the method must
have, never to a saved copy of an earlier run.
"""

from __future__ import annotations

import math

CLASS_STABLE = "StableCriteriaMet"
CLASS_PRODUCT_FAIL = "ProductSignFail"
CLASS_TWO_NEGATIVE = "TwoNegativeDirections"
# the program's Gauss quadrature stops at a relative change of 1e-11
SCALAR_RTOL = 1e-8
MAX_DRIFT = 1e-8
MAX_UNPERTURBED_RHO = 1e-6
MAX_RATIO_SPREAD = 3.0
SWEEP_FAULT = "DiscretizationNotConverged"


def ref_value(ref: dict, key: str) -> float:
    """A reference figure; NaN when the two precisions left no digit."""
    text = ref[key]
    return math.nan if text == "unresolved" else float(text)


def _ref_rtol(ref: dict, key: str) -> float:
    """Relative uncertainty of a reference figure from its stored digits."""
    mantissa = ref[key].lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return 10.0 ** (1 - max(len(mantissa), 1))


def _scalar(name: str, got: float, ref: dict, key: str) -> list[str]:
    want = ref_value(ref, key)
    tol = max(SCALAR_RTOL, _ref_rtol(ref, key)) * abs(want)
    if not abs(got - want) <= tol:
        return [f"{name}: {got!r} vs reference {want!r}"]
    return []


def expected_class(ref: dict) -> str | None:
    """Classification that the reference signs call for."""
    J1, prod = ref_value(ref, "J_T_omega1"), ref_value(ref, "product")
    if math.isnan(J1) or math.isnan(prod) or J1 == 0.0 or prod == 0.0:
        return None
    if J1 < 0.0:
        return CLASS_TWO_NEGATIVE
    return CLASS_STABLE if prod > 0.0 else CLASS_PRODUCT_FAIL


def _decision(tag: str, rec: dict, ref: dict) -> list[str]:
    """Figures, signs and inertia shared by a certificate and a sweep row."""
    out = []
    for key in ("T", "F1", "F2", "omega1"):
        out += _scalar(f"{tag} {key}", rec[key], ref, key)
    want = expected_class(ref)
    if want is None:
        return out + [f"{tag}: reference leaves a sign unresolved"]
    J1_ref, prod_ref = ref_value(ref, "J_T_omega1"), ref_value(ref, "product")
    if math.copysign(1.0, rec["J_T_omega1"]) != math.copysign(1.0, J1_ref):
        out.append(f"{tag}: sign of {{T,omega1}} {rec['J_T_omega1']!r} "
                   f"vs reference {J1_ref!r}")
    prod = rec["J_T_F1"] * rec["J3"]
    if math.copysign(1.0, prod) != math.copysign(1.0, prod_ref):
        out.append(f"{tag}: sign of {{T,F1}}*{{T,F1,F2}} {prod!r} "
                   f"vs reference {prod_ref!r}")
    if rec["classification"] != want:
        out.append(f"{tag}: classification {rec['classification']} "
                   f"vs reference {want}")
    inertia = (1, 1) if J1_ref > 0.0 else (2, 1)
    if (rec["n_neg"], rec["n_zero"]) != inertia:
        out.append(f"{tag}: inertia ({rec['n_neg']},{rec['n_zero']}) "
                   f"where {{T,omega1}} calls for {inertia}")
    return out


def check_certificate(rec: dict, ref: dict) -> list[str]:
    """One certify operation: the decision, the quadratic form <L psi, psi>
    (negative exactly when the product is positive) and the constrained
    coercivity probe (positive at certified-stable points)."""
    tag = f"point b={ref['b']} a={ref['a']!r}"
    out = _decision(tag, rec, ref)
    out += _scalar(f"{tag} profile T", rec["T_profile"], ref, "T")
    prod_ref = ref_value(ref, "product")
    if (rec["psi_quadform"] < 0.0) != (prod_ref > 0.0):
        out.append(f"{tag}: <L psi, psi> = {rec['psi_quadform']!r} does not "
                   f"match the product sign {prod_ref!r}")
    if expected_class(ref) == CLASS_STABLE and not (
            rec["probe_min"] > 0.0 and rec["probe_negative"] == 0):
        out.append(f"{tag}: constrained probe minimum {rec['probe_min']!r} "
                   f"with {rec['probe_negative']} negative directions")
    return out


def check_sweep(rows: list[dict], grid: list[dict], rows_done: int
                ) -> tuple[list[str], int]:
    """One pass of the sweep: every grid row present in grid order, each
    `ok` row agreeing with the reference, every other row a
    DiscretizationNotConverged row.  Returns (failures, rows failed)."""
    out = []
    if len(rows) != len(grid) or rows_done != len(grid):
        return [f"sweep wrote {len(rows)} rows, manifest {rows_done}, "
                f"grid has {len(grid)}"], 0
    failed = 0
    for i, (row, ref) in enumerate(zip(rows, grid)):
        tag = f"sweep row {i}"
        if int(row["index"]) != i:
            out.append(f"{tag}: index {row['index']}")
            continue
        for key in ("b", "a", "c"):
            if float(row[key]) != ref[key]:
                out.append(f"{tag}: {key} {row[key]} vs grid {ref[key]!r}")
        if not abs(float(row["E"]) - ref["E"]) <= 1e-12:
            out.append(f"{tag}: E {row['E']} vs reference {ref['E']!r}")
        if row["status"] != "ok":
            failed += 1
            if not row["status"].startswith(SWEEP_FAULT):
                out.append(f"{tag}: unexpected failure {row['status']!r}")
            continue
        rec = {k: float(row[k]) for k in ("T", "F1", "F2", "omega1",
                                          "J_T_omega1", "J_T_F1", "J3")}
        rec.update(classification=row["classification"],
                   n_neg=int(row["n_neg"]), n_zero=int(row["n_zero"]))
        out += _decision(tag, rec, ref)
    return out, failed


def check_ladder(members: list[dict]) -> list[str]:
    """One criterion-9 ladder: every member completes, the invariants
    drift by less than 1e-8, the unperturbed wave stays within 1e-6 of its
    orbit, and the response ratio max_rho/eps varies by less than 3x."""
    out = []
    ratios = []
    for m in members:
        tag = f"ladder eps={m['eps']!r}"
        if m["outcome"] != "completed":
            out.append(f"{tag}: outcome {m['outcome']}")
        if not m["max_drift"] < MAX_DRIFT:
            out.append(f"{tag}: invariant drift {m['max_drift']!r}")
        if m["eps"] == 0.0:
            if not m["max_rho"] < MAX_UNPERTURBED_RHO:
                out.append(f"{tag}: unperturbed max_rho {m['max_rho']!r}")
        else:
            ratios.append(m["max_rho"] / m["eps"])
    if not ratios or min(ratios) <= 0.0:
        out.append(f"ladder: response ratios {ratios!r}")
    elif not max(ratios) / min(ratios) < MAX_RATIO_SPREAD:
        out.append(f"ladder: ratio spread {max(ratios) / min(ratios)!r}")
    return out
