"""The output checks pass on outputs that agree with the reference and fail
on corrupted ones.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import json
from pathlib import Path

import pytest

import checks

REF = json.loads((Path(__file__).parent / "reference.json").read_text())


def certificate(ref: dict) -> dict:
    """A certify record that says exactly what the reference says."""
    f = lambda key: float(ref[key])
    return {"classification": checks.expected_class(ref), "T": f("T"),
            "T_profile": f("T"), "F1": f("F1"), "F2": f("F2"),
            "omega1": f("omega1"), "J_T_omega1": f("J_T_omega1"),
            "J_T_F1": f("J_T_F1"), "J3": f("J3"),
            "n_neg": 1 if f("J_T_omega1") > 0 else 2, "n_zero": 1,
            "psi_quadform": -1.0 if f("product") > 0 else 1.0,
            "probe_min": 0.25, "probe_negative": 0}


def sweep_rows(grid: list[dict]) -> list[dict]:
    """sweep.csv rows, as strings, that agree with the reference."""
    rows = []
    for i, ref in enumerate(grid):
        rec = certificate(ref)
        row = {"index": str(i), "status": "ok"}
        row.update({k: repr(ref[k]) for k in ("b", "a", "E", "c")})
        row.update({k: repr(rec[k]) for k in ("T", "F1", "F2", "omega1",
                                              "J_T_omega1", "J_T_F1", "J3")})
        row.update(classification=rec["classification"],
                   n_neg=str(rec["n_neg"]), n_zero=str(rec["n_zero"]))
        rows.append(row)
    return rows


def ladder() -> list[dict]:
    return [{"eps": eps, "outcome": "completed", "max_rho": 3.56 * eps + 5e-8,
             "max_drift": 1e-10, "steps": 643}
            for eps in (1e-3, 5e-4, 2.5e-4, 0.0)]


def test_reference_covers_both_decisions():
    classes = {checks.expected_class(ref) for ref in REF["panel"]}
    assert classes >= {checks.CLASS_STABLE, checks.CLASS_PRODUCT_FAIL}
    assert len(REF["sweep"]) == 72


@pytest.mark.parametrize("ref", REF["panel"], ids=lambda r: f"b{r['b']}")
def test_certificate_checks_accept_the_reference(ref):
    assert checks.check_certificate(certificate(ref), ref) == []


CORRUPTIONS = {
    "flipped {T,omega1}": lambda r: r.update(J_T_omega1=-r["J_T_omega1"]),
    "flipped {T,F1,F2}": lambda r: r.update(J3=-r["J3"]),
    "flipped {T,F1}": lambda r: r.update(J_T_F1=-r["J_T_F1"]),
    "T off by 1e-6": lambda r: r.update(T=r["T"] * (1 + 1e-6)),
    "profile T off by 1e-6": lambda r: r.update(T_profile=r["T_profile"] * (1 + 1e-6)),
    "F2 off by 1e-6": lambda r: r.update(F2=r["F2"] * (1 - 1e-6)),
    "omega1 off by 1e-6": lambda r: r.update(omega1=r["omega1"] * (1 + 1e-6)),
    "wrong class": lambda r: r.update(classification=checks.CLASS_TWO_NEGATIVE),
    "inertia (2,1)": lambda r: r.update(n_neg=2),
    "no zero eigenvalue": lambda r: r.update(n_zero=0),
    "flipped <L psi, psi>": lambda r: r.update(psi_quadform=-r["psi_quadform"]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_certificate_checks_reject_corruption(name):
    for ref in REF["panel"]:
        rec = certificate(ref)
        CORRUPTIONS[name](rec)
        assert checks.check_certificate(rec, ref), name


def test_probe_must_be_positive_at_stable_points():
    stable = [r for r in REF["panel"]
              if checks.expected_class(r) == checks.CLASS_STABLE]
    rec = certificate(stable[0])
    rec["probe_min"] = -1e-3
    assert checks.check_certificate(rec, stable[0])
    rec["probe_min"], rec["probe_negative"] = 0.25, 3
    assert checks.check_certificate(rec, stable[0])


def test_sweep_checks_accept_the_reference_and_count_the_fault():
    grid = REF["sweep"]
    rows = sweep_rows(grid)
    assert checks.check_sweep(rows, grid, 72) == ([], 0)
    for i in (2, 3, 44):
        rows[i] = {**rows[i], "status": "DiscretizationNotConverged: moved",
                   "classification": "", "T": ""}
    assert checks.check_sweep(rows, grid, 72) == ([], 3)


@pytest.mark.parametrize("name", ["other failure", "swapped rows",
                                  "missing row", "flipped sign", "wrong E",
                                  "wrong inertia", "short manifest"])
def test_sweep_checks_reject_corruption(name):
    grid = REF["sweep"]
    rows = sweep_rows(grid)
    done = 72
    if name == "other failure":
        rows[5] = {**rows[5], "status": "FDUnreliable: product"}
    elif name == "swapped rows":
        rows[3], rows[4] = rows[4], rows[3]
    elif name == "missing row":
        rows.pop()
    elif name == "flipped sign":
        rows[10] = {**rows[10], "J3": repr(-float(rows[10]["J3"]))}
    elif name == "wrong E":
        rows[7] = {**rows[7], "E": repr(float(rows[7]["E"]) + 1e-9)}
    elif name == "wrong inertia":
        rows[9] = {**rows[9], "n_neg": "2"}
    elif name == "short manifest":
        done = 71
    problems, _ = checks.check_sweep(rows, grid, done)
    assert problems, name


def test_ladder_checks():
    assert checks.check_ladder(ladder()) == []
    bad = ladder()
    bad[1]["max_drift"] = 3e-8
    assert checks.check_ladder(bad)
    bad = ladder()
    bad[3]["max_rho"] = 2e-6
    assert checks.check_ladder(bad)
    bad = ladder()
    bad[0]["outcome"] = "positivity_lost"
    assert checks.check_ladder(bad)
    bad = ladder()
    bad[0]["max_rho"] *= 4.0
    assert checks.check_ladder(bad)
