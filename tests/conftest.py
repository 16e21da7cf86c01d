from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from bchwaves import (WaveParameters, assemble_operator, critical_points,
                      synthesize_profile)
from bchwaves.invariants import _complex_step_table, restricted_invariants
from bchwaves.potential import _critical_values
from bchwaves.profile import _synthesized, turning_point_data
from bchwaves.spectral import _parity_blocks

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
B_VALUES = (1.5, 2.0, 2.5, 3.0, 4.0)
# keep acceptance samples clear of the peakon limit c - phi_max -> 0, where
# one period stops being resolvable at the contracted grid size
STEEPNESS_GUARD = 0.15


# the one-entry memos of the per-point stages
POINT_MEMOS = (_critical_values, turning_point_data, _synthesized,
               _complex_step_table, restricted_invariants, _parity_blocks)


@pytest.fixture(autouse=True)
def clear_point_memos():
    """Start every test with empty per-point memos, so that no test reads
    an entry another one left and call counts start from zero."""
    for memo in POINT_MEMOS:
        memo.cache_clear()


def sample_admissible(n: int, seed: int,
                      guard: float = STEEPNESS_GUARD) -> list[WaveParameters]:
    """Random admissible parameter tuples across the b list, biased
    nowhere in particular, rejected only when too close to the peakon
    limit for the contracted resolutions."""
    from bchwaves.potential import a_max

    rng = np.random.default_rng(seed)
    out: list[WaveParameters] = []
    while len(out) < n:
        b = B_VALUES[int(rng.integers(len(B_VALUES)))]
        c = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.15, 0.85)) * a_max(b, c)
        scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
        E = scan.V_phi2 + float(rng.uniform(0.1, 0.8)) * (scan.V_phi1 - scan.V_phi2)
        params = WaveParameters(b=b, a=a, E=E, c=c)
        tp = turning_point_data(params)
        if c - tp.phi_max < guard * c:
            continue
        out.append(params)
    return out


@pytest.fixture(scope="session")
def ref_params() -> WaveParameters:
    return WaveParameters(b=2.0, a=0.1, E=0.09, c=1.0)


@pytest.fixture(scope="session")
def ref_scan(ref_params):
    return critical_points(ref_params)


@pytest.fixture(scope="session")
def ref_profile(ref_params):
    return synthesize_profile(ref_params, 512)


@pytest.fixture(scope="session")
def ref_coeffs(ref_profile):
    return assemble_operator(ref_profile)


@pytest.fixture(scope="session")
def reference_points() -> dict:
    """The high-precision reference of the benchmark: "panel" holds the 13
    certify points and "sweep" the README grid rows, each a dict of
    b, a, E, c and the reference values."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
