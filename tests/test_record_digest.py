"""Records on a small fixed grid: the oracle's pinned bit for bit, the
package's within the error bound its record builder derives.

``test_records_bit_identical`` runs the walk with the high-precision
oracle (``oracles.records.build_record``) in place of the package's record
builder and hashes the repr of every record's fields and of the walk's
coefficients, flags and counters.  The digests were taken from the record
builder that went through the angles phi and phi_max (atan2, asin, then the
twist's two sines), and the oracle reproduces them to the last bit.  The
record counts are asserted too, so an empty grid cannot pass.

``test_records_match_the_oracle`` compares the package's float records with
the oracle's on the same grid: integer and boolean fields, the weight, the
walk's counters and every clamp to the base are equal, and the float fields
lie within the bounds stated in ``cuspflow.excursions``.
"""

import hashlib
from fractions import Fraction

import pytest

from cuspflow import excursions
from cuspflow.excursions import RECORD_ERROR, TrajectoryConfig, enumerate_excursions
from cuspflow.origami import TORUS, epsilon0, parse_origami
from oracles.records import assert_matches_oracle, build_record

L_ORIGAMI = parse_origami("3; (1 2); (1 3)")
ORBIT8 = parse_origami("8; (1 2 3 4 5 6 7 8); (1 3)(2 5)(4 7)")

RECORD_FIELDS = ("p", "q", "cyl_index", "weight", "t_entry", "t_exit", "E", "E_area", "tw", "complete")
# [0; 1, 25, 2, 40, 1, 1, 60, 3, 90]: deep hits, then the rational terminal
DEEP_RATIONAL = Fraction(68932786, 71636679)


def digest(result) -> str:
    records = tuple(tuple(getattr(r, f) for f in RECORD_FIELDS) for r in result.records)
    summary = (
        records,
        result.coefficients,
        result.rational_terminal,
        result.overlap_pairs,
        result.base_inside_clamps,
        result.exact_hit_tests,
    )
    return hashlib.sha256(repr(summary).encode()).hexdigest()


# (surface, T, seed, theta, eps factor of epsilon0, records, sha256)
CASES = {
    "torus-1": (
        TORUS, 100.0, 1, None, 0.5, 14,
        "15d1027cdcb3affc80b1a761a478b42f27d238530593d522e05a2680db7aea14",
    ),
    "torus-2": (
        TORUS, 100.0, 2, None, 1.0, 32,
        "e7695d1847eab1d67b26bfebc70796af95cf060bcd70ec5fdb75a385d033368b",
    ),
    "torus-3": (
        TORUS, 100.0, 3, None, 0.5, 12,
        "1286bd0112fd131e7f9453d3c7b686608b6a58dd34587f5a576d55faf8b56dae",
    ),
    "torus-rational": (
        TORUS, 40.0, None, DEEP_RATIONAL, 1.0, 5,
        "fe9e337ce08400b0b15b6fb8d0e80bacf7466669379beb481edac23c3765eed5",
    ),
    "L-1": (
        L_ORIGAMI, 100.0, 1, None, 1.0, 25,
        "04df8ffda8567ea07ea4dc765e43a8d1608fd82136964ce11cb0b604785aef71",
    ),
    "L-2": (
        L_ORIGAMI, 100.0, 2, None, 0.5, 14,
        "db25daa67ae48e139c04fd4148c67c54d7065da697d1ffbe722d9be15c493d42",
    ),
    "L-3": (
        L_ORIGAMI, 100.0, 3, None, 1.0, 20,
        "55df027146ad9cc7e206f2a60a10d0f5f28ddf1c720f4864ffe97f1a4340e5ed",
    ),
    "L-rational": (
        L_ORIGAMI, 40.0, None, DEEP_RATIONAL, 0.5, 4,
        "1b27719e2dc3a81b8aedbcc5a35c10682252d4afa762af2d9370791d6c9c38ea",
    ),
    "8-square-1": (
        ORBIT8, 100.0, 1, None, 0.5, 10,
        "46415ca341c237bf7931e6dbd83346c0bd70853fdd722444ff5e6ebf4cb6a1bb",
    ),
    "8-square-2": (
        ORBIT8, 100.0, 2, None, 1.0, 33,
        "eac1b0eda25fa25a879af2b5f0627932d3d2ea0efd8c7ac9d1e07c3c62fee718",
    ),
    "8-square-3": (
        ORBIT8, 100.0, 3, None, 0.5, 8,
        "c60a6a0b66f5f23dad995dbaa6f421247912e21b11cbc3a77514a133d1b12666",
    ),
    "8-square-rational": (
        ORBIT8, 40.0, None, DEEP_RATIONAL, 1.0, 6,
        "b3d892bebe612a8491d9ec5ceacd15d69c6bf6719a1d26631c1eb90621c91f6f",
    ),
}


def run(case, monkeypatch=None):
    """The walk on one case; with ``monkeypatch``, records come from the oracle."""
    surface, T, seed, theta, eps_factor, count, sha = CASES[case]
    if monkeypatch is not None:
        monkeypatch.setattr(excursions, "_build_record", lambda *args: (build_record(*args), 0))
    eps = epsilon0(surface) * eps_factor
    return enumerate_excursions(TrajectoryConfig(surface=surface, T=T, seed=seed, theta=theta, eps=eps))


@pytest.mark.parametrize("case", list(CASES))
def test_records_bit_identical(case, monkeypatch):
    surface, T, seed, theta, eps_factor, count, sha = CASES[case]
    result = run(case, monkeypatch)
    assert len(result.records) == count
    assert result.rational_terminal == (theta is not None)
    assert digest(result) == sha


@pytest.mark.parametrize("case", list(CASES))
def test_records_match_the_oracle(case, monkeypatch):
    result = run(case)
    reference = run(case, monkeypatch)
    assert len(result.records) == len(reference.records) == CASES[case][5]
    for rec, ref in zip(result.records, reference.records):
        assert_matches_oracle(rec, ref)
    for field in ("coefficients", "rational_terminal", "overlap_pairs", "base_inside_clamps",
                  "hit_tests", "exact_hit_tests"):
        assert getattr(result, field) == getattr(reference, field), field
    # no record on this grid comes near a band: every term is a float one
    assert result.exact_record_terms == 0


def test_record_error_bound_is_below_the_tolerance():
    assert RECORD_ERROR <= 1e-12
