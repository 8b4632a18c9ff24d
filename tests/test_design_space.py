import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmropt.design_space import (
    NOMINAL_DESIGN,
    DesignVector,
    from_unit_cube,
    is_valid,
    read_design_file,
    resolve_bounds,
    to_unit_cube,
    validate,
    write_design_file,
)
from hpmropt.errors import BoundsDomainError, DecodeError

UNIT = st.floats(0.0, 1.0, allow_nan=False)


class TestResolveBounds:
    def test_nominal_pitch(self):
        cr, mr = resolve_bounds(2.3)
        assert cr == (0.575, 1.15)
        assert mr[0] == pytest.approx(0.422)
        assert mr[1] == pytest.approx(1.055)

    def test_lower_pitch(self):
        cr, _ = resolve_bounds(1.94)
        assert cr == (0.485, 0.97)

    def test_upper_pitch(self):
        _, mr = resolve_bounds(2.78)
        assert mr[0] == pytest.approx(0.518)
        assert mr[1] == pytest.approx(1.295)

    @pytest.mark.parametrize("x_pp", [1.9, 2.8, 0.0, -1.0])
    def test_domain_error(self, x_pp):
        with pytest.raises(BoundsDomainError):
            resolve_bounds(x_pp)

    def test_intervals_nonempty_over_pitch_range(self):
        for x_pp in np.linspace(1.94, 2.78, 200):
            (cr_lo, cr_hi), (mr_lo, mr_hi) = resolve_bounds(x_pp)
            assert cr_lo < cr_hi
            assert mr_lo < mr_hi


class TestValidate:
    def test_nominal_ok(self):
        assert validate(NOMINAL_DESIGN) == []

    def test_compact_radius_violation(self):
        bad = DesignVector(90, 0.95, 160, 2.3, 0.197, 1.2, 0.825)
        problems = validate(bad)
        assert len(problems) == 1
        assert "x_cr" in problems[0]

    def test_all_lower_bounds_ok(self):
        low = DesignVector(35, 0.20, 130, 1.94, 0.17, 0.485, 0.35)
        assert validate(low) == []

    def test_names_every_violation(self):
        bad = DesignVector(10, 0.1, 100, 2.3, 0.3, 1.2, 0.2)
        problems = "\n".join(validate(bad))
        for name in ("x_ca", "x_b10", "x_fh", "x_e", "x_cr", "x_mr"):
            assert name in problems


class TestFromUnitCube:
    def test_lower_corner(self):
        d = from_unit_cube(np.zeros(7))
        assert d == DesignVector(35.0, 0.20, 130.0, 1.94, 0.17, 0.485, 0.35)

    def test_upper_corner(self):
        d = from_unit_cube(np.ones(7))
        assert d.x_ca == 180.0 and d.x_fh == 190.0 and d.x_pp == 2.78
        assert d.x_cr == pytest.approx(1.39)
        assert d.x_mr == pytest.approx(1.295)

    def test_midpoint(self):
        d = from_unit_cube(np.full(7, 0.5))
        assert d.x_ca == pytest.approx((35 + 180) / 2)
        assert d.x_pp == pytest.approx((1.94 + 2.78) / 2)
        (cr_lo, cr_hi), (mr_lo, mr_hi) = resolve_bounds(d.x_pp)
        assert d.x_cr == pytest.approx((cr_lo + cr_hi) / 2)
        assert d.x_mr == pytest.approx((mr_lo + mr_hi) / 2)

    @pytest.mark.parametrize("u", [[2, 0, 0, 0, 0, 0, 0], [-0.1] + [0.5] * 6,
                                   [0.5] * 6, [np.nan] + [0.5] * 6])
    def test_decode_errors(self, u):
        with pytest.raises(DecodeError):
            from_unit_cube(np.asarray(u, dtype=float))

    @pytest.mark.parametrize("u", [
        np.full((1, 7), 0.5), np.full(8, 0.5), [[0.5] * 7] * 2,
        [0.5] * 6 + [np.nan], [np.inf] + [0.5] * 6, [0.5] * 3 + [-np.inf] + [0.5] * 3,
        [0.5] * 6 + [-1e-300], [0.5] * 6 + [1.0 + 1e-15],
    ])
    def test_decode_rejects_shape_non_finite_and_out_of_range(self, u):
        with pytest.raises(DecodeError):
            from_unit_cube(u)

    def test_decode_accepts_the_closed_cube(self):
        # both ends are admissible, given as an array, a list or ints
        for u in (np.zeros(7), [1.0] * 7, [0, 1, 0, 1, 0, 1, 0]):
            assert is_valid(from_unit_cube(u))

    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(UNIT, min_size=7, max_size=7))
    def test_every_decode_is_valid(self, u):
        assert is_valid(from_unit_cube(np.array(u)))

    @settings(max_examples=50, deadline=None)
    @given(u=st.lists(st.floats(0.0, 0.9, allow_nan=False), min_size=7, max_size=7),
           coord=st.integers(0, 6), bump=st.floats(0.01, 0.1))
    def test_monotone_per_coordinate(self, u, coord, bump):
        u = np.array(u)
        higher = u.copy()
        higher[coord] += bump
        a = from_unit_cube(u).as_array()
        b = from_unit_cube(higher).as_array()
        assert b[coord] >= a[coord]

    def test_round_trip_with_to_unit_cube(self, rng):
        for _ in range(50):
            u = rng.random(7)
            assert to_unit_cube(from_unit_cube(u)) == pytest.approx(u, abs=1e-12)


def test_design_file_round_trip(tmp_path):
    path = tmp_path / "design.txt"
    write_design_file(NOMINAL_DESIGN, path)
    assert read_design_file(path) == NOMINAL_DESIGN


def test_design_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x_ca = not-a-number\n")
    with pytest.raises(DecodeError):
        read_design_file(path)
    path.write_text("x_zz = 1.0\n")
    with pytest.raises(DecodeError):
        read_design_file(path)
