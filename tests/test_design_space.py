import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # x_mr used to decode to 0.9012500000000001, past its 0.90125 bound
    @example(u=[0.0, 0.0, 0.0, 0.0625, 0.0, 0.0, 1.0])
    def test_every_decode_is_valid(self, u):
        assert is_valid(from_unit_cube(np.array(u)))

    def test_full_radii_decode_inside_their_coupled_bounds(self):
        # lo + 1.0 * (hi - lo) used to round past hi for about 0.7% of the
        # pitches; an NSGA-II gene clipped to 1.0 decodes exactly there
        pitches = np.random.default_rng(5).random(100_000).tolist()
        invalid = [v_pp for v_pp in pitches
                   if not is_valid(from_unit_cube([0.5, 0.5, 0.5, v_pp, 0.5, 1.0, 1.0]))]
        assert invalid == []

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

    @pytest.mark.parametrize("u, same_as", [
        ([0.25, 0.5, 0.75, 1.0, 0.0, 0.125, 0.875],
         np.array([0.25, 0.5, 0.75, 1.0, 0.0, 0.125, 0.875])),
        (np.array([0, 1, 0, 1, 1, 0, 1]), np.array([0.0, 1, 0, 1, 1, 0, 1])),
        (np.arange(1, 8, dtype=np.float32) / 10,
         (np.arange(1, 8, dtype=np.float32) / 10).astype(float)),
        (np.full(7, 0.3, dtype=">f8"), np.full(7, 0.3)),
    ])
    def test_any_array_like_decodes_as_float64(self, u, same_as):
        assert repr(from_unit_cube(u)) == repr(from_unit_cube(same_as))

    @pytest.mark.parametrize("u, message", [
        (np.full((1, 7), 0.5), "expected 7 coordinates, got shape (1, 7)"),
        ([[0.5] * 7], "expected 7 coordinates, got shape (1, 7)"),
        (np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.1], dtype=np.float32),
         "coordinates outside [0, 1]: [0.10000000149011612, 0.20000000298023224, "
         "0.30000001192092896, 0.4000000059604645, 0.5, 0.6000000238418579, "
         "1.100000023841858]"),
        ([0, 2, 0, 0, 0, 0, 0],
         "coordinates outside [0, 1]: [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]"),
        ([0.5] * 6 + [np.nan],
         "coordinates outside [0, 1]: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, nan]"),
    ])
    def test_decode_error_text(self, u, message):
        with pytest.raises(DecodeError) as info:
            from_unit_cube(u)
        assert str(info.value) == message

    def test_decoded_design_is_a_frozen_value(self):
        d = from_unit_cube(np.array([0.1, 0.9, 0.3, 0.7, 0.5, 0.2, 0.8]))
        fields = [getattr(d, f.name) for f in dataclasses.fields(d)]
        built = DesignVector(*fields)
        assert d == built and built == d
        assert hash(d) == hash(built)
        assert repr(d) == repr(built)
        assert pickle.dumps(d) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(d)) == d
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.x_ca = 40.0
        assert dataclasses.replace(d, x_ca=40.0).x_ca == 40.0


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


def test_design_file_rejects_a_repeated_key(tmp_path):
    # the last value used to win without a word: x_pp 2.3 then 2.78
    # evaluated at 2.78
    nominal = tmp_path / "nominal.txt"
    write_design_file(NOMINAL_DESIGN, nominal)
    lines = nominal.read_text().splitlines()
    pitch = next(i for i, line in enumerate(lines) if line.startswith("x_pp"))
    lines[pitch:pitch + 1] = ["x_pp = 2.3", "x_pp = 2.78"]
    path = tmp_path / "repeated.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DecodeError) as raised:
        read_design_file(path)
    message = str(raised.value)
    assert str(path) in message and "'x_pp'" in message
    assert f"{path}:{pitch + 2}:" in message and f"line {pitch + 1}" in message
