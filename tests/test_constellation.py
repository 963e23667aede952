import numpy as np
import pytest

from nakfade.constellation import KNOWN_NAMES, Constellation, from_name, make_psk, make_qam


class TestQam:
    def test_qpsk_points(self):
        pts = np.sort_complex(make_qam(2).points)
        expected = np.sort_complex(np.array([a + 1j * b for a in (-1, 1) for b in (-1, 1)]) / np.sqrt(2.0))
        assert np.allclose(pts, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_unit_energy_and_distinct(self, M):
        c = make_qam(M)
        assert c.size == 2**M
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12
        assert len(np.unique(c.points)) == c.size

    def test_qam16_min_squared_distance(self):
        pts = make_qam(4).points
        d2 = np.abs(pts[:, None] - pts[None, :]) ** 2
        assert np.min(d2[d2 > 0]) == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("M", [2, 4, 6])
    def test_negation_and_conjugation_symmetry(self, M):
        pts = make_qam(M).points
        as_set = set(np.round(pts, 12))
        assert set(np.round(-pts, 12)) == as_set
        assert set(np.round(np.conj(pts), 12)) == as_set

    @pytest.mark.parametrize("M", [1, 3, 5, 7])
    def test_rejects_odd(self, M):
        with pytest.raises(ValueError):
            make_qam(M)

    @pytest.mark.parametrize("M", [2, 4, 6, 8])
    def test_gray_ordering(self, M):
        # Point hi * side + lo is levels[gray(hi)] + j levels[gray(lo)], gray(k) = k ^ (k >> 1).
        c = make_qam(M)
        side, gray = 2 ** (M // 2), lambda k: k ^ (k >> 1)
        expected = [c.grid_levels[gray(hi)] + 1j * c.grid_levels[gray(lo)] for hi in range(side) for lo in range(side)]
        assert c.points.tobytes() == np.array(expected).tobytes()

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            make_qam(10)


class TestPsk:
    def test_bpsk(self):
        assert set(make_psk(1).points) == {1 + 0j, -1 + 0j}

    def test_qpsk_roots_of_unity(self):
        pts = np.sort_complex(np.round(make_psk(2).points, 12))
        assert np.array_equal(pts, np.sort_complex(np.round(np.exp(2j * np.pi * np.arange(4) / 4), 12)))

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_unit_modulus(self, M):
        assert np.max(np.abs(np.abs(make_psk(M).points) - 1.0)) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_psk(0)


class TestConstellationType:
    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            Constellation(np.array([2.0 + 0j, -2.0 + 0j]), 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0 + 0j, 1.0 + 0j]), 1)

    def test_arrays_are_read_only_copies(self):
        pts, levels = make_qam(2).points.copy(), make_qam(2).grid_levels.copy()
        c = Constellation(pts, 2, grid_levels=levels)
        for values in (c.points, c.grid_levels):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        # The caller's own arrays stay writeable.
        assert pts.flags.writeable and levels.flags.writeable

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0 + 0j, -1.0 + 0j]), 2)


class TestNames:
    @pytest.mark.parametrize("name", KNOWN_NAMES)
    def test_known_names_resolve(self, name):
        c = from_name(name)
        assert c.size == int(name[3:])

    def test_each_name_builds_one_constellation(self):
        assert from_name("psk8") is from_name("psk8")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            from_name("apsk32")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            from_name("psk12")
