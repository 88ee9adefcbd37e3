import numpy as np
import pytest

from pagelayout.channels import (
    ChannelMaps,
    MapFormatError,
    OrientationMaps,
    read_maps,
    rotate_maps,
    write_maps,
)

from oracles import rotate_index_oracle


def random_maps(rng, h=64, w=64):
    u = lambda: rng.uniform(0, 1, (h, w)).astype(np.float32)
    return ChannelMaps(u(), u(), rng.uniform(0, 30, (h, w)).astype(np.float32), rng.uniform(0, 12, (h, w)).astype(np.float32), u())


class TestContainer:
    def test_zero_maps_round_trip(self):
        maps = ChannelMaps.zeros(2, 2)
        back = read_maps(write_maps(maps))
        assert isinstance(back, ChannelMaps)
        for name, arr in back.channels().items():
            assert arr.shape == (2, 2)
            assert not arr.any(), name

    def test_write_read_write_is_identity_bytes(self):
        rng = np.random.default_rng(1)
        data = write_maps(random_maps(rng))
        assert write_maps(read_maps(data)) == data

    def test_random_round_trip_bit_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            maps = random_maps(rng)
            back = read_maps(write_maps(maps))
            for name in ("base", "end", "asc", "des", "block"):
                assert np.array_equal(getattr(maps, name), getattr(back, name))

    def test_orientation_round_trip(self):
        rng = np.random.default_rng(3)
        maps = OrientationMaps(
            rng.uniform(-1, 1, (8, 9)).astype(np.float32), rng.uniform(-1, 1, (8, 9)).astype(np.float32)
        )
        back = read_maps(write_maps(maps))
        assert isinstance(back, OrientationMaps)
        assert np.array_equal(back.ox, maps.ox)
        assert np.array_equal(back.oy, maps.oy)

    def test_mutable_input_is_copied_once(self):
        rng = np.random.default_rng(4)
        maps = random_maps(rng, 5, 7)
        data = write_maps(maps)
        for source in (bytearray(data), memoryview(bytearray(data))):
            back = read_maps(source)
            source[17:] = bytes(len(data) - 17)  # the planes do not see later writes to the input
            assert back == maps
            assert not any(arr.flags.writeable for arr in back.channels().values())

    def test_bad_magic(self):
        with pytest.raises(MapFormatError, match="magic"):
            read_maps(b"NOPE" + bytes(20))

    def test_bad_version(self):
        data = bytearray(write_maps(ChannelMaps.zeros(2, 2)))
        data[4] = 9
        with pytest.raises(MapFormatError, match="version"):
            read_maps(bytes(data))

    def test_truncated(self):
        data = write_maps(ChannelMaps.zeros(4, 4))
        with pytest.raises(MapFormatError, match="truncated"):
            read_maps(data[:-3])

    def test_nan_payload(self):
        data = bytearray(write_maps(ChannelMaps.zeros(2, 2)))
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        with pytest.raises(MapFormatError, match="NaN"):
            read_maps(bytes(data))

    def test_size_overflow(self):
        import struct

        header = b"PNCM" + struct.pack("<BIII", 1, 1 << 20, 1 << 20, 5)
        with pytest.raises(MapFormatError, match="overflow"):
            read_maps(header + bytes(64))

    def test_unexpected_channel_set(self):
        import struct

        payload = np.zeros((2, 2), dtype="<f4").tobytes()
        rec = struct.pack("<B", 3) + b"foo" + payload
        data = b"PNCM" + struct.pack("<BIII", 1, 2, 2, 1) + rec
        with pytest.raises(MapFormatError, match="channel set"):
            read_maps(data)

    def test_repeated_channel_name(self):
        import struct

        records = b""
        for k, name in enumerate(("base", "end", "asc", "des", "block", "base")):
            plane = np.full((2, 2), 0.25 * (k % 5), dtype="<f4").tobytes()
            records += struct.pack("<B", len(name)) + name.encode() + plane
        data = b"PNCM" + struct.pack("<BIII", 1, 2, 2, 6) + records
        with pytest.raises(MapFormatError, match="repeated channel 'base'"):
            read_maps(data)

    def test_one_plane_stack_type(self):
        for cls, names in ((ChannelMaps, ["base", "end", "asc", "des", "block"]), (OrientationMaps, ["ox", "oy"])):
            maps = cls.zeros(3, 5)
            assert list(maps.channels()) == names
            assert (maps.shape, maps.height, maps.width) == ((3, 5), 3, 5)
            assert type(read_maps(write_maps(maps))) is cls
        with pytest.raises(MapFormatError, match="share one shape"):
            OrientationMaps(np.zeros((2, 2), np.float32), np.zeros((2, 3), np.float32))
        with pytest.raises(MapFormatError, match="'ox' above"):
            OrientationMaps(np.full((2, 2), 1.5, np.float32), np.zeros((2, 2), np.float32))

    def test_stacks_compare_by_value(self):
        for cls in (ChannelMaps, OrientationMaps):
            a, b = cls.zeros(2, 2), cls.zeros(2, 2)
            assert a == b and not (a != b)
            assert read_maps(write_maps(a)) == a
            planes = a.channels()
            planes[next(iter(planes))] = np.full((2, 2), 0.5, np.float32)
            assert a != cls(**planes)
            assert a != cls.zeros(2, 3)
        assert ChannelMaps.zeros(2, 2) != OrientationMaps.zeros(2, 2)
        assert OrientationMaps.zeros(2, 2) != ChannelMaps.zeros(2, 2)
        assert ChannelMaps.zeros(2, 2) != "not a stack"

    def test_values_validated(self):
        with pytest.raises(MapFormatError, match="above"):
            ChannelMaps(
                np.full((2, 2), 1.5, np.float32),
                np.zeros((2, 2), np.float32),
                np.zeros((2, 2), np.float32),
                np.zeros((2, 2), np.float32),
                np.zeros((2, 2), np.float32),
            )

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_planes_rejected(self, shape):
        for cls in (ChannelMaps, OrientationMaps):
            with pytest.raises(MapFormatError, match="with pixels"):
                cls.zeros(*shape)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, value):
        # asc has no upper bound and ox is bounded on both sides: min and max alone must catch each value
        for cls, name in ((ChannelMaps, "asc"), (OrientationMaps, "ox")):
            planes = cls.zeros(2, 3).channels()
            planes[name] = np.zeros((2, 3), np.float32)
            planes[name][1, 2] = value
            with pytest.raises(MapFormatError, match=f"'{name}' contains NaN or infinite values"):
                cls(**planes)


class TestRotateMaps:
    def test_turns_zero_identity(self):
        maps = ChannelMaps.zeros(3, 4)
        assert rotate_maps(maps, 0) is maps

    def test_hot_pixel_permutation(self):
        for turns in (1, 3):
            oracle = rotate_index_oracle(4, 4, turns)
            for r in range(4):
                for c in range(4):
                    base = np.zeros((4, 4), np.float32)
                    base[r, c] = 1.0
                    z = np.zeros((4, 4), np.float32)
                    maps = ChannelMaps(base, z, z, z, z)
                    rot = rotate_maps(maps, turns)
                    rr, cc = oracle(r, c)
                    assert rot.base[rr, cc] == 1.0
                    assert rot.base.sum() == 1.0

    def test_heights_unchanged_as_scalars(self):
        z = np.zeros((2, 3), np.float32)
        asc = np.array([[1, 2, 3], [4, 5, 6]], np.float32)
        maps = ChannelMaps(z, z, asc, z, z)
        rot = rotate_maps(maps, 1)
        assert sorted(rot.asc.ravel()) == sorted(asc.ravel())

    def test_orientation_vector_rotates(self):
        ox = np.ones((2, 2), np.float32)
        oy = np.zeros((2, 2), np.float32)
        rot = rotate_maps(OrientationMaps(ox, oy), 1)
        assert np.allclose(rot.ox, 0.0)
        assert np.allclose(rot.oy, -1.0)

    def test_rotate_then_inverse_exact(self):
        rng = np.random.default_rng(4)
        maps = ChannelMaps(
            rng.uniform(0, 1, (5, 7)).astype(np.float32),
            rng.uniform(0, 1, (5, 7)).astype(np.float32),
            rng.uniform(0, 9, (5, 7)).astype(np.float32),
            rng.uniform(0, 9, (5, 7)).astype(np.float32),
            rng.uniform(0, 1, (5, 7)).astype(np.float32),
        )
        back = rotate_maps(rotate_maps(maps, 1), 3)
        for name in ("base", "end", "asc", "des", "block"):
            assert np.array_equal(getattr(back, name), getattr(maps, name))
        omaps = OrientationMaps(
            rng.uniform(-1, 1, (5, 7)).astype(np.float32), rng.uniform(-1, 1, (5, 7)).astype(np.float32)
        )
        oback = rotate_maps(rotate_maps(omaps, 1), 3)
        assert np.array_equal(oback.ox, omaps.ox)
        assert np.array_equal(oback.oy, omaps.oy)
