import re
import tracemalloc

import numpy as np
import pytest

from starbeam import (
    ChannelConfig,
    SystemConfig,
    dbm_to_watts,
    default_scenario,
    desk_scenario,
    generate_channels,
    load_channels,
    path_loss_linear,
    save_channels,
)
from starbeam.channels import sample_user_positions
from starbeam.errors import ConfigurationError


def pl_db(d, cfg):
    return -20 * np.log10(path_loss_linear(d, cfg))


class TestPathLoss:
    def test_one_meter(self):
        assert pl_db(1.0, ChannelConfig()) == pytest.approx(35.6)

    def test_hundred_meters(self):
        assert pl_db(100.0, ChannelConfig()) == pytest.approx(79.6)

    def test_ten_meters(self):
        assert pl_db(10.0, ChannelConfig()) == pytest.approx(57.6)


class TestGeneration:
    def test_bitwise_reproducible(self):
        sys_cfg, ch_cfg = desk_scenario()
        a = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(5))
        b = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(5))
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.h, b.h)

    def test_large_rician_factor_limit(self):
        # The limit is the pure line-of-sight channel: steering entries have
        # modulus 1, so every entry's modulus is its link's path loss.
        sys_cfg, _ = desk_scenario()
        cfg = ChannelConfig(rician_k_g=1e12, rician_k_h=1e12)
        ch = generate_channels(sys_cfg, cfg, np.random.default_rng(0))
        loss = path_loss_linear(100.0, cfg)
        assert np.linalg.norm(np.abs(ch.G) - loss) / np.linalg.norm(ch.G) < 1e-5
        # user positions are the first draws of the same seed
        pos = sample_user_positions(sys_cfg, cfg, np.random.default_rng(0))
        for k in range(sys_cfg.K):
            loss_k = path_loss_linear(np.linalg.norm(pos[k] - cfg.ris_pos), cfg)
            assert np.max(np.abs(np.abs(ch.h[k]) - loss_k)) < 1e-5 * loss_k

    def test_zero_rician_factor_variance(self):
        sys_cfg = SystemConfig(M=10, N=10, K=1, p_max=1.0, noise_power=1.0)
        cfg = ChannelConfig(rician_k_g=0.0, rician_k_h=0.0)
        rng = np.random.default_rng(1)
        loss = path_loss_linear(100.0, cfg)
        entries = []
        for _ in range(100):
            entries.append(generate_channels(sys_cfg, cfg, rng).G.ravel())
        power = np.mean(np.abs(np.concatenate(entries)) ** 2)
        assert power == pytest.approx(loss**2, rel=0.05)

    def test_unit_entry_power_at_default_factor(self):
        sys_cfg = SystemConfig(M=10, N=10, K=1, p_max=1.0, noise_power=1.0)
        cfg = ChannelConfig()
        assert cfg.rician_k_g == 10.0 and cfg.rician_k_h == 10.0
        rng = np.random.default_rng(2)
        loss = path_loss_linear(100.0, cfg)
        entries = []
        for _ in range(100):
            entries.append(generate_channels(sys_cfg, cfg, rng).G.ravel())
        power = np.mean(np.abs(np.concatenate(entries)) ** 2)
        assert power == pytest.approx(loss**2, rel=0.05)

    def test_users_inside_their_disc(self):
        sys_cfg, ch_cfg = desk_scenario(K=2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            pos = sample_user_positions(sys_cfg, ch_cfg, rng)
            for k, side in enumerate(sys_cfg.user_sides):
                center = ch_cfg.center_t if side == "transmission" else ch_cfg.center_r
                assert np.linalg.norm(pos[k] - center) <= ch_cfg.user_area_radius

    @pytest.mark.parametrize("fields, named", [
        ({"bs_pos": (100.0, 0.0)}, "bs_pos"),
        ({"center_t": (100.0, 0.0), "user_area_radius": 0.0}, "center_t"),
        ({"center_r": (103.0, 4.0)}, "center_r"),
        ({"user_area_radius": 15.0}, "user_area_radius"),
    ], ids=["bs_pos_at_ris_pos", "center_t_at_ris_pos", "center_r_disc_holds_ris_pos",
            "radius_15_disc_holds_ris_pos"])
    def test_geometry_rejected(self, fields, named):
        with pytest.raises(ConfigurationError, match=named):
            ChannelConfig(**fields)

    def test_position_of_two_reals_accepted(self):
        cfg = ChannelConfig(bs_pos=[0, 1], ris_pos=np.array([100.0, 0.0]),
                            center_t=(np.float64(100.0), -15))
        sys_cfg, _ = desk_scenario(K=2)
        ch = generate_channels(sys_cfg, cfg, np.random.default_rng(0))
        assert np.isfinite(ch.G).all() and np.isfinite(ch.h).all()


class TestDefaultScenario:
    def test_dimensions(self):
        sys_cfg, _ = default_scenario()
        assert (sys_cfg.N, sys_cfg.M, sys_cfg.K) == (100, 64, 4)

    def test_power_conversion(self):
        sys_cfg, _ = default_scenario()
        assert sys_cfg.p_max == pytest.approx(0.01, rel=1e-12)
        assert sys_cfg.noise_power == pytest.approx(1e-11, rel=1e-12)

    def test_dbm_helper(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)


def saved_text(tmp_path, ch) -> str:
    """The text save_channels writes for ch."""
    path = tmp_path / "saved.txt"
    save_channels(str(path), ch)
    return path.read_text()


def load_text(tmp_path, text: str):
    """load_channels of a file holding text."""
    path = tmp_path / "channels.txt"
    path.write_text(text)
    return load_channels(str(path))


class TestChannelIO:
    def test_file_round_trip_bitwise(self, tmp_path):
        sys_cfg, ch_cfg = desk_scenario()
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(7))
        path = str(tmp_path / "channels.txt")
        save_channels(path, ch)
        back = load_channels(path)
        assert np.array_equal(back.G, ch.G)
        assert np.array_equal(back.h, ch.h)

    def test_trailing_data_rejected(self, tmp_path):
        sys_cfg, ch_cfg = desk_scenario()
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(9))
        text = saved_text(tmp_path, ch)
        assert np.array_equal(load_text(tmp_path, text + "\n  \n").h, ch.h)
        with pytest.raises(ValueError, match="after the last channel row"):
            load_text(tmp_path, text + "0.5 0.5\n")

    def test_non_finite_entry_rejected(self, tmp_path):
        sys_cfg, ch_cfg = desk_scenario()
        ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(10))
        lines = saved_text(tmp_path, ch).splitlines()
        row = lines[2].split()
        row[1] = "nan"
        text = "\n".join(lines[:2] + [" ".join(row)] + lines[3:]) + "\n"
        with pytest.raises(ConfigurationError, match="channel G"):
            load_text(tmp_path, text)

    @pytest.mark.parametrize("dims", ["0 2 1", "2 2", "-1 2 1", "2 2 1 1",
                                      "2 x 1", ""])
    def test_malformed_dimension_line_rejected(self, tmp_path, dims):
        text = f"starbeam-channels v1\n{dims}\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
        with pytest.raises(ConfigurationError, match=f"dimension line '{dims}'"):
            load_text(tmp_path, text)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a channel file\n1 1 1\n0 0\n0 0\n")
        with pytest.raises(ConfigurationError, match="header: 'not a channel file'$"):
            load_channels(str(path))

    # Files of N=2, M=1, K=1: the rows of G are lines 3 and 4, that of h line 5.
    @pytest.mark.parametrize("rows, message", [
        (["0 x", "0 0", "0 0 0 0"],
         "channel G row 0: could not convert string to float: 'x'"),
        (["0 0", "1e5 0.5 2", "0 0 0 0"], "channel G row 1: expected 2 values, saw 3"),
        (["0 0", "", "0 0 0 0"], "channel G row 1: expected 2 values, saw 0"),
        (["0 0"], "channel G row 1: the file ends before it"),
        (["0 0", "0 0"], "channel h row 0: the file ends before it"),
        (["0 0", "0 0", "0 0 0"], "channel h row 0: expected 4 values, saw 3"),
        (["0 0", "0 0", "0 0 0 inf?"],
         "channel h row 0: could not convert string to float: 'inf[?]'"),
        (["0 0", "0 0", "0 0 0 0", "0"], "unexpected data after the last channel row"),
        (["0 0", "nan 0", "0 0 0 0"], "channel G row 1: non-finite value"),
        (["0 0", "0 inf", "0 0 0 0"], "channel G row 1: non-finite value"),
        (["0 0", "1e309 0", "0 0 0 0"], "channel G row 1: non-finite value"),
    ], ids=["G_not_a_number", "G_long_row", "G_empty_row", "G_short_file",
            "h_short_file", "h_short_row", "h_not_a_number", "trailing_row",
            "G_nan", "G_inf", "G_overflow"])
    def test_malformed_row_named(self, tmp_path, rows, message):
        text = "\n".join(["starbeam-channels v1", "2 1 1", *rows]) + "\n"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            load_text(tmp_path, text)

    @pytest.mark.parametrize("n", [20000, 10000000000])
    def test_dimension_line_reserves_nothing(self, tmp_path, n):
        """A dimension line far larger than the file is refused at the first
        short row, before any array of its size is made."""
        path = tmp_path / "channels.txt"
        path.write_text(f"starbeam-channels v1\n{n} {n} 1\n0 0 0 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"channel G row 0: expected {2 * n} values, saw 4")):
                load_channels(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_ascii_file_named(self, tmp_path):
        path = tmp_path / "accent.txt"
        path.write_bytes(b"starbeam-channels v1\n1 1 1\n0 0\n0 \xc3 0\n")
        with pytest.raises(ConfigurationError,
                           match=f"^channel file {re.escape(repr(str(path)))} is not ASCII"):
            load_channels(str(path))
