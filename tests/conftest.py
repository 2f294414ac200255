import struct
import zlib

import numpy as np
import pytest

from fracwave import Coefficients, Grid, RealField
from fracwave.diagnostics import random_band_limited

TWO_PI = 2.0 * np.pi

# fBBM's default set with c_nl = 0: the linearization shared by fCH and fBBM
LINEAR_FBBM = Coefficients(c_nl=0.0, c_disp=0.75, c_evo=1.25)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_grid(n: int, length: float = TWO_PI) -> Grid:
    return Grid(length=length, n_points=n)


def smooth_field(grid: Grid, rng, band: int | None = None, amplitude: float = 1.0) -> RealField:
    """Random band-limited field scaled to a max-abs of roughly `amplitude`."""
    band = band if band is not None else max(2, grid.n_points // 6)
    u = random_band_limited(grid, band, rng)
    peak = np.abs(u.values).max()
    return RealField(grid, u.values * (amplitude / peak))


# What a checkpoint stores past its header, and where the number that
# ``poison_checkpoint`` rewrites sits: t at byte 24 of the 48-byte header,
# then the slope history's (t, min slope) pairs, the N values and the
# N/2 + 1 complex spectrum, then a CRC32 of everything before it.
CHECKPOINT_FIELDS = ("t", "slope history", "values", "spectrum")


def poison_checkpoint(path, what: str, value: float) -> None:
    """Rewrite the checkpoint at ``path`` with ``value`` in one number of
    ``what`` (one of ``CHECKPOINT_FIELDS``) and a matching CRC."""
    blob = bytearray(path.read_bytes()[:-4])
    (n,) = struct.unpack_from("<I", blob, 8)
    (n_hist,) = struct.unpack_from("<Q", blob, 40)
    history, values = 48, 48 + 16 * n_hist
    offset = {"t": 24, "slope history": history + 8, "values": values + 8 * 3,
              "spectrum": values + 8 * n + 16 * 2}[what]
    struct.pack_into("<d", blob, offset, value)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
