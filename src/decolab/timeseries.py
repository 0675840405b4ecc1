"""Sampled multi-channel records with deterministic CSV round trips.

Columns are written as shortest round-trip float reprs, so rerunning the
same deterministic producer yields byte-identical files.
"""

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .liouville import _axis, _finite, _frozen

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# rows per block of write_csv: its memory is O(block), not O(record)
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing sample times plus named real-valued channels.

    Channel insertion order fixes the CSV column order; complex data is
    stored by its producer as separate _re/_im channels.
    """

    times: np.ndarray
    channels: dict

    def __post_init__(self):
        t = _frozen(_axis(self.times, "sample times", 2))
        if not self.channels:
            raise ValueError("need at least one channel")
        clean = {}
        for name, vals in self.channels.items():
            if not _NAME_RE.match(name):
                raise ValueError(f"channel name {name!r} is not an identifier")
            v = _frozen(_finite(vals, f"channel {name!r}"))
            if v.shape != t.shape:
                raise ValueError(
                    f"channel {name!r} has {v.size} samples, time axis has "
                    f"{t.size}"
                )
            clean[name] = v
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "channels", clean)

    def channel(self, name):
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(
                f"no channel {name!r}; available: {', '.join(self.channels)}"
            ) from None

    def write_csv(self, fh):
        """Write the header and one row per sample to text stream ``fh``.

        Each cell is ``repr(float(x))``.  A block of rows formats each
        distinct magnitude once and prefixes "-" where the sign bit is set,
        which for a finite float (-0.0 included) is the same string.
        """
        fh.write(",".join(["t", *self.channels]) + "\n")
        cols = [self.times, *self.channels.values()]
        for start in range(0, self.times.size, _BLOCK_ROWS):
            block = np.stack([c[start:start + _BLOCK_ROWS] for c in cols], 1)
            mags, inv = np.unique(np.abs(block), return_inverse=True)
            words = [repr(x) for x in mags.tolist()]
            words = np.array(words + ["-" + w for w in words], dtype=object)
            cells = words[inv.reshape(block.shape)
                          + mags.size * np.signbit(block)]
            fh.write("".join([",".join(row) + "\n"
                              for row in cells.tolist()]))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            names = header.split(",")
            if not names or names[0] != "t":
                raise ValueError(f"{path}: first column must be 't', got {header!r}")
            dup = [n for i, n in enumerate(names) if n in names[1:i]]
            if dup:
                raise ValueError(f"{path}: duplicate channel name {dup[0]!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not data.size:
            raise ValueError(f"{path}: no data rows")
        if data.shape[1] != len(names):
            raise ValueError(
                f"{path}: {data.shape[1]} data columns vs {len(names)} header names"
            )
        channels = {name: data[:, k] for k, name in enumerate(names[1:], start=1)}
        return cls(times=data[:, 0], channels=channels)
