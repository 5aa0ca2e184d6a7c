"""Q-format fixed-point number specification.

The S-SLIC accelerator uses a narrow fixed-point datapath (8 bits in the
final design; the paper sweeps 4..16 bits plus float64 in Section 6.1). A
:class:`QFormat` describes one of the Color Conversion Unit's internal
representations: total bit width, number of fractional bits, and
signedness. Values are stored as integers scaled by ``2**frac_bits``.

The model is what a hardware datapath provides: quantization rounding half
away from zero (a round-and-add), saturation to the representable range,
and range queries. :mod:`repro.color.lut` and :mod:`repro.color.hw_convert`
name their table, coefficient and matrix formats with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FixedPointError

__all__ = ["QFormat"]


@dataclass(frozen=True)
class QFormat:
    """A fixed-point format: ``total_bits`` wide with ``frac_bits`` fraction.

    Parameters
    ----------
    total_bits:
        Width of the representation including the sign bit when signed.
        Must be in [2, 64].
    frac_bits:
        Number of fractional bits. May be zero (pure integer) and may equal
        or exceed ``total_bits`` for subunitary ranges, but must be
        non-negative.
    signed:
        Whether the format is two's-complement signed.

    Examples
    --------
    >>> q = QFormat(8, 4)          # s3.4: range [-8, 7.9375], step 0.0625
    >>> q.quantize(1.23)
    1.25
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if not (2 <= self.total_bits <= 64):
            raise FixedPointError(
                f"total_bits must be in [2, 64], got {self.total_bits}"
            )
        if self.frac_bits < 0:
            raise FixedPointError(f"frac_bits must be >= 0, got {self.frac_bits}")
        if self.frac_bits > self.total_bits + 32:
            raise FixedPointError(
                f"frac_bits {self.frac_bits} unreasonably exceeds total_bits "
                f"{self.total_bits}"
            )

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------
    @property
    def int_bits(self) -> int:
        """Integer (non-fraction, non-sign) bits; may be negative."""
        return self.total_bits - self.frac_bits - (1 if self.signed else 0)

    @property
    def scale(self) -> float:
        """Value of one least-significant bit: ``2**-frac_bits``."""
        return float(2.0 ** -self.frac_bits)

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer code."""
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer code."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.scale

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def to_raw(self, value) -> np.ndarray:
        """Quantize real ``value`` to raw integer codes with saturation.

        Rounds half away from zero. Accepts scalars or arrays; always
        returns int64 raw codes clipped to the representable range. NaNs
        map to zero (hardware datapaths have no NaN; this keeps the model
        total).
        """
        scaled = np.asarray(value, dtype=np.float64) * (2.0 ** self.frac_bits)
        scaled = np.where(np.isnan(scaled), 0.0, scaled)
        raw = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
        raw = np.clip(raw, self.raw_min, self.raw_max)
        return raw.astype(np.int64)

    def from_raw(self, raw) -> np.ndarray:
        """Convert raw integer codes back to real values (float64)."""
        return np.asarray(raw, dtype=np.float64) * self.scale

    def quantize(self, value):
        """Round-trip ``value`` through the format (quantize + dequantize).

        This is the model of "what the datapath sees": the nearest
        representable value, saturated to range. Scalars in, scalar out.
        """
        out = self.from_raw(self.to_raw(value))
        if np.isscalar(value) or np.ndim(value) == 0:
            return float(out)
        return out

    def saturate_raw(self, raw) -> np.ndarray:
        """Clip raw codes into this format's representable range."""
        return np.clip(np.asarray(raw, dtype=np.int64), self.raw_min, self.raw_max)

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"Q{sign}{self.int_bits}.{self.frac_bits}"
