"""Instruction taxonomy used throughout the characterization.

The paper breaks retired instructions into five visible classes (Figure 1:
integer, floating point, branch, load, store) and further splits the
integer class (Figure 2) into integer address calculation, floating-point
address calculation and "other" computation.  This module defines those
classes and the arithmetic over instruction-mix vectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable


class InstructionClass(enum.Enum):
    """Retired-instruction classes reported in Figure 1 of the paper."""

    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    INTEGER = "integer"
    FP = "fp"
    OTHER = "other"


#: Canonical ordering used when serialising mixes into metric vectors.
INSTRUCTION_CLASSES = (
    InstructionClass.LOAD,
    InstructionClass.STORE,
    InstructionClass.BRANCH,
    InstructionClass.INTEGER,
    InstructionClass.FP,
    InstructionClass.OTHER,
)


@dataclass
class InstructionMix:
    """A count of retired instructions per :class:`InstructionClass`.

    Counts are absolute (dynamic instruction counts), not ratios; ratios
    are derived on demand so mixes can be accumulated across execution
    phases without loss.
    """

    counts: Dict[InstructionClass, float] = field(
        default_factory=lambda: {cls: 0.0 for cls in INSTRUCTION_CLASSES}
    )

    @classmethod
    def from_counts(cls, **kwargs: float) -> "InstructionMix":
        """Build a mix from keyword counts, e.g. ``load=10, branch=2``."""
        mix = cls()
        for name, value in kwargs.items():
            mix.counts[InstructionClass(name)] = float(value)
        return mix

    @classmethod
    def from_ratios(cls, total: float, **kwargs: float) -> "InstructionMix":
        """Build a mix of ``total`` instructions from per-class ratios.

        Ratios must sum to 1 within a small tolerance.
        """
        ratio_sum = sum(kwargs.values())
        if not math.isclose(ratio_sum, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"ratios must sum to 1, got {ratio_sum!r}")
        mix = cls()
        for name, value in kwargs.items():
            mix.counts[InstructionClass(name)] = float(value) * total
        return mix

    @property
    def total(self) -> float:
        """Total retired instructions in the mix."""
        return sum(self.counts.values())

    def ratio(self, kind: InstructionClass) -> float:
        """Fraction of retired instructions in ``kind`` (0 if empty)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.counts[kind] / total

    def ratios(self) -> Dict[InstructionClass, float]:
        """All class ratios as a dict (zeros if the mix is empty)."""
        return {cls: self.ratio(cls) for cls in INSTRUCTION_CLASSES}

    def scaled(self, factor: float) -> "InstructionMix":
        """Return a copy with every count multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        result = InstructionMix()
        for cls, count in self.counts.items():
            result.counts[cls] = count * factor
        return result

    def __add__(self, other: "InstructionMix") -> "InstructionMix":
        result = InstructionMix()
        for cls in INSTRUCTION_CLASSES:
            result.counts[cls] = self.counts[cls] + other.counts[cls]
        return result

    def __iadd__(self, other: "InstructionMix") -> "InstructionMix":
        for cls in INSTRUCTION_CLASSES:
            self.counts[cls] += other.counts[cls]
        return self

    def add(self, kind: InstructionClass, count: float = 1.0) -> None:
        """Accumulate ``count`` instructions of class ``kind`` in place."""
        self.counts[kind] += count

    @property
    def data_movement_ratio(self) -> float:
        """Load + store fraction — the first component of the paper's
        "data movement dominated computing" observation."""
        return self.ratio(InstructionClass.LOAD) + self.ratio(InstructionClass.STORE)

    def as_vector(self) -> Iterable[float]:
        """Ratios in canonical class order (for metric vectors)."""
        return [self.ratio(cls) for cls in INSTRUCTION_CLASSES]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{cls.value}={self.ratio(cls):.3f}" for cls in INSTRUCTION_CLASSES
        )
        return f"InstructionMix(total={self.total:.0f}, {parts})"


@dataclass(frozen=True)
class IntBreakdown:
    """Figure 2: what the integer instructions are *for*.

    Fractions of the integer-class instructions that perform integer-array
    address calculation, floating-point-array address calculation, and
    everything else (computation proper, branch condition setup).  The
    three fractions must sum to 1.
    """

    int_addr: float
    fp_addr: float
    other: float

    def __post_init__(self) -> None:
        total = self.int_addr + self.fp_addr + self.other
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"integer breakdown must sum to 1, got {total!r}")
        for name in ("int_addr", "fp_addr", "other"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def address_calculation(self) -> float:
        """Total fraction of integer instructions doing address math."""
        return self.int_addr + self.fp_addr


def data_movement_share(mix: InstructionMix, breakdown: IntBreakdown) -> float:
    """The paper's §5.1 "roughly 73%" statistic.

    Load/store instructions plus the address-calculation share of the
    integer instructions, as a fraction of all retired instructions.
    """
    int_ratio = mix.ratio(InstructionClass.INTEGER)
    return mix.data_movement_ratio + int_ratio * breakdown.address_calculation


def data_movement_with_branches(mix: InstructionMix, breakdown: IntBreakdown) -> float:
    """The paper's headline "up to 92%" statistic: data movement share plus
    branch instructions."""
    return data_movement_share(mix, breakdown) + mix.ratio(InstructionClass.BRANCH)
