"""Key-pool accounting with recycling.

Every on-air chip of a frame debits one pad bit (consumed). After the
frame, pad bits whose chip positions were never kept by the receiver
(no click, or basis mismatch) are credited back (recycled); kept
positions mint fresh key material (generated), except the publicly
disclosed check bits, which are consumed and neither recycled nor
regenerated.

The balance identity  pool = initial + generated + recycled - consumed
holds exactly after every commit; a violation raises NegativeBalance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KeyPoolExhausted, NegativeBalance


@dataclass
class KeyLedger:
    pool_bits: int
    initial_bits: int
    consumed: int = 0
    generated: int = 0
    recycled: int = 0

    @classmethod
    def with_initial(cls, initial_bits: int) -> "KeyLedger":
        return cls(pool_bits=initial_bits, initial_bits=initial_bits)

    def debit(self, n_bits: int) -> None:
        """Consume n_bits of pad material at encode time."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if self.pool_bits < n_bits:
            raise KeyPoolExhausted(
                f"pool holds {self.pool_bits} bits, debit of {n_bits} requested"
            )
        self.pool_bits -= n_bits
        self.consumed += n_bits

    @property
    def p_rec(self) -> float:
        """Recycled fraction of all consumed bits (0.0 before any debit)."""
        return self.recycled / self.consumed if self.consumed else 0.0

    def check(self) -> None:
        if self.pool_bits != self.initial_bits + self.generated + self.recycled - self.consumed:
            raise NegativeBalance("ledger identity violated")
        if self.pool_bits < 0 or self.recycled > self.consumed:
            raise NegativeBalance("ledger balance out of range")


@dataclass(frozen=True)
class FrameAccounting:
    """Per-frame counts feeding the ledger: debited chips, kept chip
    positions, and disclosed check bits (a subset of kept)."""

    chips: int
    kept: int
    disclosed: int = 0

    def __post_init__(self):
        if not (0 <= self.disclosed <= self.kept <= self.chips):
            raise ValueError("require disclosed <= kept <= chips")


def ledger_commit(ledger: KeyLedger, frame_stats: FrameAccounting) -> KeyLedger:
    """Credit recycling and fresh generation for one processed frame.

    The frame's chip debit must already have happened (KeyLedger.debit,
    when the frame was encoded).
    """
    ledger.recycled += frame_stats.chips - frame_stats.kept
    fresh = frame_stats.kept - frame_stats.disclosed
    ledger.generated += fresh
    ledger.pool_bits += (frame_stats.chips - frame_stats.kept) + fresh
    ledger.check()
    return ledger
