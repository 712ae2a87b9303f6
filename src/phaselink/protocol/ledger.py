"""Key-pool accounting with recycling.

Every on-air chip of a frame debits one pad bit (consumed). After the
frame, pad bits whose chip positions were never kept by the receiver
(no click, or basis mismatch) are credited back (recycled); kept
positions mint fresh key material (generated), except the publicly
disclosed check bits, which are consumed and neither recycled nor
regenerated. A frame whose QBER check aborts the session mints no key:
it is committed with every kept position counted as disclosed, so its
never-kept positions are recycled and its kept ones stay consumed.

The ledger is accounting only: it counts bits and holds none. The pad
bit of chip i of frame f always comes from key-stream position
f * n_chips + i (see framing), whatever the pool holds; the pool decides
only whether a frame may be sent (KeyPoolExhausted).

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


def ledger_commit(ledger: KeyLedger, chips: int, kept: int, disclosed: int) -> None:
    """Credit recycling and fresh generation for one processed frame of
    chips debited pad bits, kept chip positions and disclosed check bits
    (a subset of kept).

    The frame's chip debit must already have happened (KeyLedger.debit,
    when the frame was encoded).
    """
    if not (0 <= disclosed <= kept <= chips):
        raise ValueError("require 0 <= disclosed <= kept <= chips")
    fresh = kept - disclosed
    ledger.recycled += chips - kept
    ledger.generated += fresh
    ledger.pool_bits += (chips - kept) + fresh
    ledger.check()
