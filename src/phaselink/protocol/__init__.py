from .framing import Frame, decode, mask_stream, preprocess
from .ledger import FrameAccounting, KeyLedger, ledger_commit
from .session import (
    AliceSession,
    BobSession,
    ProtocolParams,
    Seeds,
    SessionReport,
    SessionSpec,
    run_session,
    run_session_detailed,
)

__all__ = [
    "Frame",
    "decode",
    "mask_stream",
    "preprocess",
    "FrameAccounting",
    "KeyLedger",
    "ledger_commit",
    "AliceSession",
    "BobSession",
    "ProtocolParams",
    "Seeds",
    "SessionReport",
    "SessionSpec",
    "run_session",
    "run_session_detailed",
]
