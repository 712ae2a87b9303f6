"""The two-endpoint session: framing, key ledger, wire protocol, endpoints."""
