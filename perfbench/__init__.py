"""End-to-end and per-layer benchmark for citerec (see README.md)."""
