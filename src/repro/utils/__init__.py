"""Small shared utilities: bit-level I/O and seed derivation."""
