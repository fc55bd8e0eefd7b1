"""Transport: byte-accounting message channel and protocol runner."""
