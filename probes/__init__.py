"""Seeded scale probes of the divvy CLI; see run.py."""
