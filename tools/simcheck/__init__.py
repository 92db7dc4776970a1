"""simcheck: the static analyzer for the simulator's determinism,
snapshot, error-reporting and hot-path contracts (DESIGN.md
section 15).

Run as a package: python3 tools/simcheck [paths...]
"""

__version__ = "1.0"
