"""The cases of `heckeforge verify`, one module per suite (see suite.py)."""
