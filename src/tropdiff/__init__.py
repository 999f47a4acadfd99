"""Exact tropical differential algebra over valued power-series rings."""

__version__ = "0.1.0"
