"""Deterministic hierarchical federated learning simulator with mobile
clients, plus empirical checks of its convergence bounds."""

__version__ = "0.1.0"
