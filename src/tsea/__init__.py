"""Deterministic simulator and experiment harness for an elastic actuator
that switches between series and parallel spring topologies at runtime."""

__version__ = "0.1.0"
