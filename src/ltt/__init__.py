"""Episodic low-rank test-time training for a miniature dual-encoder classifier."""

__version__ = "0.1.0"
