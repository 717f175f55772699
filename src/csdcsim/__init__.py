"""Seedable simulator of a controlled secure direct communication
protocol built on GHZ states, entanglement swapping, and local unitary
encodings, with eavesdropping attack models and detection statistics."""

__version__ = "0.1.0"
