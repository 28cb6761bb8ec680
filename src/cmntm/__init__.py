"""Cascaded memory models for multi-turn feature retrieval.

A chain of external-memory recurrent stages refines a query feature vector
across the turns of a transaction; retrieval ranks a candidate database by
cosine similarity against the refined output. Ships with a tape-based
reverse-mode autodiff engine, memory-less baselines, synthetic multi-turn
task generators, and a reproducible training and experiment harness.
"""

__version__ = "0.1.0"
