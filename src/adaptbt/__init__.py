"""Behavior-tree engine, adaptive strategy layer and valve-twisting bench.

Names are imported from their modules (`adaptbt.core`, `adaptbt.treedef`, …).
"""
