"""The repository benchmark: decode cells, the TCP advisor and the TCP
grid, timed end to end and split by layer.  Run ``perfbench/run.py``."""
