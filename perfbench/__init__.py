"""End-to-end benchmark of the repro library; see ``perfbench/run.py``."""
