"""Latency/throughput harnesses reproducing the paper's §5 experiments.

- ``queueing``: vectorized Lindley-recursion FIFO queues (the virtual-time
  backbone — latency is measured against *scheduled* arrivals, which is
  the coordinated-omission correction the paper applies [26]).
- ``harness``: run a per-event engine under a target arrival rate with
  measured service times plus labelled calibrated costs (this package is
  the only one that calibrates); percentile reporting.
- ``fig8`` / ``fig9`` / ``fig10``: drivers producing the T1–T4 tables
  (see DESIGN.md §5 and EXPERIMENTS.md).
"""
from .harness import KafkaRTTModel, LatencyResult, run_engine
from .queueing import fifo_departures

__all__ = ["KafkaRTTModel", "LatencyResult", "run_engine", "fifo_departures"]
