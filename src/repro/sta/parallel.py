"""Placeholder left by the removed sharded compiled-sweep driver.

Timing analysis is single-process; the module has no code.  It stays only
because the traced benchmark run (``perfbench/spans.py``, ``Tracer.install``)
imports ``repro.sta.parallel`` before wrapping its span targets.  Delete it
once that import is gone.
"""
