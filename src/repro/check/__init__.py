"""Sanitized smoke simulations of every scheduling strategy.

The runtime trace sanitizer (:mod:`repro.simulator.sanitizer`) validates
every simulated run against the paper's §III model — memory capacity,
input residency, pinning, bus-bandwidth conservation, event
monotonicity, and same-seed reproducibility.  ``python -m repro.check``
runs it on small instances of every strategy; see
:mod:`repro.check.cli`.  The determinism lint rules live with the tests
(``tests/check/lint_rules.py``).
"""
