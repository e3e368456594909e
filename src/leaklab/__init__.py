"""leaklab: side-channel leakage estimation against a simulated
memory-encrypted guest.

The pipeline: run a workload on a :class:`~leaklab.machine.SimMachine`,
collect a multi-channel trace under a
:class:`~leaklab.machine.CollectorPolicy`, generate labeled datasets with
the privacy games, extract features, train attack classifiers and compare
the measured advantage against the analytic privacy bound.

The package root holds only ``__version__``, so that importing it loads
nothing else; the API lives in the submodules ``trace``, ``machine``,
``workloads``, ``games``, ``features``, ``analysis`` and ``mitigation``.
"""

__version__ = "0.1.0"
