"""The macro-benchmark applications.

Each of the paper's four applications (LCS, radix sort, N-Queens, TSP)
runs on the event-level simulator with verified outputs and sequential
baselines; LCS and radix sort additionally exist in real MDP assembly
(``lcs_cycle``, ``radix_cycle``) for cross-validating the two simulation
levels.  ``scenario`` is the catalogue of runs driven by name.
"""
