"""Make `search_twists` start its worker pool on a short scan.

A scan hands its remaining d to the pool only when their estimated work
passes `search.POOL_BREAK_EVEN_S`, so the short ranges of the tests would
otherwise finish in-process and leave the pool path untested.
"""

from concurrent.futures import ProcessPoolExecutor

from twistsel import search


def force_pool(mp, probe_s: float = 0.0, break_even_s: float = 0.0) -> list[list[int]]:
    """Patch the pool rule through the MonkeyPatch `mp`; return the d handed to each pool.

    With the default zeros the pool takes over after the first d. Two CPUs are
    reported as usable, so the pool starts on a one-CPU host too. The pool is a
    real `ProcessPoolExecutor`; each scan that starts one appends the list of d
    it handed over.
    """
    handed: list[list[int]] = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, ds, **kwargs):
            ds = list(ds)
            handed.append(ds)
            return super().map(fn, ds, **kwargs)

    mp.setattr(search, "PROBE_S", probe_s)
    mp.setattr(search, "POOL_BREAK_EVEN_S", break_even_s)
    mp.setattr(search, "_usable_cpus", lambda: 2)
    # search imports the pool class from here only when it starts a pool
    mp.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return handed
