"""Reference lockstep driver: every live core, every machine cycle.

:func:`repro.multicore.system.drive` steps only the cores that are due or
that the EDM bus woke, and charges the skipped steps' stalls on resume.
This driver steps every live core at every machine cycle, in core-id
order, so nothing is skipped or charged afterwards; the tests hold the
two to identical per-core statistics, store visibility and persist log.
"""

from repro.multicore import system


def reference_drive(cores, max_cycles=500_000_000, no_retire_limit=None):
    """Same contract as :func:`repro.multicore.system.drive`."""
    if no_retire_limit is None:
        no_retire_limit = cores[0].params.watchdog_no_retire
    now = last_retire = steps = 0
    live = [(core, core.lockstep()) for core in cores]
    try:
        while live:
            assert now <= max_cycles, "cycle budget exceeded"
            retired, target, running = 0, None, []
            for core, loop in live:
                core.now = now
                steps += 1
                try:
                    core_retired, wake = next(loop)
                except StopIteration:
                    retired += 1
                    target = now + 1
                    continue
                running.append((core, loop))
                retired += core_retired
                if wake is not None and (target is None or wake < target):
                    target = wake
            if retired:
                last_retire = now
            assert not (no_retire_limit
                        and now - last_retire > no_retire_limit), "watchdog"
            live = running
            assert not live or target is not None, "machine deadlock"
            now = target
    finally:
        for _, loop in live:
            loop.close()
    return steps


def reference_simulate(monkeypatch, built, config, params):
    """``simulate_built`` with the reference driver in place of ``drive``."""
    with monkeypatch.context() as patch:
        patch.setattr(system, "drive", reference_drive)
        return system.simulate_built(built, config, params)
