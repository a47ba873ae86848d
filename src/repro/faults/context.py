"""Ambient fault context: which injector (if any) is active.

Mirrors :func:`repro.obs.spans.use_tracer`: installing an injector
for the current thread means the machine model, the network cost
model, and the MPI layer pick it up at construction time without
signature changes anywhere.  The context is per thread, so a served
batch running faulted cells on one thread never changes the injector
that cells resolved on another thread see.  ``current_injector()``
returns ``None`` on a healthy machine, so every per-call check stays
an attribute load + branch.
"""

from __future__ import annotations

import threading

__all__ = ["use_faults", "current_injector"]


class _Ambient(threading.local):
    #: the active injector on this thread (class default: healthy).
    injector = None


_current = _Ambient()


def current_injector():
    """The active :class:`~repro.faults.injector.FaultInjector`, or
    ``None`` when the machine is healthy."""
    return _current.injector


class use_faults:
    """Install a fault context for the duration of the ``with`` block.

    ``faults`` may be a :class:`~repro.faults.spec.FaultSpec` (an
    injector is built from it, seeded deterministically with ``salt``
    — typically the scenario key, so every cell draws an independent
    but reproducible stream), an already-built
    :class:`~repro.faults.injector.FaultInjector`, or ``None``/an
    empty spec (both leave the machine healthy).  ``with`` yields the
    installed injector (or ``None``).  Re-entrant: the previous
    context is restored on exit.

    A plain class rather than ``@contextmanager``: the surrogate fast
    path enters a fault context per evaluated cell, and the generator
    machinery costs a multiple of this two-method protocol.
    """

    __slots__ = ("_faults", "_salt", "_previous")

    def __init__(self, faults, salt: str = "") -> None:
        self._faults = faults
        self._salt = salt

    def __enter__(self):
        faults = self._faults
        if faults is None:
            injector = None
        else:
            from repro.faults.injector import FaultInjector

            if isinstance(faults, FaultInjector):
                injector = faults
            elif faults.faults:
                injector = FaultInjector(faults, salt=self._salt)
            else:
                injector = None
        self._previous = _current.injector
        _current.injector = injector
        return injector

    def __exit__(self, *exc) -> None:
        _current.injector = self._previous
