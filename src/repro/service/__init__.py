"""The distributed sweep coordinator.

:mod:`~repro.service.coordinator` is the chunk-lease ledger behind
:class:`repro.analysis.remote.RemoteBackend` and the ``repro coordinator``
command, with a stdlib ``http.server`` front end.
"""

from .coordinator import (
    CoordinatorHTTPServer,
    SweepCoordinator,
    make_coordinator_server,
)

__all__ = [
    "SweepCoordinator",
    "CoordinatorHTTPServer",
    "make_coordinator_server",
]
