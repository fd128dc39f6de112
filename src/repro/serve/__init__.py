"""HTTP archive service: the XFA1 read stack served to many clients.

The package splits transport from behaviour:

- :mod:`repro.serve.service` — :class:`~repro.serve.service.ArchiveService`,
  the framework-agnostic core: endpoint handlers returning
  :class:`~repro.serve.service.ServiceResponse` objects, generation ETags,
  reopen-on-new-generation reader leases, the shared decode cache, and the
  404/416/422/500 error mapping.
- :mod:`repro.serve.http` — a dependency-free threaded HTTP server on the
  stdlib ``http.server``; what ``repro serve`` runs and what the test suite
  and load benchmark drive.
"""

from repro.serve.service import ArchiveHandle, ArchiveService, ServiceError, ServiceResponse

__all__ = [
    "ArchiveHandle",
    "ArchiveService",
    "ServiceError",
    "ServiceResponse",
]
