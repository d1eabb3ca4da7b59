"""HTTP front end over the serving layer.

Dependency-free (stdlib ``asyncio`` only), built on
:class:`repro.service.AsyncPreparationService` — see
``docs/serving.md``:

* :mod:`repro.net.protocol` — the versioned JSON wire schema
  (request/response envelopes, error codes mapped from
  :mod:`repro.exceptions`, outcome serialisation,
  ``comparable_wire_outcome``),
* :mod:`repro.net.http` — :class:`HttpServer`, a minimal HTTP/1.1
  server (``POST /v1/prepare``, ``POST /v1/batch``, ``GET /v1/stats``,
  ``GET /healthz``) with keep-alive, body limits, and graceful drain,
* :mod:`repro.net.client` — :class:`ReproClient` (async) and
  :class:`SyncReproClient` (blocking facade).

``python -m repro serve [spec.json] --listen HOST:PORT`` serves real
sockets from the CLI.
"""

from repro.net.client import ClientError, ReproClient, SyncReproClient
from repro.net.http import HttpServer
from repro.net.protocol import (
    PROTOCOL_VERSION,
    WireError,
    comparable_wire_outcome,
    error_code,
    outcome_to_wire,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ClientError",
    "HttpServer",
    "ReproClient",
    "SyncReproClient",
    "WireError",
    "comparable_wire_outcome",
    "error_code",
    "outcome_to_wire",
]
