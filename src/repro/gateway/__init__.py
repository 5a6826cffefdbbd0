"""Asyncio socket front door for the durable query service.

Everything below the gateway is in-process: :class:`QueryService` and
:class:`ClusterCoordinator` are Python objects called under a lock.  This
package puts a real network boundary in front of them — a TCP server
speaking length-prefixed JSON (:mod:`repro.gateway.protocol`), one
connection per client, with **bounded per-connection send queues** wired
into the service's :class:`~repro.service.overload.OverloadConfig` so a
peer that stops reading sheds its own BEST_EFFORT work instead of
growing server memory.

* :mod:`repro.gateway.protocol` — the framing, shared with
  :mod:`repro.service.replication`;
* :mod:`repro.gateway.server` — the asyncio :class:`GatewayServer`
  (thread-hosted event loop, housekeeping tick/pump, result streaming,
  semi-synchronous replication acks);
* :mod:`repro.gateway.client` — a small blocking :class:`GatewayClient`
  for tests, benchmarks and scripted clients.
"""

from .client import GatewayClient, GatewayError, GatewayTimeout
from .protocol import MAX_FRAME_BYTES, ProtocolError
from .server import GatewayServer

__all__ = [
    "GatewayClient",
    "GatewayError",
    "GatewayTimeout",
    "GatewayServer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
]
