"""The scripted question pool: distinct queries and their textual variants.

Load drivers draw client questions from :data:`_QUERY_POOL` and pass each
through :func:`_perturb`, so that many clients ask few questions in many
spellings and the service's canonicalizer and dedup cache stay on the
hot path.  The drivers themselves live with their callers
(``examples/service_gateway.py``, ``benchmarks/`` and ``bench/``).
"""

from __future__ import annotations

import random

#: Base pool of distinct questions clients may ask (cycled, then
#: textually perturbed per client to exercise canonicalization).
_QUERY_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors WHERE temp > 15 EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT MIN(temp) FROM sensors WHERE light > 200 EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT nodeid, light FROM sensors WHERE light < 700 EPOCH DURATION 4096",
    "SELECT MAX(temp) FROM sensors WHERE temp > 5 EPOCH DURATION 8192",
)


def _perturb(text: str, rng: random.Random) -> str:
    """A semantics-preserving textual variant of ``text``.

    Random keyword/attribute case plus ``EPOCH DURATION`` vs ``SAMPLE
    PERIOD`` — the service's canonicalizer must collapse all of these onto
    one cache key.
    """
    variant = text
    choice = rng.random()
    if choice < 0.3:
        variant = variant.lower()
    elif choice < 0.5:
        variant = variant.upper()
    if rng.random() < 0.4:
        variant = variant.replace("EPOCH DURATION", "SAMPLE PERIOD") \
            .replace("epoch duration", "sample period")
    return variant
