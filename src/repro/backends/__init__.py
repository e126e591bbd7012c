"""The result store behind the experiment engine and the service.

One implementation, :class:`~repro.backends.json_backend.JsonBackend`:
a flat directory of ``<content-key>.json`` files under the cache
directory.
"""

from repro.backends.json_backend import JsonBackend

__all__ = ["JsonBackend"]
