"""Typed API errors — the status-code contract of the gateway.

The dispatch core maps exactly these (plus the typed not-found lookups
``UnknownJobError``/``UnknownProjectError`` and ``PermissionError``) to
client-visible statuses; any *other* exception escaping a handler is a
genuine bug and surfaces as a 500 with the message in the envelope,
never as a masqueraded 404.
"""

from __future__ import annotations


class ApiError(Exception):
    """Raised for client errors; carries an HTTP-like status code and,
    for a refusal the caller may retry (429, 503), the ``retry_after_s``
    hint the envelope and the ``Retry-After`` HTTP header expose."""

    def __init__(self, status: int, message: str,
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class NotFoundError(ApiError):
    """A genuinely missing resource (route, project, job, device)."""

    def __init__(self, message: str):
        super().__init__(404, message)


class AuthError(ApiError):
    """Missing or invalid API token on a token-authenticated surface."""

    def __init__(self, message: str):
        super().__init__(401, message)


class RateLimitedError(ApiError):
    """Token bucket exhausted; carries its retry hint."""

    def __init__(self, user: str, retry_after_s: float):
        super().__init__(
            429,
            f"rate limit exceeded for {user!r}; "
            f"retry in {retry_after_s:.2f}s",
            retry_after_s=retry_after_s,
        )
