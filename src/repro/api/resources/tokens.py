"""API-token lifecycle over HTTP: issue and revoke.

Bootstrapping still happens out of band (the CLI's ``serve --http``
banner or an in-process ``issue_token`` call) — these routes let an
already-authenticated operator mint scoped follow-on tokens (e.g. a
``read`` token for a dashboard) and revoke them, without restarting the
gateway.  The revoked/issued token travels in the request *body*, never
the URL, so credentials stay out of path-based access logs.
"""

from __future__ import annotations

from repro.api.errors import ApiError
from repro.api.router import Route
from repro.api.schemas import Field, Schema


def issue_token(ctx) -> dict:
    scope = ctx.body.get("scope", "operator")
    if ctx.user not in ctx.platform.users:
        ctx.platform.register_user(ctx.user)
    try:
        token = ctx.platform.issue_token(ctx.user, scope=scope)
    except ValueError as exc:
        raise ApiError(400, str(exc))
    return {"token": token, "scope": scope, "username": ctx.user}


def revoke_token(ctx) -> dict:
    token = ctx.body.get("token")
    if not token:
        raise ApiError(400, "token required")
    # Only the token's owner may revoke it; an unknown token gets the
    # same 403 as someone else's, so revocation can't probe the store.
    if ctx.platform.resolve_token(token) != ctx.user:
        raise PermissionError("token does not belong to you")
    return {"revoked": ctx.platform.revoke_token(token)}


def register(router) -> None:
    router.add(Route(
        "POST", "/v1/tokens", issue_token, name="issueToken", tag="auth",
        summary="Mint a scoped API token for the calling user",
        request=Schema(
            Field("scope", "str", default="operator",
                  enum=("read", "operator"),
                  doc="read tokens may only call non-mutating routes"),
        ),
        response={"description": "The minted token",
                  "fields": ("token", "scope", "username")},
    ))
    router.add(Route(
        "DELETE", "/v1/tokens", revoke_token, name="revokeToken", tag="auth",
        summary="Revoke one of the calling user's API tokens",
        request=Schema(
            Field("token", "str", doc="the token string to revoke"),
        ),
        response={"description": "Revocation outcome", "fields": ("revoked",)},
    ))
