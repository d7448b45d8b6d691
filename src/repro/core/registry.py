"""Users, organizations and the public-project index (paper Sec. 6.3).

Organizations let multiple developers share projects; public projects are
aggregated into a searchable index with sort/filter — the community
mechanics the paper credits for knowledge sharing.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.core.jobs import JobExecutor
from repro.core.project import Project
from repro.serve import ModelServer


class UnknownProjectError(KeyError):
    """Lookup of a project id the platform has never issued.

    Subclasses ``KeyError`` so legacy callers that caught ``KeyError``
    keep working, but the API gateway routes *only* this typed error to
    404 — a bare ``KeyError`` from a handler body is a genuine bug and
    surfaces as a 500.
    """

    def __init__(self, project_id: object):
        super().__init__(f"no project {project_id}")
        self.project_id = project_id

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


@dataclass
class User:
    username: str
    organizations: set[str] = field(default_factory=set)


@dataclass
class Organization:
    name: str
    members: set[str] = field(default_factory=set)
    project_ids: list[int] = field(default_factory=list)


class Platform:
    """Top-level registry: the in-process stand-in for the hosted service."""

    def __init__(
        self,
        serving_workers: int = 1,
        serving_backend: str = "thread",
        state_dir: str | None = None,
        resume_jobs: bool = False,
        wal_compact_every: int = 512,
        wal_fsync: bool = False,
    ):
        self.users: dict[str, User] = {}
        self.organizations: dict[str, Organization] = {}
        self.projects: dict[int, Project] = {}
        # The hosted-inference tier (paper Sec. 4.9): LRU-cached compiled
        # models + micro-batched classify, one ModelServer whatever the
        # placement.  ``serving_workers > 1`` partitions the model cache
        # across that many shard workers; ``serving_backend="process"``
        # runs those shards as worker *processes* (repro.core.workers),
        # so invokes execute on real cores instead of sharing one GIL.
        if serving_backend not in ("thread", "process"):
            raise ValueError(
                f"unknown serving_backend {serving_backend!r}; "
                f"expected 'thread' or 'process'"
            )
        self.serving = ModelServer(
            self, placement=serving_backend, workers=max(serving_workers, 1)
        )
        # The device fleet + its rollout executor (paper Sec. 8.2): OTA
        # updates run as staged jobs, not inline with the API request.
        from repro.device.fleet import DeviceFleet

        self.fleet = DeviceFleet()
        self.fleet_jobs = JobExecutor()
        # The monitoring plane (paper Sec. 4's production half): serving
        # emits inference telemetry into the monitor's store; drift/SLO
        # detectors and the closed retrain→rollout loop run as jobs on
        # the monitor's own executor.
        from repro.monitor import MonitorService

        self.monitor = MonitorService(self)
        self.serving.telemetry = self.monitor.telemetry
        # API tokens (token -> username): the credential store behind the
        # gateway's auth middleware.  Issued in-process (or via the CLI's
        # ``serve --http`` banner); socket callers present them as
        # ``Authorization: Bearer <token>``.
        self.api_tokens: dict[str, str] = {}
        # Per-token scope ("read" | "operator"): tokens written straight
        # into api_tokens (the CLI's --token path, old tests) have no
        # entry here and default to operator via token_scope().
        self.api_token_scopes: dict[str, str] = {}
        self._gateway = None
        # Durable control plane (repro.core.storage): with a state_dir,
        # every control-plane mutation is journaled through a WAL +
        # snapshot engine and this platform reopens into its prior
        # world — tokens resolve, projects reload lazily, interrupted
        # jobs land terminal (or resume, with resume_jobs=True).
        self._durable = None
        if state_dir is not None:
            from repro.core.storage.durable import DurableRegistry

            self._durable = DurableRegistry(
                self, state_dir, compact_every=wal_compact_every,
                fsync=wal_fsync, resume_jobs=resume_jobs,
            )
            self._durable.recover()

    # -- durability ---------------------------------------------------------

    def _journal(self, op: dict) -> None:
        if self._durable is not None:
            self._durable.record(op)

    def checkpoint(self, project_id: int) -> None:
        """Force a heavy-tree checkpoint of one project (uploads between
        train commits are otherwise only as durable as the last commit
        point)."""
        if self._durable is not None:
            self._durable.checkpoint(self.get_project(project_id))

    def flush(self) -> None:
        """Graceful-shutdown hook: checkpoint loaded projects + compact."""
        if self._durable is not None:
            self._durable.flush()

    # -- identities -------------------------------------------------------

    def register_user(self, username: str) -> User:
        if username in self.users:
            raise ValueError(f"user {username!r} already exists")
        user = User(username=username)
        self.users[username] = user
        self._journal({"op": "user_add", "username": username})
        return user

    def create_organization(self, name: str, owner: str) -> Organization:
        if owner not in self.users:
            raise KeyError(f"unknown user {owner!r}")
        org = Organization(name=name, members={owner})
        self.organizations[name] = org
        self.users[owner].organizations.add(name)
        self._journal({"op": "org_add", "name": name, "owner": owner})
        return org

    def join_organization(self, org_name: str, username: str) -> None:
        self.organizations[org_name].members.add(username)
        self.users[username].organizations.add(org_name)
        self._journal({"op": "org_join", "org": org_name, "username": username})

    # -- projects ----------------------------------------------------------

    def create_project(
        self, name: str, owner: str, organization: str | None = None,
        hmac_key: str | None = None,
    ) -> Project:
        if owner not in self.users:
            raise KeyError(f"unknown user {owner!r}")
        if organization is not None and organization not in self.organizations:
            raise KeyError(f"unknown organization {organization!r}")
        project = Project(name=name, owner=owner, hmac_key=hmac_key)
        self.projects[project.project_id] = project
        self._journal({
            "op": "project_create", "pid": project.project_id,
            "name": name, "owner": owner, "hmac_key": hmac_key,
        })
        if self._durable is not None:
            self._durable.bind_project(project)
        if organization is not None:
            org = self.organizations[organization]
            org.project_ids.append(project.project_id)
            self._journal({
                "op": "org_project", "org": organization,
                "pid": project.project_id,
            })
            # Every org member becomes a collaborator.
            for member in org.members:
                project.add_collaborator(member)
        return project

    def adopt_project(self, project: Project) -> Project:
        """Register an externally-constructed project (the CLI's
        ``load_project`` import path) with full journaling: on a durable
        platform the project is checkpointed immediately, so it survives
        a restart without ever passing through a train commit."""
        if project.owner not in self.users:
            raise KeyError(f"unknown user {project.owner!r}")
        self.projects[project.project_id] = project
        self._journal({
            "op": "project_create", "pid": project.project_id,
            "name": project.name, "owner": project.owner,
            "hmac_key": project.ingestion.hmac_key,
        })
        if self._durable is not None:
            self._durable.bind_project(project)
            project._durable_meta()
            self._durable.checkpoint(project)
        return project

    def get_project(self, project_id: int, username: str | None = None) -> Project:
        try:
            project = self.projects[project_id]
        except KeyError:
            raise UnknownProjectError(project_id) from None
        if username is not None and not project.public:
            project.require_member(username)
        return project

    # -- API tokens ---------------------------------------------------------

    #: Valid token scopes: ``read`` may only call non-mutating routes;
    #: ``operator`` (the default, and what legacy scope-less tokens get)
    #: may call everything its user may touch.
    TOKEN_SCOPES = ("read", "operator")

    def issue_token(self, username: str, scope: str = "operator") -> str:
        """Mint an API token for a registered user."""
        if username not in self.users:
            raise KeyError(f"unknown user {username!r}")
        if scope not in self.TOKEN_SCOPES:
            raise ValueError(
                f"unknown scope {scope!r}; expected one of {self.TOKEN_SCOPES}"
            )
        token = "ei_" + secrets.token_hex(16)
        self.api_tokens[token] = username
        self.api_token_scopes[token] = scope
        self._journal({
            "op": "token_add", "token": token, "user": username, "scope": scope,
        })
        return token

    def adopt_token(self, token: str, username: str,
                    scope: str = "operator") -> str:
        """Register a caller-supplied token string (the CLI's ``--token``
        path) with the same scoping + journaling as :meth:`issue_token`."""
        if scope not in self.TOKEN_SCOPES:
            raise ValueError(
                f"unknown scope {scope!r}; expected one of {self.TOKEN_SCOPES}"
            )
        self.api_tokens[token] = username
        self.api_token_scopes[token] = scope
        self._journal({
            "op": "token_add", "token": token, "user": username, "scope": scope,
        })
        return token

    def resolve_token(self, token: str) -> str | None:
        return self.api_tokens.get(token)

    def token_scope(self, token: str) -> str:
        """The scope a token was issued with; tokens installed directly
        into ``api_tokens`` (legacy path) are operator."""
        return self.api_token_scopes.get(token, "operator")

    def revoke_token(self, token: str) -> bool:
        self.api_token_scopes.pop(token, None)
        revoked = self.api_tokens.pop(token, None) is not None
        if revoked:
            self._journal({"op": "token_del", "token": token})
        return revoked

    @property
    def gateway(self):
        """The platform's API gateway (lazily built: one shared router,
        middleware chain, metrics and rate-limiter per platform)."""
        if self._gateway is None:
            from repro.api import ApiGateway

            self._gateway = ApiGateway(self)
        return self._gateway

    # -- public index -----------------------------------------------------------

    def public_projects(
        self, query: str = "", tag: str | None = None, sort: str = "name"
    ) -> list[Project]:
        """The searchable Projects page (ei2, 2022c)."""
        found = [p for p in self.projects.values() if p.public]
        if query:
            q = query.lower()
            found = [p for p in found if q in p.name.lower()]
        if tag is not None:
            found = [p for p in found if tag in p.tags]
        if sort == "name":
            found.sort(key=lambda p: p.name)
        elif sort == "size":
            found.sort(key=lambda p: -len(p.dataset))
        return found

    def clone_project(self, project_id: int, username: str) -> Project:
        clone = self.projects[project_id].clone(new_owner=username)
        self.projects[clone.project_id] = clone
        self._journal({
            "op": "project_create", "pid": clone.project_id,
            "name": clone.name, "owner": clone.owner,
            "hmac_key": clone.ingestion.hmac_key,
        })
        if self._durable is not None:
            self._durable.bind_project(clone)
            # A clone is born with a full dataset copy: checkpoint now so
            # it survives a restart before its first train commit.
            self._durable.checkpoint(clone)
        return clone

    def stats(self) -> dict:
        """The headline numbers the paper quotes (users, projects, public)."""
        return {
            "users": len(self.users),
            "projects": len(self.projects),
            "public_projects": sum(1 for p in self.projects.values() if p.public),
            "organizations": len(self.organizations),
        }
