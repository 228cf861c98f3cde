"""SSH channel simulator.

OmpCloud submits Spark jobs "through SSH connection" to the driver node.  The
simulator models connection hand-shake latency, command execution against a
registered handler (the driver's ``spark-submit``), and the failure modes the
plugin must survive: unreachable host, authentication rejection, non-zero
remote exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cloud.credentials import Credentials
from repro.obs.events import SSHConnect, get_bus


class SSHError(Exception):
    """Connection-level SSH failure (unreachable, auth rejected)."""


@dataclass
class CommandResult:
    """Outcome of one remote command."""

    command: str
    exit_status: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_status == 0


CommandHandler = Callable[[str], CommandResult]


class SSHEndpoint:
    """A host that accepts SSH connections and executes commands."""

    def __init__(
        self,
        hostname: str,
        authorized_users: set[str] | None = None,
        reachable: bool = True,
    ) -> None:
        self.hostname = hostname
        self.authorized_users = authorized_users if authorized_users is not None else set()
        self.reachable = reachable
        self._handlers: list[tuple[str, CommandHandler]] = []

    def register_handler(self, prefix: str, handler: CommandHandler) -> None:
        """Commands starting with ``prefix`` are dispatched to ``handler``.

        Re-registering a prefix replaces the old handler — the host that
        serves ``spark-submit`` serves whatever job was installed last.
        """
        for i, (p, _) in enumerate(self._handlers):
            if p == prefix:
                self._handlers[i] = (prefix, handler)
                return
        self._handlers.append((prefix, handler))

    def unregister_handler(self, prefix: str) -> None:
        """Stop serving ``prefix`` (a no-op when nothing serves it)."""
        self._handlers = [(p, h) for p, h in self._handlers if p != prefix]

    def dispatch(self, command: str) -> CommandResult:
        for prefix, handler in self._handlers:
            if command.startswith(prefix):
                return handler(command)
        return CommandResult(
            command=command, exit_status=127, stderr=f"{command.split()[0]}: command not found"
        )


class SSHClient:
    """Client side of the channel, used by the cloud plugin."""

    #: TCP + key exchange + auth, charged to simulated time per connection.
    handshake_s = 0.35

    def __init__(self, endpoint: SSHEndpoint, credentials: Credentials) -> None:
        self._endpoint = endpoint
        self._credentials = credentials
        self._connected = False
        self.commands_run: list[CommandResult] = []

    def connect(self) -> float:
        """Establish the session; returns the simulated handshake duration."""
        host = self._endpoint.hostname
        user = self._credentials.username
        try:
            if not self._endpoint.reachable:
                raise SSHError(f"ssh: connect to host {host}: no route to host")
            if self._endpoint.authorized_users and user not in self._endpoint.authorized_users:
                raise SSHError(
                    f"ssh: {user}@{host}: Permission denied (publickey)"
                )
        except SSHError as exc:
            get_bus().emit(SSHConnect(resource=host, host=host, user=user,
                                      ok=False, error=str(exc)))
            raise
        self._connected = True
        get_bus().emit(SSHConnect(resource=host, host=host, user=user, ok=True))
        return self.handshake_s

    def exec_command(self, command: str) -> CommandResult:
        """Run a remote command; requires a prior :meth:`connect`."""
        if not self._connected:
            raise SSHError("exec_command on a closed SSH session")
        result = self._endpoint.dispatch(command)
        self.commands_run.append(result)
        return result

    def close(self) -> None:
        self._connected = False

    def __enter__(self) -> "SSHClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def is_connected(self) -> bool:
        return self._connected
