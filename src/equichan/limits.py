"""Dense-dimension guard for transform construction."""

from __future__ import annotations

import os

ENV_VAR = "EQUICHAN_MAX_DENSE"
DEFAULT_MAX_DENSE = 4096


class ResourceError(RuntimeError):
    """Raised when a dense construction would exceed the configured cap."""


def max_dense_dim() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DENSE
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc


def check_dense(dim: int) -> None:
    cap = max_dense_dim()
    if dim > cap:
        raise ResourceError(
            f"dense dimension {dim} exceeds cap {cap}; raise {ENV_VAR} to override"
        )
