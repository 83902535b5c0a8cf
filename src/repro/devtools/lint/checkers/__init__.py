"""Built-in checkers.  Importing this package registers all of them
with :data:`repro.devtools.lint.core.REGISTRY`; third-party/in-repo
extensions can register more with the same decorator."""

from repro.devtools.lint.checkers import (  # noqa: F401
    async_safety,
    counter_parity,
    determinism,
    fork_safety,
    hot_loop,
    oracle_parity,
    process_safety,
)

__all__ = [
    "determinism",
    "process_safety",
    "hot_loop",
    "oracle_parity",
    "async_safety",
    "fork_safety",
    "counter_parity",
]
