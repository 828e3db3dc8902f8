"""Settings shared by the test modules."""

from importlib import metadata

# The scipy version the pinned outputs were taken under.  Every construction
# and every rounding with an active edge goes through a HiGHS LP jump, whose
# optimal vertex is not unique, so the pinned hashes follow the HiGHS build
# that this scipy ships.
PINNED_SCIPY = "1.17.1"


def pin_message(what: str) -> str:
    """Failure message of a pinned-output assertion; names both scipy versions."""
    return (
        f"{what} differs from its pin, taken under scipy {PINNED_SCIPY}; "
        f"this run has scipy {metadata.version('scipy')}"
    )
