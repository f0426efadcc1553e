"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes (configuration -> 2, ingestion -> 3,
numeric/resource -> 4), so raising the right class matters.
"""

import os


class UgslError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(UgslError):
    """Invalid configuration value, shape mismatch, or misuse of an API."""


class IngestionError(UgslError):
    """A dataset or graph file could not be read or failed validation."""


class NumericError(UgslError):
    """A numerical procedure failed (non-finite loss, non-convergence)."""


class ResourceError(UgslError):
    """An operation would exceed a configured resource budget."""


def check_memory(nbytes: float, what: str) -> None:
    """Raise ResourceError when `what`, estimated at `nbytes`, would not
    fit in the machine's physical memory, before any of it is allocated:
    under Linux overcommit so large a request can succeed and the process
    be killed later. Without `os.sysconf` there is nothing to check."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > physical:
        raise ResourceError(
            f"{what} would need {nbytes / 2 ** 30:.1f} GiB, more than the "
            f"{physical / 2 ** 30:.1f} GiB of physical memory")
