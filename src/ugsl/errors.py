"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes (configuration -> 2, ingestion -> 3,
numeric/resource -> 4), so raising the right class matters.
`check_memory` refuses what the machine cannot hold; `row_blocks` keeps the
rows a pass over rows or edges gathers within BLOCK_BYTES, the one budget.
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


BLOCK_BYTES = 1 << 21  # 2 MiB


def row_blocks(count: int, row_bytes: int):
    """Slices that cover `count` rows (or edges) in blocks holding at most
    BLOCK_BYTES of `row_bytes`-byte rows each, and at least one row. The
    budget is read at each call, so that a test can patch it."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return (slice(a, a + step) for a in range(0, count, step))


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
