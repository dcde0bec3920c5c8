"""Byte-size unit constants.

The paper reports message sizes in megabytes (28 MB ... 678 MB); these
constants keep the conversions explicit and uniform.
"""

from __future__ import annotations

__all__ = ["KB", "MB", "GB"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024
