"""Synthetic surrogates of the paper's scientific datasets (Table IV).

See :mod:`repro.datasets.base` for why surrogates are used and how their
compressibility profiles are matched to RTM / Hurricane / CESM-ATM.
"""

from repro.datasets.base import Field, smooth_random_field, sparse_random_field
from repro.datasets.cesm import CESM_FIELDS, DEFAULT_CESM_SHAPE, generate_cesm_field
from repro.datasets.hurricane import (
    DEFAULT_HURRICANE_SHAPE,
    HURRICANE_FIELDS,
    generate_hurricane_field,
)
from repro.datasets.registry import (
    DATASET_SPECS,
    DatasetSpec,
    load_field,
    message_of_size,
)
from repro.datasets.rtm import DEFAULT_RTM_SHAPE, generate_rtm_snapshot

__all__ = [
    "Field",
    "smooth_random_field",
    "sparse_random_field",
    "generate_rtm_snapshot",
    "generate_hurricane_field",
    "generate_cesm_field",
    "HURRICANE_FIELDS",
    "CESM_FIELDS",
    "DATASET_SPECS",
    "DatasetSpec",
    "load_field",
    "message_of_size",
    "DEFAULT_RTM_SHAPE",
    "DEFAULT_HURRICANE_SHAPE",
    "DEFAULT_CESM_SHAPE",
]
