"""Workloads: the six HTC benchmarks, SPLASH2 profiles, and the CDN model."""

from . import kmp, rnc, wordcount
from .base import WorkloadProfile, all_profiles, get_profile
from .cdn import CdnConfig, CdnModel, CdnPoint
from .profiles import (
    HTC_PROFILES,
    SPLASH2_PROFILES,
    htc_profile_names,
    splash2_profile_names,
)

__all__ = [
    "WorkloadProfile",
    "get_profile",
    "all_profiles",
    "HTC_PROFILES",
    "SPLASH2_PROFILES",
    "htc_profile_names",
    "splash2_profile_names",
    "wordcount",
    "kmp",
    "rnc",
    "CdnModel",
    "CdnConfig",
    "CdnPoint",
]
