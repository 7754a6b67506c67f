"""Classical paging (pure caching): the eviction-policy protocol and Belady's MIN.

These are the caching-only substrate of the integrated problem: the
Conservative prefetching algorithms replay MIN's replacement decisions and
demand fetching evicts MIN's victims.
"""

from .base import EvictionPolicy, PagingResult, run_paging
from .belady import BeladyMIN, min_fault_count

__all__ = [
    "EvictionPolicy",
    "PagingResult",
    "run_paging",
    "BeladyMIN",
    "min_fault_count",
]
