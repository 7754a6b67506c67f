"""Classical paging (pure caching): Belady's MIN.

This is the caching-only substrate of the integrated problem: the
Conservative prefetching algorithms replay MIN's replacement decisions.
MIN runs on the simulation engine's furthest-next-use heap, whose victims
the engine's forced demand fetches also take.
"""

from .base import PagingResult, run_paging

__all__ = [
    "PagingResult",
    "run_paging",
]
