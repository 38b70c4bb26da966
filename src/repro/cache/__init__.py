"""DRAM-cache designs: the paper's TDRAM and every evaluated baseline."""

from repro.cache.alloy import AlloyCache
from repro.cache.bear import BearCache
from repro.cache.cascade_lake import CascadeLakeCache
from repro.cache.controller import CacheOp, DramCacheController, OpKind
from repro.cache.ideal import IdealCache
from repro.cache.metrics import BREAKDOWN_CATEGORIES, CacheMetrics
from repro.cache.ndc import NdcCache
from repro.cache.no_cache import NoCacheSystem
from repro.cache.predictor import MapIPredictor
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.request import DemandRequest, Op, Outcome
from repro.cache.tagstore import LookupResult, TagStore
from repro.cache.tdram import TdramCache

#: Registry used by the experiment runner and the CLI.
DESIGNS = {
    "cascade_lake": CascadeLakeCache,
    "alloy": AlloyCache,
    "bear": BearCache,
    "ndc": NdcCache,
    "tdram": TdramCache,
    "ideal": IdealCache,
    "no_cache": NoCacheSystem,
}

__all__ = [
    "AlloyCache",
    "BearCache",
    "CascadeLakeCache",
    "CacheOp",
    "DramCacheController",
    "OpKind",
    "IdealCache",
    "BREAKDOWN_CATEGORIES",
    "CacheMetrics",
    "NdcCache",
    "NoCacheSystem",
    "MapIPredictor",
    "StridePrefetcher",
    "DemandRequest",
    "Op",
    "Outcome",
    "LookupResult",
    "TagStore",
    "TdramCache",
    "DESIGNS",
]
