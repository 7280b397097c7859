package simdata

import (
	"fmt"
	"sync"
)

// datasetCache memoizes Generate results so a sweep whose cells share
// a profile pays the generation cost once instead of once per cell.
// Entries are keyed by the full profile value (two profiles differing
// in any field — seed, scale overrides, k plan — are distinct), and
// a per-entry once gives singleflight semantics: concurrent callers
// for the same profile block on a single generation.
//
// Cached datasets are shared, so callers must treat them as
// immutable. Every consumer in this repository already does: the
// pipeline copies reads during pre-processing, Subset returns a new
// Dataset over shared backing arrays, and the experiment tables only
// read. Callers that need to mutate a dataset must use Generate.
var datasetCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	ds   *Dataset
	err  error
}

// cacheKey fingerprints a profile. Profile is a plain value type
// whose only reference field is the AssemblyKmers slice; %#v renders
// both the scalars and the slice contents, so equal-by-value profiles
// collide (as intended) and any differing field separates them.
func cacheKey(p Profile) string { return fmt.Sprintf("%#v", p) }

// GenerateCached returns the memoized dataset for p, generating it at
// most once per distinct profile even under concurrent callers. The
// returned dataset is shared and must be treated as read-only.
func GenerateCached(p Profile) (*Dataset, error) {
	key := cacheKey(p)
	datasetCache.mu.Lock()
	if datasetCache.entries == nil {
		datasetCache.entries = map[string]*cacheEntry{}
	}
	e, ok := datasetCache.entries[key]
	if !ok {
		e = &cacheEntry{}
		datasetCache.entries[key] = e
	}
	datasetCache.mu.Unlock()
	e.once.Do(func() {
		e.ds, e.err = Generate(p)
	})
	return e.ds, e.err
}
