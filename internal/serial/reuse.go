package serial

import (
	"sync"

	"cormi/internal/model"
)

// ReuseCache keeps the object graphs deserialized by the previous
// invocation of one call site, so the next invocation can overwrite
// them in place (§3.3). It implements the multithreading guard of
// Figure 13: Take removes the cached graphs (leaving nil behind), so a
// concurrent invocation of the same call site simply allocates fresh
// objects instead of racing on the cache.
//
// Alongside the donor roots, the cache recycles a values scratch slice
// for ReadValuesScratch, so the deserialization hot path needs neither
// a roots nor a vals allocation in steady state.
type ReuseCache struct {
	mu    sync.Mutex
	slots []*model.Object
	vals  []model.Value
}

// Take removes and returns the cached per-value roots and the values
// scratch slice (nil on the first invocation or while another thread
// holds them).
func (rc *ReuseCache) Take() ([]*model.Object, []model.Value) {
	rc.mu.Lock()
	s, v := rc.slots, rc.vals
	rc.slots, rc.vals = nil, nil
	rc.mu.Unlock()
	return s, v
}

// Put stores the roots deserialized by this invocation (and the vals
// scratch backing them) for the next one. A nil argument leaves the
// corresponding slot untouched — a concurrent holder may still return
// it, and a message without references reads back nil roots; for
// non-nil arguments the newer value wins (either graph is a valid
// donor).
func (rc *ReuseCache) Put(slots []*model.Object, vals []model.Value) {
	rc.mu.Lock()
	if slots != nil {
		rc.slots = slots
	}
	if vals != nil {
		rc.vals = vals
	}
	rc.mu.Unlock()
}
