package rmi

import (
	"sync"

	"cormi/internal/model"
)

// BarrierMethod is the method name exported by NewBarrierService.
const BarrierMethod = "await"

// NewBarrierService returns a remotely invokable barrier for the given
// number of parties: "await" blocks until all parties have arrived,
// then releases everyone. LU uses it exactly as the paper describes
// ("updates are flushed to machine 0 and a barrier is entered").
//
// Virtual time: every party's reply is floored (Call.WaitUntil) at the
// latest virtual arrival of its generation, so all waiters leave the
// barrier at the same virtual instant without being charged CPU time.
//
// The service blocks by design, so its calls never run as upcalls on
// the receive loop, even through a site the compiler judged a leaf
// (the sketch of an await is an empty method).
//
// An early party also waits on cluster shutdown: if the cluster closes
// before the generation completes (a peer timed out across a lossy
// link, the run was abandoned), the waiter panics — surfaced to its
// caller as a remote exception — instead of blocking forever on
// parties that will never arrive.
func NewBarrierService(parties int) *Service {
	type genState struct {
		release int64 // latest virtual arrival
		arrived int
		done    chan struct{} // closed when the generation releases
	}
	var mu sync.Mutex
	// cur is the generation parties are arriving at; the releasing
	// arrival sets it to nil, so the next arrival opens a new one, and
	// every waiter keeps its own generation's pointer.
	var cur *genState
	return &Service{
		Name:     "Barrier",
		blocking: true,
		Methods: map[string]Method{
			BarrierMethod: func(call *Call, args []model.Value) []model.Value {
				mu.Lock()
				if cur == nil {
					cur = &genState{done: make(chan struct{})}
				}
				st := cur
				if call.Start() > st.release {
					st.release = call.Start()
				}
				st.arrived++
				if st.arrived == parties {
					cur = nil
					close(st.done)
				}
				mu.Unlock()

				select {
				case <-st.done:
				case <-call.Node.Cluster().Done():
					panic("barrier: cluster closed before all parties arrived")
				}
				// Every party leaves at the latest arrival: a condition
				// wait, not CPU time. release is final once done closed.
				call.WaitUntil(st.release)
				return nil
			},
		},
	}
}
