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
	var mu sync.Mutex
	gen := 0
	type genState struct {
		release int64 // latest virtual arrival
		arrived int
		pending int           // parties that still need to read release
		done    chan struct{} // closed when the generation releases
	}
	states := map[int]*genState{}
	return &Service{
		Name:     "Barrier",
		blocking: true,
		Methods: map[string]Method{
			BarrierMethod: func(call *Call, args []model.Value) []model.Value {
				mu.Lock()
				g := gen
				st := states[g]
				if st == nil {
					st = &genState{done: make(chan struct{})}
					states[g] = st
				}
				if call.Start() > st.release {
					st.release = call.Start()
				}
				st.arrived++
				st.pending++
				if st.arrived == parties {
					gen++
					close(st.done)
				}
				mu.Unlock()

				select {
				case <-st.done:
				case <-call.Node.Cluster().Done():
					mu.Lock()
					st.pending--
					mu.Unlock()
					panic("barrier: cluster closed before all parties arrived")
				}

				mu.Lock()
				defer mu.Unlock()
				// Every party leaves at the latest arrival: a condition
				// wait, not CPU time. release is final once done closed.
				call.WaitUntil(st.release)
				st.pending--
				if st.pending == 0 {
					delete(states, g)
				}
				return nil
			},
		},
	}
}
