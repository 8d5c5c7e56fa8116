package rmi

import (
	"errors"
	"time"

	"cormi/internal/wire"
)

// Sentinel errors for the failure paths a remote call can take. Wrap
// checks should use errors.Is.
var (
	// ErrTimeout is returned when a call's deadline (and retry budget)
	// expires without a reply.
	ErrTimeout = errors.New("rmi: call timed out")
	// ErrPartitioned is returned instead of ErrTimeout when the network
	// reports the callee unreachable (transport.PartitionReporter).
	ErrPartitioned = errors.New("rmi: destination partitioned")
	// ErrClusterClosed is returned for calls pending or issued across
	// Cluster.Close.
	ErrClusterClosed = errors.New("rmi: cluster closed")
	// ErrPlanMismatch is returned for every call over a refused link:
	// the HELLO exchange found the peer running other plans (another
	// registry digest), or a HELLO did not decode.
	// The call fails before its arguments are marshalled.
	ErrPlanMismatch = errors.New("rmi: peer runs other plans")
	// ErrMalformedFrame is wire.ErrMalformedFrame re-exported at the
	// RMI layer: a CRC-valid frame whose content violated the protocol
	// (hostile or version-skewed input). Distinct from the transport
	// faults above — retrying the same bytes cannot succeed.
	ErrMalformedFrame = wire.ErrMalformedFrame
	// ErrUpcallBlocked is the panic of a method running as an upcall on
	// its node's receive loop (a leaf call site) that issued a call
	// through its *Call. Its caller receives it as a remote exception:
	// the compiler judged the method a leaf from its sketch, and the Go
	// body disagrees.
	ErrUpcallBlocked = errors.New("rmi: a leaf method running on the receive loop issued a call")
)

// CallPolicy bounds one remote invocation in real (wall-clock) time:
// each attempt waits at most Timeout for a reply; on expiry the call is
// retransmitted — under the same sequence number, so the callee's dedup
// cache absorbs redeliveries without re-executing the user method — up
// to Retries times, sleeping Backoff (doubling, capped at MaxBackoff)
// before each retransmit.
//
// The zero policy preserves the paper's semantics on a reliable
// interconnect: wait for the reply indefinitely (but never across
// Cluster.Close).
type CallPolicy struct {
	// Timeout is the per-attempt reply deadline; 0 means wait forever.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt.
	Retries int
	// Backoff is the sleep before the first retransmit; it doubles per
	// attempt.
	Backoff time.Duration
	// MaxBackoff caps the doubling. 0 means no explicit cap; the
	// doubling still saturates at maxUncappedBackoff so a deep retry
	// budget can never turn into a multi-minute (or, after shift
	// overflow, negative) sleep.
	MaxBackoff time.Duration
}

// maxUncappedBackoff bounds exponential backoff when MaxBackoff is
// unset. Without it a policy like {Backoff: 1ms, Retries: 64} sleeps
// ~9 minutes by retry 20 and overflows the shift entirely by retry 64.
const maxUncappedBackoff = time.Second

// attempts returns the total send budget.
func (p CallPolicy) attempts() int {
	if p.Timeout <= 0 || p.Retries < 0 {
		return 1
	}
	return 1 + p.Retries
}

// nextBackoff returns the sleep before the given retransmit (1-based)
// under exponential growth.
func (p CallPolicy) nextBackoff(retry int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = maxUncappedBackoff
	}
	// Double up to the cap without ever overflowing the shift.
	d := p.Backoff
	for i := 1; i < retry && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	return d
}
