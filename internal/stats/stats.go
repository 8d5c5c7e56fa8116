// Package stats collects the runtime statistics that the paper reports
// in Tables 4, 6 and 8: reused objects, local/remote RPC counts, bytes
// allocated by deserialization ("new (MBytes)"), cycle-table lookups,
// and serializer invocation counts, plus wire-level accounting used by
// the virtual-time cost model.
package stats

import (
	"fmt"
	"sync/atomic"
)

// PaddedInt64 is an atomic.Int64 padded out to a full cache line, so
// two hot counters updated from different nodes' goroutines never
// share a line and ping-pong it between cores (false sharing). The
// embedded methods (Add, Load, Store) are used directly.
type PaddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// Counters accumulates runtime events. All fields are safe for
// concurrent use. A Counters value must not be copied after first use.
// The counters bumped on every message are padded (PaddedInt64);
// rarely-touched fault counters stay unpadded.
//
// The serializer's counters (TypeBytes through ReusedBytes, and
// PlanFallbacks) are tallied per message in the serial package's pooled
// contexts and added here once when the message's WriteValues or
// ReadValues call returns, successfully or not: a snapshot taken while
// a message is being walked does not include that message yet, and one
// taken after the call returns includes all of it.
type Counters struct {
	RemoteRPCs PaddedInt64  // RMIs on objects on another node
	LocalRPCs  atomic.Int64 // RMIs that happened to be node-local

	Messages  PaddedInt64 // network messages sent
	WireBytes PaddedInt64 // payload bytes put on the wire
	TypeBytes PaddedInt64 // bytes of per-object type information
	TypeOps   PaddedInt64 // type descriptor writes/parses avoided by site mode

	SerializerCalls PaddedInt64 // dynamic (per-class) serializer invocations
	InlinedWrites   PaddedInt64 // field writes inlined by call-site plans
	IntrospectOps   PaddedInt64 // introspection steps (class mode layout walks)

	CycleTables  PaddedInt64 // cycle hash-tables created
	CycleLookups PaddedInt64 // cycle hash-table lookups/inserts

	AllocObjects PaddedInt64 // objects allocated by deserialization
	AllocBytes   PaddedInt64 // bytes allocated by deserialization
	ReusedObjs   PaddedInt64 // objects reused instead of allocated
	ReusedBytes  PaddedInt64 // bytes reused instead of allocated

	AcksOnly atomic.Int64 // returns collapsed to a bare acknowledgment

	// Fault-tolerance counters (chaos mode).
	Retries        atomic.Int64 // call retransmissions after a deadline expiry
	Timeouts       atomic.Int64 // calls that failed with ErrTimeout/ErrPartitioned
	DupSuppressed  atomic.Int64 // redelivered calls absorbed by the callee dedup cache
	CorruptDropped atomic.Int64 // frames discarded on checksum mismatch
	StaleReplies   atomic.Int64 // replies arriving after their call completed

	// Claim-checker counters (audit mode, rmi.ClaimCheckPolicy).
	ClaimChecks     atomic.Int64 // sampled calls whose compile-time claims were re-verified
	ClaimViolations atomic.Int64 // claims found violated at runtime

	// Wire-robustness counters (versioned protocol).
	MalformedFrames atomic.Int64 // CRC-valid frames rejected by the hardened decoder
	PlanFallbacks   atomic.Int64 // objects demoted to class-level encoding by link negotiation

	// NetFrames counts physical frames handed to the transport, so
	// NetFrames/operations is the wire-efficiency "frames per op".
	NetFrames PaddedInt64 // physical frames put on the wire
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	RemoteRPCs, LocalRPCs                         int64
	Messages, WireBytes, TypeBytes, TypeOps       int64
	SerializerCalls, InlinedWrites, IntrospectOps int64
	CycleTables, CycleLookups                     int64
	AllocObjects, AllocBytes                      int64
	ReusedObjs, ReusedBytes                       int64
	AcksOnly                                      int64
	Retries, Timeouts, DupSuppressed              int64
	CorruptDropped, StaleReplies                  int64
	ClaimChecks, ClaimViolations                  int64
	MalformedFrames, PlanFallbacks, NetFrames     int64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		RemoteRPCs:      c.RemoteRPCs.Load(),
		LocalRPCs:       c.LocalRPCs.Load(),
		Messages:        c.Messages.Load(),
		WireBytes:       c.WireBytes.Load(),
		TypeBytes:       c.TypeBytes.Load(),
		TypeOps:         c.TypeOps.Load(),
		SerializerCalls: c.SerializerCalls.Load(),
		InlinedWrites:   c.InlinedWrites.Load(),
		IntrospectOps:   c.IntrospectOps.Load(),
		CycleTables:     c.CycleTables.Load(),
		CycleLookups:    c.CycleLookups.Load(),
		AllocObjects:    c.AllocObjects.Load(),
		AllocBytes:      c.AllocBytes.Load(),
		ReusedObjs:      c.ReusedObjs.Load(),
		ReusedBytes:     c.ReusedBytes.Load(),
		AcksOnly:        c.AcksOnly.Load(),
		Retries:         c.Retries.Load(),
		Timeouts:        c.Timeouts.Load(),
		DupSuppressed:   c.DupSuppressed.Load(),
		CorruptDropped:  c.CorruptDropped.Load(),
		StaleReplies:    c.StaleReplies.Load(),
		ClaimChecks:     c.ClaimChecks.Load(),
		ClaimViolations: c.ClaimViolations.Load(),
		MalformedFrames: c.MalformedFrames.Load(),
		PlanFallbacks:   c.PlanFallbacks.Load(),
		NetFrames:       c.NetFrames.Load(),
	}
}

// Sub returns s - t field-wise (statistics accumulated between two
// snapshots).
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		RemoteRPCs:      s.RemoteRPCs - t.RemoteRPCs,
		LocalRPCs:       s.LocalRPCs - t.LocalRPCs,
		Messages:        s.Messages - t.Messages,
		WireBytes:       s.WireBytes - t.WireBytes,
		TypeBytes:       s.TypeBytes - t.TypeBytes,
		TypeOps:         s.TypeOps - t.TypeOps,
		SerializerCalls: s.SerializerCalls - t.SerializerCalls,
		InlinedWrites:   s.InlinedWrites - t.InlinedWrites,
		IntrospectOps:   s.IntrospectOps - t.IntrospectOps,
		CycleTables:     s.CycleTables - t.CycleTables,
		CycleLookups:    s.CycleLookups - t.CycleLookups,
		AllocObjects:    s.AllocObjects - t.AllocObjects,
		AllocBytes:      s.AllocBytes - t.AllocBytes,
		ReusedObjs:      s.ReusedObjs - t.ReusedObjs,
		ReusedBytes:     s.ReusedBytes - t.ReusedBytes,
		AcksOnly:        s.AcksOnly - t.AcksOnly,
		Retries:         s.Retries - t.Retries,
		Timeouts:        s.Timeouts - t.Timeouts,
		DupSuppressed:   s.DupSuppressed - t.DupSuppressed,
		CorruptDropped:  s.CorruptDropped - t.CorruptDropped,
		StaleReplies:    s.StaleReplies - t.StaleReplies,
		ClaimChecks:     s.ClaimChecks - t.ClaimChecks,
		ClaimViolations: s.ClaimViolations - t.ClaimViolations,
		MalformedFrames: s.MalformedFrames - t.MalformedFrames,
		PlanFallbacks:   s.PlanFallbacks - t.PlanFallbacks,
		NetFrames:       s.NetFrames - t.NetFrames,
	}
}

// NewMBytes reports deserialization-allocated megabytes, the paper's
// "new (MBytes)" column.
func (s Snapshot) NewMBytes() float64 { return float64(s.AllocBytes) / (1 << 20) }

func (s Snapshot) String() string {
	return fmt.Sprintf(
		"rpcs(local=%d remote=%d) msgs=%d wire=%dB type=%dB serCalls=%d inlined=%d cycleTables=%d cycleLookups=%d alloc(%d objs, %.2f MB) reused=%d "+
			"faults(retries=%d timeouts=%d dupSuppressed=%d corruptDropped=%d staleReplies=%d) claims(checks=%d violations=%d) "+
			"wire(malformed=%d planFallbacks=%d) netFrames=%d",
		s.LocalRPCs, s.RemoteRPCs, s.Messages, s.WireBytes, s.TypeBytes,
		s.SerializerCalls, s.InlinedWrites, s.CycleTables, s.CycleLookups,
		s.AllocObjects, s.NewMBytes(), s.ReusedObjs,
		s.Retries, s.Timeouts, s.DupSuppressed, s.CorruptDropped, s.StaleReplies,
		s.ClaimChecks, s.ClaimViolations,
		s.MalformedFrames, s.PlanFallbacks,
		s.NetFrames)
}
