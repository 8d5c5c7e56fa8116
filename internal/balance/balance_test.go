package balance

import (
	"strings"
	"testing"

	"cormi/internal/wire"
)

// TestSettledNamesWhatIsOff leaks one of each balanced quantity in turn
// and wants the error to name that quantity and no other.
func TestSettledNamesWhatIsOff(t *testing.T) {
	full := settlePolls
	defer func() { settlePolls = full }()
	settlePolls = 3

	m := Take()
	if err := m.Settled(func() int64 { return 0 }); err != nil {
		t.Fatalf("nothing leaked: %v", err)
	}
	wants := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), ",") {
			t.Errorf("got %v, want only %q named", err, want)
		}
	}

	b := wire.GetBuf(8)
	wants(m.Settled(nil), "+1 frames")
	wire.PutBuf(b)

	// Read contexts are taken inside serial only; a mark one lower is
	// the same observation as a context taken since and never put back.
	low := m
	low.ctxs--
	wants(low.Settled(nil), "+1 read contexts")

	// Several, so that a goroutine of an earlier test exiting meanwhile
	// cannot cancel the leak out.
	park := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-park }()
	}
	wants(m.Settled(nil), " goroutines")
	close(park)

	wants(m.Settled(func() int64 { return 2 }), "2 pending calls")

	settlePolls = full
	if err := m.Settled(nil); err != nil {
		t.Fatalf("after undoing every leak: %v", err)
	}
}

// TestSettledWaits: a goroutine that is still unwinding when Settled is
// called is waited for, not reported.
func TestSettledWaits(t *testing.T) {
	m := Take()
	b := wire.GetBuf(8)
	release := make(chan struct{})
	go func() {
		<-release
		wire.PutBuf(b)
	}()
	go close(release)
	if err := m.Settled(nil); err != nil {
		t.Fatal(err)
	}
}
