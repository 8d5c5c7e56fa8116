// Package balance is the one Close-balance check (DESIGN.md §8): the
// process-wide pools and tables a cluster draws on must be back where
// they started once it is closed. A test takes a Mark before it builds
// anything and asks Settled after it has torn everything down.
package balance

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cormi/internal/serial"
	"cormi/internal/wire"
)

// Mark is the level of every balanced quantity at one moment: frame
// buffers and read contexts outstanding, and live goroutines.
type Mark struct {
	frames, ctxs int64
	goroutines   int
}

// Take records the current levels.
func Take() Mark {
	return Mark{wire.Stats().Outstanding, serial.ReadCtxStats().Outstanding, runtime.NumGoroutine()}
}

// settlePolls bounds Settled's wait: receive loops and TCP readers
// unwind on their own after Close returns, and executors exit once
// their method does, so the levels are polled, a millisecond apart,
// rather than read once.
var settlePolls = 10_000

// Settled waits until frames and read contexts are back at the mark,
// no more goroutines run than did then, and — when pending is given,
// typically a closed Cluster.PendingCalls — it reads zero.
// It returns nil as soon as all of that holds, and otherwise an error
// naming each quantity that is still off after the last poll.
func (m Mark) Settled(pending func() int64) error {
	var off []string
	for i := 0; i < settlePolls; i++ {
		off = m.off(pending)
		if len(off) == 0 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("unbalanced after Close: %s", strings.Join(off, ", "))
}

func (m Mark) off(pending func() int64) []string {
	var off []string
	now := Take()
	if d := now.frames - m.frames; d != 0 {
		off = append(off, fmt.Sprintf("%+d frames", d))
	}
	if d := now.ctxs - m.ctxs; d != 0 {
		off = append(off, fmt.Sprintf("%+d read contexts", d))
	}
	if d := now.goroutines - m.goroutines; d > 0 {
		off = append(off, fmt.Sprintf("%+d goroutines", d))
	}
	if pending != nil {
		if n := pending(); n != 0 {
			off = append(off, fmt.Sprintf("%d pending calls", n))
		}
	}
	return off
}
