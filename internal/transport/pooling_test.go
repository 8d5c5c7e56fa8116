package transport

import (
	"bytes"
	"testing"

	"cormi/internal/wire"
)

// TestTCPPooledRoundTrip pushes many variably-sized pooled frames
// through a real TCP connection and verifies the buffer ownership
// protocol end to end: the sender fills a pooled buffer and hands it
// to Send (which recycles it after the write), the receiver gets its
// payload in a pooled buffer, checks the bytes and returns it with
// PutBuf. Buffer recycling must never let one frame's bytes bleed
// into the next.
func TestTCPPooledRoundTrip(t *testing.T) {
	net, err := NewTCPNetworkLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	e0, e1 := net.Endpoint(0), net.Endpoint(1)

	const frames = 200
	// Joined before returning: Send recycles the payload after the
	// write, which can be after the receiver already has the frame — a
	// put landing in a later test would skew its pool-balance check.
	sent := make(chan struct{})
	defer func() { <-sent }()
	go func() {
		defer close(sent)
		for i := 0; i < frames; i++ {
			size := 1 + (i*37)%4096
			b := wire.GetBuf(size)
			for j := range b {
				b[j] = byte(i)
			}
			// Send owns b from here on (it recycles it after writing).
			if err := e0.Send(Packet{To: 1, TS: int64(i), Payload: b}); err != nil {
				return
			}
		}
	}()

	for i := 0; i < frames; i++ {
		p, ok := e1.Recv()
		if !ok {
			t.Fatalf("endpoint closed after %d frames", i)
		}
		wantSize := 1 + (i*37)%4096
		want := bytes.Repeat([]byte{byte(i)}, wantSize)
		if !bytes.Equal(p.Payload, want) {
			t.Fatalf("frame %d: got %d bytes (first=%d), want %d bytes of %d",
				i, len(p.Payload), p.Payload[0], wantSize, byte(i))
		}
		if p.TS != int64(i) {
			t.Fatalf("frame %d: TS=%d", i, p.TS)
		}
		wire.PutBuf(p.Payload)
	}
}
