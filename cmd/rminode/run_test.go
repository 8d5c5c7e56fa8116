package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer the test reads while run writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestObsServesUntilStopped: with -obs and no -obs-smoke, rminode
// finishes its run and then keeps serving the endpoints, with the
// run's calls on /metrics, until the stop channel delivers; then it
// returns 0.
func TestObsServesUntilStopped(t *testing.T) {
	var out syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan int, 1)
	stopWhenServing := func() <-chan os.Signal { return stop }
	go func() { done <- run([]string{"-sends", "2", "-obs", "127.0.0.1:0"}, stopWhenServing, &out, io.Discard) }()

	serving := regexp.MustCompile(`serving http://(\S+) until interrupted`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		select {
		case code := <-done:
			t.Fatalf("run returned %d before it was stopped:\n%s", code, out.String())
		default:
		}
		if m := serving.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving line:\n%s", out.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := samples(string(body), "cormi_site_calls")[`site="Main.main.1"`]; resp.StatusCode != http.StatusOK || got != 10 {
		t.Fatalf("/metrics after the run: status %d, Main.main.1 calls %g, want 10", resp.StatusCode, got)
	}
	select {
	case code := <-done:
		t.Fatalf("run returned %d before it was stopped", code)
	default:
	}
	stop <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run returned %d after stop, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still serving 10 s after stop")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoints still served after run returned")
	}
}

// TestRunFailureExitCodes drives run's failure paths: a bad -nodes, and
// -obs-smoke on one node, whose local calls leave nothing remote to
// probe, are usage errors (2); an -obs address that cannot be listened
// on goes through fail and exits 1 with the error on stderr.
func TestRunFailureExitCodes(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-nodes", "0"}, nil, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "-nodes must be at least 1") {
		t.Fatalf("-nodes 0: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-nodes", "1", "-obs-smoke"}, nil, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "-obs-smoke needs -nodes 2 or more") {
		t.Fatalf("-nodes 1 -obs-smoke: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-obs", "127.0.0.1:-1"}, nil, io.Discard, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "rminode: ") {
		t.Fatalf("bad -obs address: exit %d, stderr %q", code, stderr.String())
	}
}
