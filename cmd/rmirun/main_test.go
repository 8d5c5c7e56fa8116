package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cormi"
)

// TestExampleSameAnswerAtEveryLevel: the built-in demo, whose tally
// call carries an int[] and a boolean across the wire, computes the
// same main() at every optimization level, with three of its five
// calls remote on two nodes.
func TestExampleSameAnswerAtEveryLevel(t *testing.T) {
	for _, level := range cormi.AllLevels {
		var out bytes.Buffer
		if code := run([]string{"-example", "-level", level.String()}, &out, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", level, code)
		}
		if !strings.Contains(out.String(), "Main.main() = 2.66662e+06\n") || !strings.Contains(out.String(), "rpcs: 2 local / 3 remote") {
			t.Fatalf("%v:\n%s", level, out.String())
		}
	}
}

// TestRunFailureExitCodes drives run's failure paths: an unreadable
// file and a program that does not compile go through fail (exit 1,
// the error on stderr); bad flags are usage errors (exit 2).
func TestRunFailureExitCodes(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jp")
	if err := os.WriteFile(bad, []byte("class {"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{filepath.Join(t.TempDir(), "missing.jp")}, 1, "rmirun: open "},
		{[]string{bad}, 1, "rmirun: "},
		{[]string{"-nodes", "0", "-example"}, 2, "-nodes must be at least 1"},
		{[]string{"-level", "fast", "-example"}, 2, "unknown level"},
		{nil, 2, "need a source file or -example"},
	} {
		var stderr bytes.Buffer
		if code := run(c.args, io.Discard, &stderr); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}
